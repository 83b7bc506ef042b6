package staticfs

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"predator/internal/staticfs/analysis"
)

// padcheck finds structs whose fields are written concurrently — from
// different goroutine contexts through one shared object, or through
// sync/atomic, which only exists for cross-goroutine use — while sitting
// within one cache line of each other by go/types.Sizes offsets. This is
// the adjacent-hot-counter shape: each write is private to its field, but
// the line ping-pongs between cores exactly as the paper's §2.5 static
// pass predicts for adjacent thread-private data.

const padcheckDoc = `report concurrently-written struct fields that share a cache line

Fields of one struct written from different goroutines (or through
sync/atomic) invalidate each other's cache lines when their offsets land
within one line. The fix pads each contended field to a line boundary.`

// NewPadcheck builds the padcheck analyzer for cfg.
func NewPadcheck(cfg Config) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "padcheck",
		Doc:  padcheckDoc,
		Run: func(pass *analysis.Pass) (interface{}, error) {
			return runPadcheck(pass, cfg)
		},
	}
}

// fieldEvidence accumulates everything observed about one field.
type fieldEvidence struct {
	atomic   bool
	rootCtxs map[types.Object]map[int]bool // shared object -> goroutine ctxs writing through it
	firstPos token.Pos
}

// structEvidence is the write evidence for one struct with at least two
// written fields: the evidence per field index, plus the field offsets.
type structEvidence struct {
	owner  *types.Named
	st     *types.Struct
	offs   []int64
	fields map[int]*fieldEvidence
}

// collectFieldEvidence folds the package's field writes into per-field
// evidence, grouped per struct in first-write order. Generic structs,
// structs with fewer than two written fields and structs whose offsets
// cannot be computed are left out. padcheck and the padded-elision pass
// both start from it.
func collectFieldEvidence(pass *analysis.Pass) []structEvidence {
	byOwner := map[*types.Named]map[int]*fieldEvidence{}
	var owners []*types.Named // deterministic iteration order
	for _, w := range collectFieldWrites(pass) {
		if w.owner.TypeParams().Len() > 0 {
			continue
		}
		st, _ := w.owner.Underlying().(*types.Struct)
		if st == nil {
			continue
		}
		idx := fieldIndex(st, w.field)
		if idx < 0 {
			continue
		}
		fields := byOwner[w.owner]
		if fields == nil {
			fields = map[int]*fieldEvidence{}
			byOwner[w.owner] = fields
			owners = append(owners, w.owner)
		}
		ev := fields[idx]
		if ev == nil {
			ev = &fieldEvidence{rootCtxs: map[types.Object]map[int]bool{}, firstPos: w.pos}
			fields[idx] = ev
		}
		if w.pos < ev.firstPos {
			ev.firstPos = w.pos
		}
		if w.atomic {
			ev.atomic = true
		}
		if w.root != nil && w.ctx > 0 {
			ctxs := ev.rootCtxs[w.root]
			if ctxs == nil {
				ctxs = map[int]bool{}
				ev.rootCtxs[w.root] = ctxs
			}
			ctxs[w.ctx] = true
		}
	}

	var out []structEvidence
	for _, owner := range owners {
		fields := byOwner[owner]
		if len(fields) < 2 {
			continue
		}
		st := owner.Underlying().(*types.Struct)
		offs, ok := offsetsofSafe(pass.TypesSizes, structVars(st))
		if !ok {
			continue
		}
		out = append(out, structEvidence{owner: owner, st: st, offs: offs, fields: fields})
	}
	return out
}

func runPadcheck(pass *analysis.Pass, cfg Config) (interface{}, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	L := cfg.lineSize()
	ig := newIgnorer(pass.Fset, pass.Files)

	for _, se := range collectFieldEvidence(pass) {
		owner, st, offs, fields := se.owner, se.st, se.offs, se.fields

		// A field pair is contended when both carry concurrency evidence
		// against each other and their extents touch a common aligned line.
		contended := map[int]bool{}
		idxs := sortedKeys(fields)
		for a := 0; a < len(idxs); a++ {
			for b := a + 1; b < len(idxs); b++ {
				i, j := idxs[a], idxs[b]
				if !sameLine(pass.TypesSizes, st, offs, i, j, L) {
					continue
				}
				if conflicting(fields[i], fields[j]) {
					contended[i], contended[j] = true, true
				}
			}
		}
		if len(contended) == 0 {
			continue
		}

		ts, stLit := typeSpecOf(pass, owner)
		anchor := token.NoPos
		if ts != nil {
			anchor = ts.Name.Pos()
		} else {
			for i := range contended {
				if p := fields[i].firstPos; !anchor.IsValid() || p < anchor {
					anchor = p
				}
			}
		}
		if ig.ignored("padcheck", anchor) {
			continue
		}

		names := make([]string, 0, len(contended))
		for i := range contended {
			names = append(names, st.Field(i).Name())
		}
		sort.Slice(names, func(a, b int) bool {
			return offs[fieldIndexByName(st, names[a])] < offs[fieldIndexByName(st, names[b])]
		})

		pass.Report(analysis.Diagnostic{
			Pos:      anchor,
			Category: owner.Obj().Name(),
			Message: fmt.Sprintf(
				"concurrently-written fields %s of %s share a %d-byte cache line; pad them onto separate lines (paper §2.5, §6)",
				strings.Join(names, ", "), owner.Obj().Name(), L),
			SuggestedFixes: padFieldsFix(pass, cfg, owner, stLit, contended),
		})
	}
	return nil, nil
}

// conflicting decides whether two fields' write evidence implies the
// cross-goroutine ping-pong: both atomic (atomics exist only for shared
// use), or one shared root object written from two different goroutines.
func conflicting(a, b *fieldEvidence) bool {
	if a.atomic && b.atomic {
		return true
	}
	for root, actxs := range a.rootCtxs {
		bctxs := b.rootCtxs[root]
		for ca := range actxs {
			for cb := range bctxs {
				if ca != cb {
					return true
				}
			}
		}
	}
	return false
}

// sameLine reports whether fields i and j of st touch a common aligned
// cache line given the precomputed offsets.
func sameLine(sizes types.Sizes, st *types.Struct, offs []int64, i, j int, L uint64) bool {
	si, oki := sizeofSafe(sizes, st.Field(i).Type())
	sj, okj := sizeofSafe(sizes, st.Field(j).Type())
	if !oki || !okj || si <= 0 || sj <= 0 {
		return false
	}
	iLo, iHi := uint64(offs[i])/L, (uint64(offs[i])+uint64(si)-1)/L
	jLo, jHi := uint64(offs[j])/L, (uint64(offs[j])+uint64(sj)-1)/L
	return iLo <= jHi && jLo <= iHi
}

// fieldIndex finds v's declaration index within st, or -1.
func fieldIndex(st *types.Struct, v *types.Var) int {
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i) == v {
			return i
		}
	}
	return -1
}

func fieldIndexByName(st *types.Struct, name string) int {
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == name {
			return i
		}
	}
	return -1
}

func sortedKeys(m map[int]*fieldEvidence) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
