package staticfs

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"

	"predator/internal/elide"
	"predator/internal/staticfs/analysis"
)

// This file is the suite's elision prover — the static half of the elision
// fast path (the inverse of the other analyzers: instead of proving where
// sharing CAN happen, it proves where it CANNOT). It classifies simulated
// allocations whose instrumentation events are provably irrelevant to
// detection:
//
//   - thread_private: the allocation's address never escapes the local
//     taint set, and every access happens in the same goroutine context
//     the allocation was made in. One logical thread's accesses never
//     invalidate, so all events on the object may be skipped (ModeAll).
//   - readonly: allocated and initialized by the main context strictly
//     before the function's first goroutine launch, then only ever read.
//     After the delivered initialization writes, the remaining event
//     stream on the object is reads only; reads on their own never
//     invalidate, so they may be skipped (ModeReads) without changing a
//     single invalidation count.
//   - padded: a struct whose concurrently-written fields all sit on
//     distinct cache lines already. Advisory only (Decl, never bound):
//     it documents that padding is done, it does not elide anything.
//
// The prover is deliberately intraprocedural and conservative: an address
// stored anywhere, passed as a value argument, returned, or used in any way
// the taint walker does not understand counts as an escape and disqualifies
// the allocation. Soundness of the runtime side (interior-line clipping,
// margins for virtual-line prediction, free-hook withdrawal) lives in
// internal/elide.

const elideDoc = `prove allocations whose instrumentation the runtime may skip

Emits elision-manifest entries (predlint -elide-out) for allocations that
are provably thread-private or read-only after initialization; the runtime
binds them to live objects and drops their events before detection. Silent
by default: proofs are emitted as diagnostics only under ElideDiag.`

// NewElide builds the elision prover for cfg.
func NewElide(cfg Config) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "elide",
		Doc:  elideDoc,
		Run: func(pass *analysis.Pass) (interface{}, error) {
			return runElide(pass, cfg)
		},
	}
}

// Accessor method sets on instr.Thread, recognized — like the rest of the
// suite — by receiver type name so analyzer fixtures can model them.
var (
	elideReads = map[string]bool{
		"Load64": true, "Load32": true, "Load8": true,
		"LoadFloat64": true, "LoadInt64": true, "ReadBytes": true,
	}
	elideWrites = map[string]bool{
		"Store64": true, "Store32": true, "Store8": true,
		"StoreFloat64": true, "StoreInt64": true, "WriteBytes": true,
	}
	elideRMWs = map[string]bool{"AddInt64": true}
)

// elideRoot is one tracked allocation and the evidence gathered about it.
type elideRoot struct {
	obj       types.Object
	allocCtx  int       // goroutine context the allocation ran in
	pos       token.Pos // the allocation call (the runtime callsite line)
	label     string    // DefineGlobal label; "" for heap allocations
	escaped   bool
	readCtxs  map[int]bool
	writeCtxs map[int]bool
	// lastCtx0Write anchors the readonly position rule: every main-context
	// write must precede the function's first goroutine launch, or a
	// post-join write would invalidate against reads we elided.
	lastCtx0Write token.Pos
	// writeLoops are the enclosing loops of every main-context write. A
	// loop that contains both a write and a launch replays them out of
	// textual order (write, launch, write, launch, ...), so position
	// comparison alone is not enough.
	writeLoops map[int]bool
}

func (r *elideRoot) note(ctx int, isWrite, isRMW bool, pos token.Pos, loops []int) {
	if isWrite || isRMW {
		r.writeCtxs[ctx] = true
		if ctx == 0 {
			if pos > r.lastCtx0Write {
				r.lastCtx0Write = pos
			}
			for _, l := range loops {
				r.writeLoops[l] = true
			}
		}
	}
	if !isWrite || isRMW {
		r.readCtxs[ctx] = true
	}
}

// elideProver runs the taint walk over one function body.
type elideProver struct {
	info        *types.Info
	nextCtx     int
	taint       map[types.Object]*elideRoot // var -> allocation it aliases
	roots       []*elideRoot
	firstLaunch token.Pos // earliest go statement or Parallel call
	nextLoop    int
	loops       []int        // stack of enclosing for/range loop ids
	launchLoops map[int]bool // loops that contain a goroutine launch
}

func runElide(pass *analysis.Pass, cfg Config) (interface{}, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.ElideSink == nil && !cfg.ElideDiag {
		return nil, nil // nothing consumes proofs: skip the work entirely
	}
	ig := newIgnorer(pass.Fset, pass.Files)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			p := &elideProver{
				info:        pass.TypesInfo,
				taint:       map[types.Object]*elideRoot{},
				launchLoops: map[int]bool{},
			}
			p.walk(fd.Body, 0)
			p.emit(pass, cfg, ig, fd)
		}
	}
	elidePadded(pass, cfg, ig)
	return nil, nil
}

func (p *elideProver) newCtx() int {
	p.nextCtx++
	return p.nextCtx
}

func (p *elideProver) noteLaunch(pos token.Pos) {
	if !p.firstLaunch.IsValid() || pos < p.firstLaunch {
		p.firstLaunch = pos
	}
	for _, l := range p.loops {
		p.launchLoops[l] = true
	}
}

// walk records allocation, access, and escape evidence under the given
// goroutine context. Any tainted identifier the structured cases below do
// not consume counts as an escape.
func (p *elideProver) walk(n ast.Node, ctx int) {
	ast.Inspect(n, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			if node == n {
				return true // already inside this loop's scope
			}
			p.nextLoop++
			p.loops = append(p.loops, p.nextLoop)
			if f, ok := x.(*ast.ForStmt); ok {
				if f.Init != nil {
					p.walk(f.Init, ctx)
				}
				if f.Cond != nil {
					p.walk(f.Cond, ctx)
				}
				if f.Post != nil {
					p.walk(f.Post, ctx)
				}
				p.walk(f.Body, ctx)
			} else {
				rg := x.(*ast.RangeStmt)
				p.walk(rg.X, ctx)
				if rg.Key != nil {
					p.walk(rg.Key, ctx)
				}
				if rg.Value != nil {
					p.walk(rg.Value, ctx)
				}
				p.walk(rg.Body, ctx)
			}
			p.loops = p.loops[:len(p.loops)-1]
			return false
		case *ast.GoStmt:
			p.noteLaunch(x.Pos())
			for _, a := range x.Call.Args {
				p.walk(a, ctx)
			}
			if lit, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
				p.walk(lit.Body, p.newCtx())
			} else {
				p.walk(x.Call.Fun, ctx)
			}
			return false
		case *ast.AssignStmt:
			if x.Tok == token.DEFINE {
				p.defineStmt(x, ctx)
				return false
			}
			return true
		case *ast.CallExpr:
			return !p.call(x, ctx)
		case *ast.Ident:
			if r := p.taint[p.info.ObjectOf(x)]; r != nil {
				r.escaped = true
			}
		}
		return true
	})
}

// defineStmt handles short variable declarations: allocation roots
// (x, err := t.Alloc(n)), taint propagation (q := x + uint64(3*i)), and
// everything else by plain walking.
func (p *elideProver) defineStmt(as *ast.AssignStmt, ctx int) {
	if len(as.Rhs) == 1 {
		if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
			if p.allocDefine(as, call, ctx) {
				return
			}
		}
	}
	if len(as.Lhs) == len(as.Rhs) {
		for i, rhs := range as.Rhs {
			if r, ok := p.pureRoot(rhs); ok && r != nil {
				if id, isID := as.Lhs[i].(*ast.Ident); isID && id.Name != "_" {
					if obj := p.info.Defs[id]; obj != nil {
						p.taint[obj] = r
					}
				}
				continue // a blank discard of an address is harmless
			}
			p.walk(rhs, ctx)
		}
		return
	}
	for _, rhs := range as.Rhs {
		p.walk(rhs, ctx)
	}
}

// allocDefine recognizes x, err := t.Alloc(n) / t.AllocWithOffset(n, off) /
// h.DefineGlobal("label", n) and registers x as a tracked root.
func (p *elideProver) allocDefine(as *ast.AssignStmt, call *ast.CallExpr, ctx int) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	recv, name := accessorRecv(p.info, sel), sel.Sel.Name
	var label string
	switch {
	case recv == "Thread" && (name == "Alloc" || name == "AllocWithOffset"):
	case recv == "Heap" && name == "DefineGlobal" && len(call.Args) >= 1:
		lit, isLit := ast.Unparen(call.Args[0]).(*ast.BasicLit)
		if !isLit || lit.Kind != token.STRING {
			return false
		}
		label, _ = strconv.Unquote(lit.Value)
	default:
		return false
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok || id.Name == "_" {
		return false
	}
	obj := p.info.Defs[id]
	if obj == nil {
		return false
	}
	r := &elideRoot{
		obj: obj, allocCtx: ctx, pos: call.Pos(), label: label,
		readCtxs: map[int]bool{}, writeCtxs: map[int]bool{},
		writeLoops: map[int]bool{},
	}
	p.taint[obj] = r
	p.roots = append(p.roots, r)
	for _, a := range call.Args {
		p.walk(a, ctx)
	}
	return true
}

// call handles one call expression; reports whether it fully consumed the
// node (no further descent needed).
func (p *elideProver) call(call *ast.CallExpr, ctx int) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	recv, name := accessorRecv(p.info, sel), sel.Sel.Name
	switch {
	case recv == "Thread" && len(call.Args) >= 1 &&
		(elideReads[name] || elideWrites[name] || elideRMWs[name]):
		p.classifyAddr(call.Args[0], ctx, elideWrites[name], elideRMWs[name])
		for _, a := range call.Args[1:] {
			p.walk(a, ctx)
		}
		p.walk(sel.X, ctx)
		return true
	case recv == "Thread" && name == "Free" && len(call.Args) == 1:
		// Free consumes the address without a data access; the runtime
		// binder withdraws the span through the heap free hook.
		if _, ok := p.pureRoot(call.Args[0]); ok {
			return true
		}
		return false
	case recv == "Ctx" && name == "Parallel" && len(call.Args) >= 1:
		p.noteLaunch(call.Pos())
		last := len(call.Args) - 1
		for _, a := range call.Args[:last] {
			p.walk(a, ctx)
		}
		if lit, ok := ast.Unparen(call.Args[last]).(*ast.FuncLit); ok {
			p.walk(lit.Body, p.newCtx())
		} else {
			p.walk(call.Args[last], ctx)
		}
		p.walk(sel.X, ctx)
		return true
	}
	return false
}

// classifyAddr attributes tainted identifiers inside an accessor's address
// argument to the access. Nested accessor calls classify against their own
// access kind (their result feeds the outer address as data); anything
// else falls back to the plain walk and its escape semantics.
func (p *elideProver) classifyAddr(e ast.Expr, ctx int, isWrite, isRMW bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if r := p.taint[p.info.ObjectOf(x)]; r != nil {
			r.note(ctx, isWrite, isRMW, x.Pos(), p.loops)
		}
	case *ast.BinaryExpr:
		p.classifyAddr(x.X, ctx, isWrite, isRMW)
		p.classifyAddr(x.Y, ctx, isWrite, isRMW)
	case *ast.CallExpr:
		if p.call(x, ctx) {
			return
		}
		if tv, ok := p.info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			p.classifyAddr(x.Args[0], ctx, isWrite, isRMW)
			return
		}
		p.walk(x, ctx)
	default:
		p.walk(x, ctx)
	}
}

// pureRoot reports whether e is pure address arithmetic — identifiers,
// literals, +/-/*/shift operators, parens, and single-argument type
// conversions — over at most one tainted root, returning that root. Two
// distinct roots in one expression disqualify (the result aliases neither
// cleanly).
func (p *elideProver) pureRoot(e ast.Expr) (*elideRoot, bool) {
	var root *elideRoot
	ok := true
	var rec func(e ast.Expr)
	rec = func(e ast.Expr) {
		if !ok {
			return
		}
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if r := p.taint[p.info.ObjectOf(x)]; r != nil {
				if root != nil && root != r {
					ok = false
					return
				}
				root = r
			}
		case *ast.BasicLit:
		case *ast.BinaryExpr:
			switch x.Op {
			case token.ADD, token.SUB, token.MUL, token.SHL, token.SHR:
				rec(x.X)
				rec(x.Y)
			default:
				ok = false
			}
		case *ast.CallExpr:
			if tv, found := p.info.Types[x.Fun]; found && tv.IsType() && len(x.Args) == 1 {
				rec(x.Args[0])
			} else {
				ok = false
			}
		default:
			ok = false
		}
	}
	rec(e)
	return root, ok
}

// emit classifies every root and hands proofs to the sink/diagnostics.
func (p *elideProver) emit(pass *analysis.Pass, cfg Config, ig *ignorer, fd *ast.FuncDecl) {
	for _, r := range p.roots {
		proof, mode := p.classify(r)
		if proof == "" || ig.ignored("elide", r.pos) {
			continue
		}
		e := elide.Entry{
			Proof:   proof,
			Mode:    mode,
			Package: pass.Pkg.Path(),
			Scope:   fd.Name.Name,
			Subject: r.obj.Name(),
		}
		if r.label != "" {
			e.Label = r.label
		} else {
			pos := pass.Fset.Position(r.pos)
			e.Callsite = elide.FormatSite(pos.Filename, pos.Line)
		}
		if cfg.ElideSink != nil {
			cfg.ElideSink(e)
		}
		if cfg.ElideDiag {
			pass.Report(analysis.Diagnostic{
				Pos:      r.pos,
				Category: r.obj.Name(),
				Message: fmt.Sprintf("%s is provably %s (%s): the runtime may skip its events via an elision manifest",
					r.obj.Name(), proof, mode),
			})
		}
	}
}

// classify applies the proof rules to one root's evidence.
func (p *elideProver) classify(r *elideRoot) (proof, mode string) {
	if r.escaped {
		return "", ""
	}
	ctxs := map[int]bool{}
	for c := range r.readCtxs {
		ctxs[c] = true
	}
	for c := range r.writeCtxs {
		ctxs[c] = true
	}
	if len(ctxs) == 0 {
		return "", "" // never accessed: nothing worth a manifest entry
	}
	// Thread-private: every access in the allocating context. A context is
	// lexical, so loop-spawned instances of one goroutine body each hold
	// their own non-escaping allocation.
	if len(ctxs) == 1 && ctxs[r.allocCtx] {
		return elide.ProofThreadPrivate, elide.ModeAll
	}
	// Readonly after init: main-context allocation, only main-context
	// writes, at least one worker read, and every main write positioned
	// before the first launch (a later write would invalidate against the
	// reads we skip).
	if r.allocCtx == 0 {
		onlyCtx0Writes, foreignRead := true, false
		for c := range r.writeCtxs {
			if c != 0 {
				onlyCtx0Writes = false
			}
		}
		for c := range r.readCtxs {
			if c != 0 {
				foreignRead = true
			}
		}
		writesOK := len(r.writeCtxs) == 0 ||
			(p.firstLaunch.IsValid() && r.lastCtx0Write < p.firstLaunch)
		// A loop enclosing both an init write and a launch replays them out
		// of textual order across iterations, so the position rule alone
		// would admit a write that dynamically follows reads.
		for l := range r.writeLoops {
			if p.launchLoops[l] {
				writesOK = false
			}
		}
		if onlyCtx0Writes && foreignRead && writesOK {
			return elide.ProofReadonly, elide.ModeReads
		}
	}
	return "", ""
}

// accessorRecv returns the name of a method call's named receiver type,
// unwrapping pointers — "Thread" for (*instr.Thread).Load64. Recognition by
// type name (not import path) lets analyzer fixtures model the accessors.
func accessorRecv(info *types.Info, sel *ast.SelectorExpr) string {
	selection := info.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal {
		return ""
	}
	t := selection.Recv()
	for {
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
			continue
		}
		break
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// elidePadded emits advisory entries for structs whose concurrently-written
// fields already sit on distinct cache lines — padcheck's evidence with the
// verdict inverted. Decl-keyed (never bound): the runtime gains nothing
// from eliding a struct it cannot locate by allocation site, but the
// manifest records that the padding fix is in place.
func elidePadded(pass *analysis.Pass, cfg Config, ig *ignorer) {
	L := cfg.lineSize()
	for _, se := range collectFieldEvidence(pass) {
		owner, st, offs, fields := se.owner, se.st, se.offs, se.fields
		conflictPairs, sharedLine := 0, false
		idxs := sortedKeys(fields)
		for a := 0; a < len(idxs); a++ {
			for b := a + 1; b < len(idxs); b++ {
				i, j := idxs[a], idxs[b]
				if !conflicting(fields[i], fields[j]) {
					continue
				}
				conflictPairs++
				if sameLine(pass.TypesSizes, st, offs, i, j, L) {
					sharedLine = true
				}
			}
		}
		if conflictPairs == 0 || sharedLine {
			continue // not contended, or padcheck's case — not ours
		}
		ts, _ := typeSpecOf(pass, owner)
		if ts == nil || ig.ignored("elide", ts.Name.Pos()) {
			continue
		}
		pos := pass.Fset.Position(ts.Name.Pos())
		e := elide.Entry{
			Proof:   elide.ProofPadded,
			Mode:    elide.ModeAll,
			Package: pass.Pkg.Path(),
			Subject: owner.Obj().Name(),
			Decl:    elide.FormatSite(pos.Filename, pos.Line),
		}
		if cfg.ElideSink != nil {
			cfg.ElideSink(e)
		}
		if cfg.ElideDiag {
			pass.Report(analysis.Diagnostic{
				Pos:      ts.Name.Pos(),
				Category: owner.Obj().Name(),
				Message: fmt.Sprintf("concurrently-written fields of %s already sit on distinct %d-byte cache lines (advisory: padding in place)",
					owner.Obj().Name(), L),
			})
		}
	}
}
