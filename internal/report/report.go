// Package report turns the runtime's tracking state into ranked, source-
// attributed false sharing findings, formatted like the paper's Figure 5:
// the affected object (heap object with allocation callsite, or named
// global), its access/invalidation/write totals, and word-granularity access
// information saying which threads touched which words. Findings are ranked
// by observed (or verified-predicted) cache invalidations, the paper's proxy
// for performance impact.
package report

import (
	"fmt"
	"sort"
	"strings"

	"predator/internal/cacheline"
	"predator/internal/detect"
	"predator/internal/mem"
	"predator/internal/predict"
)

// Sharing classifies the kind of sharing evidenced on a line.
type Sharing int

const (
	// SharingNone means no multi-thread interaction was observed.
	SharingNone Sharing = iota
	// SharingFalse means distinct threads own distinct words with at
	// least one writer: the contention is purely layout-induced.
	SharingFalse
	// SharingTrue means threads contend on the same word(s).
	SharingTrue
	// SharingMixed means both patterns appear on the same line.
	SharingMixed
)

// String names the classification.
func (s Sharing) String() string {
	switch s {
	case SharingNone:
		return "none"
	case SharingFalse:
		return "false sharing"
	case SharingTrue:
		return "true sharing"
	case SharingMixed:
		return "mixed true/false sharing"
	default:
		return fmt.Sprintf("Sharing(%d)", int(s))
	}
}

// Source says how a finding was established.
type Source int

const (
	// SourceObserved findings had invalidations on physical cache lines.
	SourceObserved Source = iota
	// SourcePredictedAlignment findings were verified on a virtual line
	// modelling a different object starting address.
	SourcePredictedAlignment
	// SourcePredictedLineSize findings were verified on a virtual line
	// modelling doubled hardware cache lines.
	SourcePredictedLineSize
)

// String names the source.
func (s Source) String() string {
	switch s {
	case SourceObserved:
		return "observed"
	case SourcePredictedAlignment:
		return "predicted (different object alignment)"
	case SourcePredictedLineSize:
		return "predicted (doubled cache line size)"
	default:
		return fmt.Sprintf("Source(%d)", int(s))
	}
}

// WordDetail is one word's access summary for a finding.
type WordDetail struct {
	Addr   uint64
	Reads  uint64
	Writes uint64
	Owner  int // detect.OwnerShared, detect.OwnerNone, or a thread ID
}

// Classify derives the sharing class from word details: disjoint single-
// owner words from two or more threads with at least one write is false
// sharing; a multi-thread (shared) word with writes on the line is true
// sharing; both at once is mixed.
func Classify(words []WordDetail) Sharing {
	owners := map[int]bool{}
	ownerWrites := false
	shared := false
	for _, w := range words {
		if w.Reads == 0 && w.Writes == 0 {
			continue
		}
		switch {
		case w.Owner == detect.OwnerShared:
			shared = true
		case w.Owner >= 0:
			owners[w.Owner] = true
			if w.Writes > 0 {
				ownerWrites = true
			}
		}
	}
	falseEv := len(owners) >= 2 && ownerWrites
	switch {
	case falseEv && shared:
		return SharingMixed
	case falseEv:
		return SharingFalse
	case shared:
		return SharingTrue
	default:
		return SharingNone
	}
}

// Finding is one detected or predicted sharing problem.
type Finding struct {
	Source  Source
	Sharing Sharing
	Span    cacheline.Virtual // affected physical line or virtual line

	Objects []mem.Object // objects overlapping the span, address order

	Accesses      uint64 // every access to the span, sampled or not
	Reads         uint64 // recorded accesses only (after sampling)
	Writes        uint64 // recorded accesses only (after sampling)
	Invalidations uint64 // observed or verified invalidations
	Estimate      uint64 // predicted findings: pre-verification estimate

	Words []WordDetail

	// Degraded marks a finding whose line was shed to invalidation-
	// counting-only mode by the resource governor: invalidation totals are
	// complete, but word detail (and hence the sharing classification) is
	// frozen at the moment the line was degraded.
	Degraded bool

	// Provenance explains how the finding came to be flagged. Always
	// populated by the core runtime (the causal Chain is never empty);
	// clock-based fields are zero when flight recording was disabled.
	Provenance *Provenance
}

// Provenance is a finding's causal record: when (in access-clock time) the
// line crossed the report threshold, which sampling window that happened in,
// and a digest of the thread interleaving held in the line's flight recorder
// at report time. For predicted findings the Chain walks the §3 pipeline:
// hot-pair estimate, virtual-line registration, verification.
type Provenance struct {
	FlaggedClock uint64 // access-clock tick at which invalidations reached the report threshold (0 when flight recording was off)
	Window       uint64 // sampling-window index (0-based) of the flagging access; observed findings only
	Digest       string // interleaving digest hash of the recorded access tail ("" when no records)
	Threads      []int  // threads present in the recorded tail
	Switches     int    // adjacent-record thread hand-offs in the tail
	Records      int    // records in the tail
	Salvaged     bool   // tail came from a ring frozen at degradation time
	SpanID       string // span ID of the enclosing report span ("" when span tracing was off): links the finding to its agent-side trace waterfall
	Chain        []string
}

// PrimaryObject returns the object carrying the most hot words, defaulting
// to the first overlapping object. ok is false when no object is known.
func (f *Finding) PrimaryObject() (mem.Object, bool) {
	if len(f.Objects) == 0 {
		return mem.Object{}, false
	}
	best, bestScore := 0, uint64(0)
	for i, o := range f.Objects {
		var score uint64
		for _, w := range f.Words {
			if w.Addr >= o.Start && w.Addr < o.End() {
				score += w.Reads + w.Writes
			}
		}
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	return f.Objects[best], true
}

// Format renders the finding in the paper's Figure 5 style.
func (f *Finding) Format(geom cacheline.Geometry) string {
	var b strings.Builder
	label := strings.ToUpper(f.Sharing.String())
	obj, known := f.PrimaryObject()
	switch {
	case known:
		fmt.Fprintf(&b, "%s %s.\n", label, obj.Describe())
	default:
		fmt.Fprintf(&b, "%s RANGE: start 0x%x end 0x%x.\n", label, f.Span.Start, f.Span.End)
	}
	fmt.Fprintf(&b, "Source: %s.\n", f.Source)
	fmt.Fprintf(&b, "Number of accesses: %d; Number of invalidations: %d; Number of writes: %d.\n",
		f.Accesses, f.Invalidations, f.Writes)
	if f.Degraded {
		b.WriteString("NOTE: line was degraded to invalidation-counting-only under resource pressure; word detail is frozen at degradation time.\n")
	}
	if f.Source != SourceObserved {
		fmt.Fprintf(&b, "Virtual line %s; estimated interleaved invalidations: %d.\n",
			f.Span, f.Estimate)
	}
	if p := f.Provenance; p != nil {
		b.WriteString("\nProvenance:\n")
		for _, step := range p.Chain {
			fmt.Fprintf(&b, "\t%s\n", step)
		}
		if p.Records > 0 {
			fmt.Fprintf(&b, "\tinterleaving: %d recorded accesses by threads %v, %d hand-offs, digest %s",
				p.Records, p.Threads, p.Switches, p.Digest)
			if p.Salvaged {
				b.WriteString(" (salvaged at degradation)")
			}
			b.WriteByte('\n')
		}
	}
	if known && !obj.Global && !obj.Callsite.IsZero() {
		b.WriteString("\nCallsite stack:\n")
		b.WriteString(obj.Callsite.Format("\t"))
		b.WriteByte('\n')
	}
	if len(f.Words) > 0 {
		b.WriteString("\nWord level information:\n")
		for _, w := range f.Words {
			if w.Reads == 0 && w.Writes == 0 {
				continue
			}
			owner := ""
			switch {
			case w.Owner == detect.OwnerShared:
				owner = "by multiple threads (shared)"
			case w.Owner >= 0:
				owner = fmt.Sprintf("by thread %d", w.Owner)
			}
			fmt.Fprintf(&b, "\tAddress 0x%x (line %d): reads %d writes %d %s\n",
				w.Addr, geom.Index(w.Addr), w.Reads, w.Writes, owner)
		}
	}
	return b.String()
}

// Report is a ranked collection of findings.
type Report struct {
	Geometry cacheline.Geometry
	Findings []Finding // all findings, ranked by invalidations descending

	// Degraded is true when any detection detail was shed under resource
	// pressure during the run that produced this report (degraded lines or
	// refused virtual-line registrations): findings are sound but possibly
	// incomplete.
	Degraded bool
}

// Rank sorts findings by invalidations descending (the paper ranks reported
// problems by projected performance impact), breaking ties by span start for
// determinism.
func (r *Report) Rank() {
	sort.SliceStable(r.Findings, func(i, j int) bool {
		a, b := &r.Findings[i], &r.Findings[j]
		if a.Invalidations != b.Invalidations {
			return a.Invalidations > b.Invalidations
		}
		return a.Span.Start < b.Span.Start
	})
}

// FalseSharing returns the findings classified as false or mixed sharing —
// what PREDATOR reports to the user.
func (r *Report) FalseSharing() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Sharing == SharingFalse || f.Sharing == SharingMixed {
			out = append(out, f)
		}
	}
	return out
}

// Observed returns findings backed by physical-line invalidations.
func (r *Report) Observed() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Source == SourceObserved {
			out = append(out, f)
		}
	}
	return out
}

// Counts summarizes a report for dashboards and the diagnostics server:
// total findings, how many are false/mixed sharing, and the observed vs
// predicted split.
type Counts struct {
	Findings     int `json:"findings"`
	FalseSharing int `json:"false_sharing"`
	Observed     int `json:"observed"`
	Predicted    int `json:"predicted"`
}

// Counts tallies the report's findings by classification and source.
func (r *Report) Counts() Counts {
	c := Counts{Findings: len(r.Findings)}
	for _, f := range r.Findings {
		if f.Sharing == SharingFalse || f.Sharing == SharingMixed {
			c.FalseSharing++
		}
		if f.Source == SourceObserved {
			c.Observed++
		} else {
			c.Predicted++
		}
	}
	return c
}

// Predicted returns findings established only through virtual lines.
func (r *Report) Predicted() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Source != SourceObserved {
			out = append(out, f)
		}
	}
	return out
}

// String renders the whole report.
func (r *Report) String() string {
	if len(r.Findings) == 0 {
		if r.Degraded {
			return "No false sharing problems detected.\nNOTE: detection detail was shed under resource pressure; the absence of findings is not conclusive.\n"
		}
		return "No false sharing problems detected.\n"
	}
	var b strings.Builder
	if r.Degraded {
		b.WriteString("NOTE: this report was produced under degraded tracking (resource governor active); findings are sound but possibly incomplete.\n\n")
	}
	for i := range r.Findings {
		if i > 0 {
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "--- Finding %d of %d ---\n", i+1, len(r.Findings))
		b.WriteString(r.Findings[i].Format(r.Geometry))
	}
	return b.String()
}

// SourceForKind maps a prediction kind to its finding source.
func SourceForKind(k predict.Kind) Source {
	if k == predict.KindDoubledLine {
		return SourcePredictedLineSize
	}
	return SourcePredictedAlignment
}
