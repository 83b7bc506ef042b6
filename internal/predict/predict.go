// Package predict implements PREDATOR's false sharing prediction (paper §3):
// generalizing one execution to report false sharing that would appear if
// the hardware cache line size doubled or if objects were placed at
// different starting addresses.
//
// The workflow mirrors §3.2: once a line is hot enough, the detailed word
// access information of the line and its neighbours is searched for *hot
// access pairs* — two hot words in adjacent lines, touched by different
// threads, at least one written, close enough to fall into one virtual cache
// line. Each candidate's interleaved invalidations are estimated
// conservatively; pairs estimated above the line's per-word average graduate
// to *verification*: a virtual line is constructed (centered on the pair per
// Figure 4, or the even-aligned doubled line) and real cache invalidations
// on it are counted by a detect.Track over the span — the tracker physical
// detection uses, with the same history-table and sampling rules.
package predict

import (
	"fmt"
	"slices"
	"sync"

	"predator/internal/cacheline"
	"predator/internal/detect"
	"predator/internal/obs"
	"predator/internal/obs/flight"
	"predator/internal/resilience"
)

// Kind says which environmental change a prediction models.
type Kind int

const (
	// KindAlignment predicts false sharing under a different object
	// starting address (same line size, shifted placement).
	KindAlignment Kind = iota
	// KindDoubledLine predicts false sharing on hardware whose cache
	// lines are twice as large.
	KindDoubledLine
)

// String names the prediction kind.
func (k Kind) String() string {
	switch k {
	case KindAlignment:
		return "different object alignment"
	case KindDoubledLine:
		return "doubled cache line size"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// HotWord is one hot access: a word whose recorded access count exceeds its
// line's per-word average, owned by a single thread.
type HotWord struct {
	Addr   uint64 // word-aligned address
	Reads  uint64
	Writes uint64
	Thread int // owning thread (never OwnerShared: shared words are true sharing)
}

// Accesses returns the word's total access count.
func (h HotWord) Accesses() uint64 { return h.Reads + h.Writes }

// HotPair is a candidate predicted false sharing instance.
type HotPair struct {
	X, Y     HotWord           // X in the earlier line, Y in the later
	Span     cacheline.Virtual // the virtual line to verify
	Kind     Kind
	Factor   int    // line-size fusion factor for KindDoubledLine (2, 4, ...)
	Estimate uint64 // conservative interleaved invalidation estimate
}

// EstimateInvalidations bounds the cache invalidations a pair of hot words
// could cause on a shared virtual line, assuming the scheduler interleaves
// the two threads perfectly (the paper's conservative assumption, §3.3). If
// neither side writes there is no invalidation; if one side writes, each of
// its writes can invalidate the other's cached copy, bounded by the slower
// side's access count; if both write, invalidations come from both
// directions.
func EstimateInvalidations(x, y HotWord) uint64 {
	if x.Writes == 0 && y.Writes == 0 {
		return 0
	}
	m := min(x.Accesses(), y.Accesses())
	if x.Writes > 0 && y.Writes > 0 {
		return 2 * m
	}
	return m
}

// hotWords extracts the track's hot single-owner words as HotWords.
// Shared-owner hot words are excluded: simultaneous multi-thread access to
// one word is true sharing and must not be predicted as false sharing.
func hotWords(t *detect.Track) []HotWord {
	if t == nil {
		return nil
	}
	var out []HotWord
	for _, w := range t.HotWords() {
		owner := w.EffectiveOwner()
		if owner < 0 {
			continue
		}
		out = append(out, HotWord{
			Addr:   t.WordAddr(w.Index),
			Reads:  w.Reads,
			Writes: w.Writes,
			Thread: owner,
		})
	}
	return out
}

// pairEligible applies the paper's three §3.3 conditions given that x and y
// already sit in adjacent lines: same virtual line feasible (checked by the
// caller via span construction), at least one write, different threads.
func pairEligible(x, y HotWord) bool {
	return x.Thread != y.Thread && (x.Writes > 0 || y.Writes > 0)
}

// FindPairs searches with the paper's default configuration: alignment
// shifts plus the doubled line size.
func FindPairs(cur, adj *detect.Track, geom cacheline.Geometry) []HotPair {
	return FindPairsFused(cur, adj, geom, []int{2})
}

// FindPairsFused searches for potential false sharing between the tracked
// line cur and one adjacent tracked line adj (either side); line adjacency
// and fused-line alignment are derived from the tracks' base addresses.
// Alignment-change candidates are always produced; for every factor in
// fuseFactors, fused-line-size candidates are produced for line groups that
// would merge on hardware with factor-times-larger lines. Candidates whose
// estimated invalidations do not exceed cur's per-word average access count
// are dropped (paper §3.3).
func FindPairsFused(cur, adj *detect.Track, geom cacheline.Geometry, fuseFactors []int) []HotPair {
	if cur == nil || adj == nil {
		return nil
	}
	curIndex := geom.Index(cur.LineBase())
	adjIndex := geom.Index(adj.LineBase())
	if adjIndex != curIndex+1 && curIndex != adjIndex+1 {
		return nil
	}
	lo, hi := cur, adj
	if adjIndex < curIndex {
		lo, hi = adj, cur
	}
	threshold := cur.AverageWordAccesses()
	var out []HotPair
	for _, x := range hotWords(lo) {
		for _, y := range hotWords(hi) {
			if !pairEligible(x, y) {
				continue
			}
			est := EstimateInvalidations(x, y)
			if float64(est) <= threshold {
				continue
			}
			// Alignment-change candidate: the pair must fit in a
			// single line-sized window.
			if y.Addr-x.Addr < geom.Size() {
				if span, err := cacheline.CenteredLine(x.Addr, y.Addr, geom.Size()); err == nil {
					out = append(out, HotPair{X: x, Y: y, Span: span, Kind: KindAlignment, Estimate: est})
				}
			}
			// Fused-line candidates: only line groups that merge at
			// the factor's alignment fuse (factor 2 = the paper's
			// doubled-line case).
			loIdx := min(curIndex, adjIndex)
			for _, factor := range fuseFactors {
				span := cacheline.FusedLine(geom, loIdx, factor)
				if span.Contains(x.Addr) && span.Contains(y.Addr) {
					out = append(out, HotPair{X: x, Y: y, Span: span, Kind: KindDoubledLine, Factor: factor, Estimate: est})
				}
			}
		}
	}
	return out
}

// VTrack verifies one predicted virtual line (paper §3.4): the embedded
// detect.Track spans the virtual line and counts real cache invalidations
// among the accesses that fall inside it, with the same history-table,
// sampling (§2.4.3) and flight-recording rules as a physical tracked line.
// It keeps no word detail: predicted findings take theirs from the physical
// lines the span covers.
type VTrack struct {
	Pair     HotPair // provenance: the hot pair that created this track
	RegClock uint64  // access-clock tick of registration (0 when flight recording is off)
	*detect.Track
}

// Span returns the tracked virtual line.
func (v *VTrack) Span() cacheline.Virtual { return v.Pair.Span }

// Registry routes accesses to the virtual lines they overlap. Virtual lines
// are registered under every physical line index they intersect, so the
// per-access routing cost is one map lookup.
type Registry struct {
	geom    cacheline.Geometry
	sampler detect.Sampler

	mu     sync.RWMutex
	byLine map[uint64][]*VTrack // physical line index -> overlapping vtracks
	all    []*VTrack
	spans  map[cacheline.Virtual]bool // dedupe: one VTrack per span+kind

	// budget, when non-nil, bounds how many virtual lines may be
	// registered (core.Config.MaxVirtualLines); rejections are counted in
	// the budget and surfaced as degradation events.
	budget *resilience.Budget

	// Flight recording for verification tracks (set before concurrent use;
	// fclock nil when disabled).
	fclock  *flight.Clock
	fdepth  int
	freport uint64 // report threshold captured into each VTrack

	// Observability (nil when unobserved; set before concurrent use).
	o             *obs.Observer
	vlinesG       *obs.Gauge
	vinvC         *obs.Counter
	vrejectC      *obs.Counter
	degradedModeG *obs.Gauge
}

// NewRegistry creates an empty registry under the given physical geometry;
// registered virtual lines sample with the given policy.
func NewRegistry(geom cacheline.Geometry, sampler detect.Sampler) *Registry {
	return &Registry{
		geom:    geom,
		sampler: sampler,
		byLine:  make(map[uint64][]*VTrack),
		spans:   make(map[cacheline.Virtual]bool),
	}
}

// SetObserver wires the registry into an observability layer: a gauge of
// registered virtual lines, a verified-invalidation counter, and — when the
// observer traces — virtual-line creation and invalidation events. Call
// before the registry sees concurrent traffic; a nil observer is a no-op.
func (r *Registry) SetObserver(o *obs.Observer) {
	if o == nil {
		return
	}
	r.o = o
	reg := o.Metrics()
	r.vlinesG = reg.Gauge("predator_virtual_lines",
		"Virtual cache lines registered for prediction verification.")
	r.vinvC = reg.Counter("predator_virtual_invalidations_total",
		"Verified cache invalidations on virtual lines.")
	r.vrejectC = reg.Counter("predator_virtual_line_rejections_total",
		"Virtual line registrations refused by the MaxVirtualLines budget.")
	r.degradedModeG = reg.Gauge("predator_degraded_mode",
		"1 once the runtime has shed any detection detail under resource pressure.")
}

// SetBudget bounds virtual-line registrations (nil removes the bound). Call
// before the registry sees concurrent traffic.
func (r *Registry) SetBudget(b *resilience.Budget) { r.budget = b }

// SetFlight arms flight recording on virtual lines registered from now on:
// each new VTrack gets a ring of depth slots on the shared clock and flags
// itself when verified invalidations reach reportThreshold. Call before the
// registry sees concurrent traffic; a nil clock disables recording.
func (r *Registry) SetFlight(clock *flight.Clock, depth int, reportThreshold uint64) {
	r.fclock = clock
	r.fdepth = depth
	r.freport = reportThreshold
}

// Rejected returns how many registrations the budget has refused.
func (r *Registry) Rejected() uint64 {
	if r.budget == nil {
		return 0
	}
	return r.budget.Rejected()
}

// Add registers a verification track for the pair unless an identical span
// is already tracked or the virtual-line budget is exhausted. It returns the
// registered track, or nil when the span was a duplicate or the registration
// was refused (the refusal is counted and surfaced as a degradation event —
// the §3 prediction detail this run gives up under resource pressure).
func (r *Registry) Add(pair HotPair) *VTrack {
	r.mu.Lock()
	if r.spans[pair.Span] {
		r.mu.Unlock()
		return nil
	}
	if r.budget != nil && !r.budget.Acquire() {
		r.mu.Unlock()
		r.vrejectC.Inc()
		r.degradedModeG.Set(1)
		if r.o.Tracing() {
			r.o.Emit(obs.Event{Type: obs.EvDegradation, Phase: "virtual_reject",
				Start: pair.Span.Start, End: pair.Span.End, Kind: pair.Kind.String(),
				Count: r.budget.Rejected(), Virtual: true})
		}
		return nil
	}
	r.spans[pair.Span] = true
	v := &VTrack{Pair: pair, Track: detect.NewSpanTrack(pair.Span.Start, r.sampler)}
	if r.fclock != nil {
		v.ArmFlight(flight.NewRecorder(r.fclock, r.fdepth))
		v.SetReportThreshold(r.freport)
		v.RegClock = r.fclock.Now()
	}
	r.all = append(r.all, v)
	first := r.geom.Index(pair.Span.Start)
	last := r.geom.Index(pair.Span.End - 1)
	for l := first; l <= last; l++ {
		r.byLine[l] = append(r.byLine[l], v)
	}
	r.mu.Unlock()
	r.vlinesG.Add(1)
	if r.o.Tracing() {
		r.o.Emit(obs.Event{Type: obs.EvVirtualLine, Start: pair.Span.Start, End: pair.Span.End,
			Count: pair.Estimate, Kind: pair.Kind.String()})
	}
	return v
}

// Route forwards an access to every virtual line it overlaps. It returns
// the number of virtual-line invalidations the access caused.
func (r *Registry) Route(tid int, addr, size uint64, isWrite bool) int {
	r.mu.RLock()
	tracks := r.byLine[r.geom.Index(addr)]
	var spill []*VTrack
	if size > 0 && r.geom.Index(addr) != r.geom.Index(addr+size-1) {
		spill = r.byLine[r.geom.Index(addr+size-1)]
	}
	r.mu.RUnlock()
	inv := 0
	for _, v := range tracks {
		if v.Pair.Span.Overlaps(addr, size) && v.Track.HandleAccess(tid, addr, size, isWrite) {
			inv++
		}
	}
	for _, v := range spill {
		// Avoid double-handling tracks registered under both lines.
		if !slices.Contains(tracks, v) && v.Pair.Span.Overlaps(addr, size) && v.Track.HandleAccess(tid, addr, size, isWrite) {
			inv++
		}
	}
	if inv > 0 && r.o != nil {
		r.vinvC.Add(uint64(inv))
		if r.o.Tracing() {
			r.o.Emit(obs.Event{Type: obs.EvInvalidation, TID: tid, Addr: addr,
				Count: uint64(inv), Virtual: true})
		}
	}
	return inv
}

// VSnapshot is an immutable point-in-time copy of one virtual line's
// verification state, shaped for the live diagnostics API (JSON field names
// are part of the /hotlines schema).
type VSnapshot struct {
	Start         uint64 `json:"start"`            // span start address
	End           uint64 `json:"end"`              // span end (exclusive)
	Kind          string `json:"kind"`             // Kind.String()
	Factor        int    `json:"factor,omitempty"` // fusion factor (doubled-line kinds)
	Estimate      uint64 `json:"estimate"`         // conservative invalidation estimate (§3.3)
	Accesses      uint64 `json:"accesses"`         // accesses overlapping the span
	Recorded      uint64 `json:"recorded"`         // post-sampling recorded accesses
	Invalidations uint64 `json:"invalidations"`    // verified invalidations (§3.4)
}

// snapshotOf copies one VTrack's counters.
func snapshotOf(v *VTrack) VSnapshot {
	return VSnapshot{
		Start:         v.Pair.Span.Start,
		End:           v.Pair.Span.End,
		Kind:          v.Pair.Kind.String(),
		Factor:        v.Pair.Factor,
		Estimate:      v.Pair.Estimate,
		Accesses:      v.Accesses(),
		Recorded:      v.Recorded(),
		Invalidations: v.Invalidations(),
	}
}

// SnapshotsOverlapping returns snapshots of every virtual line overlapping
// the address range [start, end), deduplicated (a virtual line spanning two
// physical lines appears once). Safe for concurrent use with Route/Add.
func (r *Registry) SnapshotsOverlapping(start, end uint64) []VSnapshot {
	if end <= start {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []VSnapshot
	seen := make(map[*VTrack]bool)
	for l := r.geom.Index(start); l <= r.geom.Index(end-1); l++ {
		for _, v := range r.byLine[l] {
			if seen[v] {
				continue
			}
			seen[v] = true
			out = append(out, snapshotOf(v))
		}
	}
	return out
}

// Snapshots returns snapshots of every registered virtual line in
// registration order.
func (r *Registry) Snapshots() []VSnapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]VSnapshot, len(r.all))
	for i, v := range r.all {
		out[i] = snapshotOf(v)
	}
	return out
}

// Empty reports whether no virtual lines are registered.
func (r *Registry) Empty() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.all) == 0
}

// Tracks returns all registered verification tracks.
func (r *Registry) Tracks() []*VTrack {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*VTrack, len(r.all))
	copy(out, r.all)
	return out
}
