// Package core is PREDATOR's runtime system (paper §2.3, §2.4, §3): it
// receives every instrumented memory access and composes the substrates —
// shadow memory, two-entry history tables, detailed word tracking with
// sampling, and virtual-line prediction — into the paper's detection and
// prediction pipeline:
//
//  1. Count writes per cache line in shadow memory (cheap pre-phase).
//  2. At TrackingThreshold, install detailed tracking for the line — and,
//     when prediction is on, for its adjacent lines (§3.2 step 2).
//  3. At PredictionThreshold, search the line and its neighbours for hot
//     access pairs and register centered/doubled virtual lines (§3.3).
//  4. Verify predictions by counting real invalidations on the virtual
//     lines (§3.4).
//  5. Report() distills everything into ranked findings and quarantines
//     falsely-shared objects against reuse.
package core

import (
	"context"
	"fmt"
	"runtime/pprof"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"predator/internal/cacheline"
	"predator/internal/detect"
	"predator/internal/mem"
	"predator/internal/obs"
	"predator/internal/obs/flight"
	"predator/internal/obs/spans"
	"predator/internal/predict"
	"predator/internal/report"
	"predator/internal/resilience"
	"predator/internal/shadow"
)

// Default thresholds. The paper names the TrackingThreshold and a 1%
// sampling rate (10,000 recorded out of every 1,000,000 accesses); the
// remaining defaults follow its "large number of invalidations" guidance.
const (
	DefaultTrackingThreshold   = 100
	DefaultPredictionThreshold = 200
	DefaultReportThreshold     = 1000
	DefaultSampleWindow        = 1_000_000
	DefaultSampleBurst         = 10_000
)

// FlightDisabled as Config.FlightDepth turns flight recording off entirely.
// The zero value means "enabled at the default depth" so existing Config
// literals gain provenance and timelines without opting in.
const FlightDisabled = -1

// Config tunes the runtime. Use DefaultConfig as the baseline.
type Config struct {
	// TrackingThreshold is the per-line write count that triggers
	// detailed tracking (paper §2.4.1).
	TrackingThreshold uint64
	// PredictionThreshold is the per-line recorded write count that
	// triggers the hot-pair search (paper §3.2 step 3).
	PredictionThreshold uint64
	// ReportThreshold is the minimum number of (verified) invalidations
	// for a line or virtual line to be reported.
	ReportThreshold uint64
	// SampleWindow/SampleBurst configure per-line sampling (§2.4.3):
	// only the first SampleBurst accesses of every SampleWindow are
	// recorded. SampleWindow = 0 disables sampling (record everything).
	SampleWindow uint64
	SampleBurst  uint64
	// Prediction enables virtual-line false sharing prediction (§3).
	// Corresponds to PREDATOR vs PREDATOR-NP in the paper's evaluation.
	Prediction bool
	// MaxTrackedLines bounds how many cache lines may hold detailed word
	// tracking at once — the resource governor's budget for the paper's
	// §2.4.1 per-line state. 0 (the zero value) means unlimited, the
	// paper's behavior; any value >= 1 enforces the bound by degrading the
	// coldest tracked line (fewest invalidations, never a report-worthy
	// one) to invalidation-counting-only mode when a new line is promoted.
	// Negative values are rejected by Validate.
	MaxTrackedLines int
	// MaxVirtualLines bounds how many virtual lines (§3) the prediction
	// registry may hold. 0 (the zero value) means unlimited; any value
	// >= 1 makes the registry refuse further registrations, counting each
	// rejection. Negative values are rejected by Validate.
	MaxVirtualLines int
	// LineSizeFactors selects which larger-line geometries prediction
	// models; each must be a power of two > 1. Empty means {2}, the
	// paper's doubled-line case.
	LineSizeFactors []int
	// FlightDepth sizes the per-tracked-line flight recorder ring (rounded
	// up to a power of two, clamped to flight.MaxDepth). 0 (the zero value)
	// selects flight.DefaultDepth — recorders are armed whenever a line is
	// promoted to detailed tracking, so findings carry provenance and
	// timelines by default. FlightDisabled (-1) turns recording off; other
	// negative values are rejected by Validate.
	FlightDepth int
	// Observer, when non-nil, receives runtime metrics and — when it has
	// an event sink — lifecycle trace events. The nil default leaves the
	// fast path uninstrumented.
	Observer *obs.Observer
}

// Validate rejects configurations that cannot work: a sampling burst larger
// than its window, or a zero tracking threshold (the pre-phase would never
// count anything before installing tracks, defeating its purpose).
func (c Config) Validate() error {
	if c.TrackingThreshold == 0 {
		return fmt.Errorf("core: TrackingThreshold must be positive")
	}
	if c.SampleWindow > 0 && c.SampleBurst > c.SampleWindow {
		return fmt.Errorf("core: SampleBurst %d exceeds SampleWindow %d", c.SampleBurst, c.SampleWindow)
	}
	if c.SampleWindow > 0 && c.SampleBurst == 0 {
		return fmt.Errorf("core: sampling enabled with zero SampleBurst records nothing")
	}
	for _, f := range c.LineSizeFactors {
		if f < 2 || f&(f-1) != 0 {
			return fmt.Errorf("core: line size factor %d must be a power of two > 1", f)
		}
	}
	if c.MaxTrackedLines < 0 {
		return fmt.Errorf("core: MaxTrackedLines must be 0 (unlimited) or >= 1, got %d", c.MaxTrackedLines)
	}
	if c.MaxVirtualLines < 0 {
		return fmt.Errorf("core: MaxVirtualLines must be 0 (unlimited) or >= 1, got %d", c.MaxVirtualLines)
	}
	if c.FlightDepth < FlightDisabled {
		return fmt.Errorf("core: FlightDepth must be FlightDisabled (-1), 0 (default), or a positive depth, got %d", c.FlightDepth)
	}
	return nil
}

// fuseFactors returns the effective prediction fusion factors.
func (c Config) fuseFactors() []int {
	if len(c.LineSizeFactors) == 0 {
		return []int{2}
	}
	return c.LineSizeFactors
}

// ElideMargin returns the static-elision keep-out margin in whole lines for
// this configuration: the largest effective fusion factor minus one, so an
// elided access can never share a physical or predicted virtual line with a
// neighbouring object (elide.NewBinder).
func (c Config) ElideMargin() int { return slices.Max(c.fuseFactors()) - 1 }

// DefaultConfig returns the paper's default configuration with prediction
// enabled.
func DefaultConfig() Config {
	return Config{
		TrackingThreshold:   DefaultTrackingThreshold,
		PredictionThreshold: DefaultPredictionThreshold,
		ReportThreshold:     DefaultReportThreshold,
		SampleWindow:        DefaultSampleWindow,
		SampleBurst:         DefaultSampleBurst,
		Prediction:          true,
	}
}

// Runtime is the PREDATOR runtime attached to one simulated heap.
type Runtime struct {
	cfg  Config
	heap *mem.Heap
	geom cacheline.Geometry

	mapping shadow.Mapping
	sh      *shadow.Memory[detect.Track]
	sampler detect.Sampler

	vreg          *predict.Registry
	vactive       atomic.Bool     // fast-path gate: any virtual lines registered?
	predictedBits []atomic.Uint32 // one bit per line: hot-pair search already ran

	// Span tracing: parent is the enclosing pipeline span detector-phase
	// spans (predict.search, report.collect) nest under. The harness swaps
	// it at phase boundaries via SetSpan; nil (or a nil observer tracer)
	// leaves the detector span-free. The pad keeps these phase-boundary
	// writes off the line of vactive, which every access reads.
	_          [24]byte
	spanParent atomic.Pointer[spans.Span]

	// Flight recording (tentpole: causal timeline tracing). fclock is nil
	// when FlightDepth == FlightDisabled; otherwise every promoted line and
	// registered virtual line is armed with a ring of fdepth slots on this
	// shared clock. phases is the detector-phase journal in clock time
	// (prediction searches, report generation), mutex-appended off the hot
	// path.
	fclock *flight.Clock
	fdepth int
	phMu   sync.Mutex
	phases []flight.PhaseSpan

	// predlint padcheck: pads keep each contended counter on its own cache line.
	_             [8]byte
	totalAccesses atomic.Uint64
	_             [56]byte
	totalWrites   atomic.Uint64

	// Resource governor (tentpole: graceful degradation). trackBudget is
	// nil when MaxTrackedLines is unlimited; otherwise every non-degraded
	// tracked line holds one slot, and promotion past the budget degrades
	// the coldest line under govMu.
	trackBudget   *resilience.Budget
	govMu         sync.Mutex
	_             [40]byte
	evictions     atomic.Uint64
	_             [56]byte
	degradedLines atomic.Int64

	// Observability (nil when cfg.Observer is nil; every instrument method
	// is nil-safe, so the fast path stays branch-light when unobserved).
	// Hot-path counters are batched: the access path syncs the registry only
	// every obs.SyncBatch-th event, and flushMetrics pushes exact totals at
	// snapshot points, so attaching a metrics-only observer costs one
	// predictable branch per access instead of atomic adds.
	obs            *obs.Observer
	self           *obs.SelfProfiler // sampled hot-path self-timing; usually nil
	_              [40]byte
	obsInvs        atomic.Uint64 // invalidations seen while observed
	pushedAccesses atomic.Uint64
	pushedWrites   atomic.Uint64
	pushedInvs     atomic.Uint64
	accessesC      *obs.Counter
	writesC        *obs.Counter
	invC           *obs.Counter
	promotionsC    *obs.Counter
	hotPairsC      *obs.Counter
	trackedG       *obs.Gauge
	evictionsC     *obs.Counter
	degradedG      *obs.Gauge
	degradedModeG  *obs.Gauge
	predictH       *obs.Histogram
	reportH        *obs.Histogram
	lineInvH       *obs.Histogram
}

// NewRuntime attaches a runtime to a heap. It installs the heap's free hook
// so metadata of unflagged freed objects is recycled (paper §2.3.2).
func NewRuntime(h *mem.Heap, cfg Config) (*Runtime, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	geom := h.Geometry()
	mapping, err := shadow.NewMapping(h.Base(), h.Size(), geom)
	if err != nil {
		return nil, err
	}
	sampler := detect.Sampler{Window: cfg.SampleWindow, Burst: cfg.SampleBurst}
	rt := &Runtime{
		cfg:           cfg,
		heap:          h,
		geom:          geom,
		mapping:       mapping,
		sh:            shadow.NewMemory[detect.Track](mapping),
		sampler:       sampler,
		vreg:          predict.NewRegistry(geom, sampler),
		predictedBits: make([]atomic.Uint32, (mapping.Lines()+31)/32),
	}
	if cfg.MaxTrackedLines > 0 {
		rt.trackBudget = resilience.NewBudget(cfg.MaxTrackedLines)
	}
	if cfg.MaxVirtualLines > 0 {
		rt.vreg.SetBudget(resilience.NewBudget(cfg.MaxVirtualLines))
	}
	if cfg.FlightDepth != FlightDisabled {
		rt.fclock = &flight.Clock{}
		rt.fdepth = flight.RoundDepth(cfg.FlightDepth)
		rt.vreg.SetFlight(rt.fclock, rt.fdepth, cfg.ReportThreshold)
	}
	h.AddFreeHook(rt.onFree)
	if o := cfg.Observer; o != nil {
		rt.obs = o
		rt.self = o.Self()
		reg := o.Metrics()
		rt.accessesC = reg.Counter("predator_accesses_total",
			"Memory accesses delivered to the runtime.")
		rt.writesC = reg.Counter("predator_writes_total",
			"Write accesses delivered to the runtime.")
		rt.invC = reg.Counter("predator_invalidations_total",
			"Cache invalidations observed on tracked physical lines.")
		rt.promotionsC = reg.Counter("predator_track_promotions_total",
			"Cache lines promoted to detailed tracking.")
		rt.hotPairsC = reg.Counter("predator_hot_pairs_total",
			"Hot access pairs found by the prediction search.")
		rt.trackedG = reg.Gauge("predator_tracked_lines",
			"Cache lines currently under detailed tracking.")
		rt.evictionsC = reg.Counter("predator_track_evictions_total",
			"Tracked lines degraded to invalidation-counting-only by the resource governor.")
		rt.degradedG = reg.Gauge("predator_degraded_lines",
			"Cache lines currently in invalidation-counting-only (degraded) mode.")
		rt.degradedModeG = reg.Gauge("predator_degraded_mode",
			"1 once the runtime has shed any detection detail under resource pressure.")
		rt.predictH = reg.Histogram("predator_prediction_seconds",
			"Hot-pair search latency per triggered line.",
			[]float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2})
		rt.reportH = reg.Histogram("predator_report_seconds",
			"Report generation latency.",
			[]float64{1e-4, 1e-3, 1e-2, 1e-1, 1})
		rt.lineInvH = reg.Histogram("predator_line_invalidations",
			"Distribution of invalidation counts across tracked lines at report time.",
			[]float64{1, 10, 100, 1000, 10000, 100000})
		rt.vreg.SetObserver(o)
	}
	return rt, nil
}

// Heap returns the runtime's heap.
func (rt *Runtime) Heap() *mem.Heap { return rt.heap }

// SetSpan installs the pipeline span that detector-phase spans (prediction
// searches, report generation) nest under. The harness points it at the
// workload span for the run's duration and at the run span for the final
// report. Nil detaches.
func (rt *Runtime) SetSpan(s *spans.Span) { rt.spanParent.Store(s) }

// tracer returns the observer's span tracer (nil when tracing is off).
func (rt *Runtime) tracer() *spans.Tracer {
	if rt.obs == nil {
		return nil
	}
	return rt.obs.Spans()
}

// Config returns the runtime's configuration.
func (rt *Runtime) Config() Config { return rt.cfg }

// HandleAccess is the instrumentation entry point (paper Figure 1): one
// memory access of the given size by thread tid. Accesses spanning line
// boundaries are split across the lines they touch. Accesses outside the
// simulated heap are ignored.
func (rt *Runtime) HandleAccess(tid int, addr, size uint64, isWrite bool) {
	if size == 0 {
		return
	}
	n := rt.totalAccesses.Add(1)
	if n&(obs.SyncBatch-1) == 0 {
		obs.SyncCounter(rt.accessesC, n, &rt.pushedAccesses)
		if rt.self != nil {
			// Self-profiling times one full access per SyncBatch: the
			// histogram mean approximates the per-access instrumented cost
			// while the other SyncBatch-1 accesses pay only the nil check.
			began := time.Now()
			rt.dispatch(tid, addr, size, isWrite)
			rt.self.ObserveTrack(time.Since(began))
			return
		}
	}
	rt.dispatch(tid, addr, size, isWrite)
}

// dispatch routes one access through write counting, the per-line detection
// path, and — when virtual lines are active — prediction verification.
func (rt *Runtime) dispatch(tid int, addr, size uint64, isWrite bool) {
	if isWrite {
		nw := rt.totalWrites.Add(1)
		if nw&(obs.SyncBatch-1) == 0 {
			obs.SyncCounter(rt.writesC, nw, &rt.pushedWrites)
		}
	}
	first, ok := rt.mapping.Index(addr)
	if !ok {
		return
	}
	last, ok := rt.mapping.Index(addr + size - 1)
	if !ok {
		last = first
	}
	for line := first; line <= last; line++ {
		rt.handleLine(tid, line, addr, size, isWrite)
	}
	if rt.cfg.Prediction && rt.vactive.Load() {
		rt.vreg.Route(tid, addr, size, isWrite)
	}
}

// handleLine applies one access to one covered line.
func (rt *Runtime) handleLine(tid int, line uint64, addr, size uint64, isWrite bool) {
	track := rt.sh.Track(line)
	if track == nil {
		// Pre-tracking phase: count writes only (§2.4.1).
		if rt.sh.Writes(line) < rt.cfg.TrackingThreshold {
			if !isWrite {
				return
			}
			if rt.sh.IncWrites(line) < rt.cfg.TrackingThreshold {
				return
			}
		}
		track = rt.installTrack(line)
	}
	if track.HandleAccess(tid, addr, size, isWrite) {
		if rt.obs != nil {
			ti := rt.obsInvs.Add(1)
			if ti&(obs.SyncBatch-1) == 0 {
				obs.SyncCounter(rt.invC, ti, &rt.pushedInvs)
			}
			if rt.obs.Tracing() {
				rt.obs.Emit(obs.Event{Type: obs.EvInvalidation, TID: tid, Addr: addr,
					Line: line, Count: track.Invalidations()})
			}
		}
	}
	if rt.cfg.Prediction && isWrite &&
		track.Writes() >= rt.cfg.PredictionThreshold &&
		rt.markPredicted(line) {
		rt.runPrediction(line, track)
	}
}

// installTrack creates detailed tracking for a line, and — when prediction
// is enabled — for its neighbours, so word-level information accumulates on
// the adjacent lines too (§3.2 step 2).
func (rt *Runtime) installTrack(line uint64) *detect.Track {
	t := rt.installOne(line)
	if rt.cfg.Prediction {
		if line > 0 && rt.sh.Track(line-1) == nil {
			rt.installOne(line - 1)
		}
		if line+1 < rt.mapping.Lines() && rt.sh.Track(line+1) == nil {
			rt.installOne(line + 1)
		}
	}
	return t
}

// installOne installs tracking for a single line, recording the promotion
// only when this caller's track won the install race (InstallTrack returns
// the existing track when another goroutine got there first).
func (rt *Runtime) installOne(line uint64) *detect.Track {
	fresh := detect.NewTrackObserved(rt.mapping.LineBase(line), rt.geom, rt.sampler, rt.obs)
	fresh.SetReportThreshold(rt.cfg.ReportThreshold)
	if rt.fclock != nil {
		// Arming rule: recorders exist only on promoted lines, created
		// before publication so the hot path never sees a half-armed track.
		fresh.ArmFlight(flight.NewRecorder(rt.fclock, rt.fdepth))
	}
	t := rt.sh.InstallTrack(line, fresh)
	if t == fresh {
		rt.promotionsC.Inc()
		rt.trackedG.Add(1)
		if rt.obs.Tracing() {
			rt.obs.Emit(obs.Event{Type: obs.EvTrackPromoted, Line: line,
				Addr: rt.mapping.LineBase(line), Count: rt.sh.Writes(line)})
		}
		rt.governAdmit(line, fresh)
	}
	return t
}

// governAdmit charges a freshly installed track against the tracked-line
// budget. When the budget is exhausted it degrades the coldest evictable
// line to invalidation-counting-only mode to free a slot; if every other
// line is report-worthy (its invalidations already crossed ReportThreshold —
// a finding in progress the paper would report), the fresh line itself
// enters tracking degraded instead. Either way detection continues, with
// the loss of detail accounted in metrics, events, and Stats.
func (rt *Runtime) governAdmit(line uint64, fresh *detect.Track) {
	if rt.trackBudget == nil {
		return
	}
	if rt.trackBudget.Acquire() {
		return
	}
	rt.govMu.Lock()
	defer rt.govMu.Unlock()
	// Concurrent promotions race for freed slots outside govMu, so keep
	// evicting until this line holds one. The loop terminates: each pass
	// either acquires or permanently degrades one line.
	for !rt.trackBudget.Acquire() {
		victim, vline, ok := rt.coldestEvictable(line)
		if !ok {
			fresh.Degrade()
			rt.noteDegraded(line, "degrade_new")
			return
		}
		victim.Degrade()
		rt.noteDegraded(vline, "evict")
		rt.trackBudget.Release()
	}
}

// coldestEvictable picks the governor's eviction victim: the non-degraded
// tracked line (other than the one being admitted) with the fewest
// invalidations, breaking ties by total accesses. Lines at or above
// ReportThreshold are never evicted — they are findings in progress.
func (rt *Runtime) coldestEvictable(exclude uint64) (victim *detect.Track, vline uint64, ok bool) {
	rt.sh.ForEachTracked(func(line uint64, t *detect.Track) {
		if line == exclude || t.Degraded() {
			return
		}
		inv := t.Invalidations()
		if inv >= rt.cfg.ReportThreshold {
			return
		}
		if victim == nil || inv < victim.Invalidations() ||
			(inv == victim.Invalidations() && t.Accesses() < victim.Accesses()) {
			victim, vline = t, line
		}
	})
	return victim, vline, victim != nil
}

// noteDegraded accounts one line's degradation in metrics and events.
func (rt *Runtime) noteDegraded(line uint64, phase string) {
	n := rt.degradedLines.Add(1)
	rt.trackedG.Add(-1)
	rt.degradedG.Add(1)
	rt.degradedModeG.Set(1)
	if phase == "evict" {
		rt.evictions.Add(1)
		rt.evictionsC.Inc()
	}
	if rt.obs.Tracing() {
		rt.obs.Emit(obs.Event{Type: obs.EvDegradation, Phase: phase, Line: line,
			Addr: rt.mapping.LineBase(line), Count: uint64(n)})
	}
}

// markPredicted sets the line's prediction-done bit; it returns true only
// for the caller that flipped the bit.
func (rt *Runtime) markPredicted(line uint64) bool {
	word := &rt.predictedBits[line/32]
	bit := uint32(1) << (line % 32)
	for {
		old := word.Load()
		if old&bit != 0 {
			return false
		}
		if word.CompareAndSwap(old, old|bit) {
			return true
		}
	}
}

// runPrediction searches the line and its neighbours for hot access pairs
// and registers virtual lines for verification. The work runs under the
// pprof label predator_phase=prediction so CPU profiles attribute the §3.3
// search separately from instrumentation cost.
func (rt *Runtime) runPrediction(line uint64, track *detect.Track) {
	var start time.Time
	if rt.obs != nil {
		start = time.Now()
	}
	psp := rt.tracer().Start("predict.search", rt.spanParent.Load())
	psp.SetAttr("line", line)
	tickStart := rt.fclock.Now()
	var pairs int
	pprof.Do(context.Background(), pprof.Labels("predator_phase", "prediction"),
		func(context.Context) { pairs = rt.predictLine(line, track) })
	rt.notePhase("prediction", line, tickStart)
	psp.SetAttr("hot_pairs", uint64(pairs))
	psp.End()
	if rt.obs != nil {
		rt.predictH.Observe(time.Since(start).Seconds())
	}
}

// notePhase journals one detector-phase interval in access-clock time, named
// with the same predator_phase labels the pprof integration uses so profiles
// and timelines line up. No-op when flight recording is disabled.
func (rt *Runtime) notePhase(name string, line, start uint64) {
	if rt.fclock == nil {
		return
	}
	span := flight.PhaseSpan{Name: name, Line: line, Start: start, End: rt.fclock.Now()}
	rt.phMu.Lock()
	rt.phases = append(rt.phases, span)
	rt.phMu.Unlock()
}

// phaseSpans copies the phase journal, prefixed with the synthetic
// whole-run workload span (tick 1 to now).
func (rt *Runtime) phaseSpans() []flight.PhaseSpan {
	if rt.fclock == nil {
		return nil
	}
	rt.phMu.Lock()
	defer rt.phMu.Unlock()
	out := make([]flight.PhaseSpan, 0, len(rt.phases)+1)
	if now := rt.fclock.Now(); now > 0 {
		out = append(out, flight.PhaseSpan{Name: "workload", Start: 1, End: now})
	}
	return append(out, rt.phases...)
}

// predictLine is runPrediction's body: the §3.3 hot-pair search over the
// line and its neighbours. It returns how many hot pairs it found.
func (rt *Runtime) predictLine(line uint64, track *detect.Track) int {
	registered := false
	pairs := 0
	for _, adj := range []uint64{line - 1, line + 1} {
		if adj >= rt.mapping.Lines() { // also catches line-1 underflow at line 0
			continue
		}
		adjTrack := rt.sh.Track(adj)
		for _, pair := range predict.FindPairsFused(track, adjTrack, rt.geom, rt.cfg.fuseFactors()) {
			pairs++
			rt.hotPairsC.Inc()
			if rt.obs.Tracing() {
				rt.obs.Emit(obs.Event{Type: obs.EvHotPair, Line: line,
					Start: pair.Span.Start, End: pair.Span.End,
					Count: pair.Estimate, Kind: pair.Kind.String()})
			}
			if rt.vreg.Add(pair) != nil {
				registered = true
			}
		}
	}
	if registered {
		rt.vactive.Store(true)
	}
	return pairs
}

// onFree recycles shadow metadata for the freed object's lines: a line is
// reset only if no other live object overlaps it, so neighbours' history is
// preserved. Flagged objects never reach this hook (they are quarantined).
func (rt *Runtime) onFree(start, size uint64) {
	if size == 0 {
		return
	}
	first, ok := rt.mapping.Index(start)
	if !ok {
		return
	}
	last, ok := rt.mapping.Index(start + size - 1)
	if !ok {
		last = first
	}
	for line := first; line <= last; line++ {
		lineBase := rt.mapping.LineBase(line)
		others := rt.heap.ObjectsOverlapping(lineBase, lineBase+rt.geom.Size())
		if len(others) > 0 {
			continue
		}
		rt.sh.ResetWrites(line)
		if t := rt.sh.Track(line); t != nil {
			t.Reset()
		}
	}
}

// flushMetrics pushes the exact totals behind the batched hot-path counters
// into the registry, so exported snapshots are exact whenever anyone looks
// (heartbeats between flushes may lag by up to obs.SyncBatch-1 events).
func (rt *Runtime) flushMetrics() {
	if rt.obs == nil {
		return
	}
	obs.SyncCounter(rt.accessesC, rt.totalAccesses.Load(), &rt.pushedAccesses)
	obs.SyncCounter(rt.writesC, rt.totalWrites.Load(), &rt.pushedWrites)
	obs.SyncCounter(rt.invC, rt.obsInvs.Load(), &rt.pushedInvs)
	rt.sh.ForEachTracked(func(_ uint64, t *detect.Track) { t.FlushMetrics() })
}

// wordsForSpan gathers word details from all tracked lines overlapping a
// span, clipped to the span.
func (rt *Runtime) wordsForSpan(span cacheline.Virtual) []report.WordDetail {
	var out []report.WordDetail
	first, ok := rt.mapping.Index(span.Start)
	if !ok {
		return nil
	}
	last, ok := rt.mapping.Index(span.End - 1)
	if !ok {
		last = first
	}
	for line := first; line <= last; line++ {
		t := rt.sh.Track(line)
		if t == nil {
			continue
		}
		for _, w := range t.Words() {
			addr := t.WordAddr(w.Index)
			if !span.Overlaps(addr, cacheline.WordSize) {
				continue
			}
			out = append(out, report.WordDetail{
				Addr:   addr,
				Reads:  w.Reads,
				Writes: w.Writes,
				Owner:  w.EffectiveOwner(),
			})
		}
	}
	return out
}

// Report distills the runtime's state into a ranked report. Objects named
// in false sharing findings are flagged in the heap so their memory is
// never reused. The distillation runs under the pprof label
// predator_phase=report so CPU profiles attribute report generation
// separately from instrumentation cost.
func (rt *Runtime) Report() *report.Report {
	var began time.Time
	if rt.obs != nil {
		began = time.Now()
	}
	var rep *report.Report
	rsp := rt.tracer().Start("report.collect", rt.spanParent.Load())
	tickStart := rt.fclock.Now()
	pprof.Do(context.Background(), pprof.Labels("predator_phase", "report"),
		func(context.Context) { rep = rt.collectReport(true, rsp) })
	rt.notePhase("report", 0, tickStart)
	rsp.SetAttr("findings", uint64(len(rep.Findings)))
	rsp.End()
	if rt.obs != nil {
		rt.reportH.Observe(time.Since(began).Seconds())
		if rt.obs.Tracing() {
			rt.obs.Emit(obs.Event{Type: obs.EvReport, Count: uint64(len(rep.Findings))})
		}
	}
	return rep
}

// Provisional builds the same ranked report as Report but without side
// effects: no objects are quarantined, no verification or report events are
// emitted, and no report-time histograms are observed. It is safe to call
// repeatedly during a live run — the diagnostics server serves it from
// /findings — and leaves the eventual final Report unchanged.
func (rt *Runtime) Provisional() *report.Report {
	return rt.collectReport(false, nil)
}

// collectReport walks the tracked and virtual lines and distills findings.
// final gates the mutating and emitting behaviour reserved for the one
// end-of-run Report: quarantining falsely-shared objects, verification
// events, and the line-invalidation histogram. sp, when non-nil, is the
// enclosing report span: verification outcomes are counted on it, and every
// finding's provenance is stamped with its span ID so a fleet finding links
// back to the agent-side trace.
func (rt *Runtime) collectReport(final bool, sp *spans.Span) *report.Report {
	rt.flushMetrics()
	rep := &report.Report{Geometry: rt.geom}

	// Observed findings: tracked physical lines above the threshold.
	rt.sh.ForEachTracked(func(line uint64, t *detect.Track) {
		if final {
			rt.lineInvH.Observe(float64(t.Invalidations()))
		}
		if t.Invalidations() < rt.cfg.ReportThreshold {
			return
		}
		span := cacheline.NewVirtual(rt.mapping.LineBase(line), rt.geom.Size())
		words := rt.wordsForSpan(span)
		rep.Findings = append(rep.Findings, report.Finding{
			Source:        report.SourceObserved,
			Sharing:       report.Classify(words),
			Span:          span,
			Objects:       rt.heap.ObjectsOverlapping(span.Start, span.End),
			Accesses:      t.Accesses(),
			Reads:         t.Reads(),
			Writes:        t.Writes(),
			Invalidations: t.Invalidations(),
			Words:         words,
			Degraded:      t.Degraded(),
			Provenance:    rt.observedProvenance(t),
		})
	})

	// Predicted findings: verified virtual lines above the threshold.
	for _, v := range rt.vreg.Tracks() {
		if v.Invalidations() >= rt.cfg.ReportThreshold {
			sp.AddAttr("verified", 1)
		} else {
			sp.AddAttr("rejected", 1)
		}
		if final && rt.obs.Tracing() {
			phase := "rejected"
			if v.Invalidations() >= rt.cfg.ReportThreshold {
				phase = "verified"
			}
			span := v.Span()
			rt.obs.Emit(obs.Event{Type: obs.EvVerification, Phase: phase,
				Start: span.Start, End: span.End, Count: v.Invalidations(),
				Kind: v.Pair.Kind.String(), Virtual: true})
		}
		if v.Invalidations() < rt.cfg.ReportThreshold {
			continue
		}
		span := v.Span()
		words := rt.wordsForSpan(span)
		rep.Findings = append(rep.Findings, report.Finding{
			Source:        report.SourceForKind(v.Pair.Kind),
			Sharing:       report.Classify(words),
			Span:          span,
			Objects:       rt.heap.ObjectsOverlapping(span.Start, span.End),
			Accesses:      v.Accesses(),
			Invalidations: v.Invalidations(),
			Estimate:      v.Pair.Estimate,
			Words:         words,
			Provenance:    rt.predictedProvenance(v),
		})
	}

	rep.Degraded = rt.degradedLines.Load() > 0 || rt.vreg.Rejected() > 0
	rep.Rank()

	if id := sp.ID(); !id.IsZero() {
		for _, f := range rep.Findings {
			if f.Provenance != nil {
				f.Provenance.SpanID = id.String()
			}
		}
	}

	if final {
		// Quarantine falsely-shared objects against reuse.
		for _, f := range rep.FalseSharing() {
			for _, o := range f.Objects {
				if !o.Global {
					rt.heap.FlagObject(o.Start)
				}
			}
		}
	}
	return rep
}

// Stats summarizes runtime activity.
type Stats struct {
	Accesses             uint64 // accesses delivered to the runtime
	Writes               uint64 // write accesses delivered
	TrackedLines         int    // lines with detailed tracking installed
	VirtualLines         int    // virtual lines registered for verification
	Invalidations        uint64 // invalidations observed on tracked physical lines
	VirtualInvalidations uint64 // invalidations verified on virtual lines
	SampledAccesses      uint64 // accesses recorded in detail (post-sampling)

	// Resource-governor accounting. TrackedLines above counts every
	// installed track, including degraded ones.
	DegradedLines     int    // lines degraded to invalidation-counting-only
	Evictions         uint64 // lines degraded to admit a newer line
	VirtualRejections uint64 // virtual lines refused by MaxVirtualLines
	Degraded          bool   // any detail shed under resource pressure
}

// Stats returns a snapshot of runtime counters. Invalidation and sampling
// totals are summed from per-line state at snapshot time, so the access fast
// path carries no extra aggregate counters.
func (rt *Runtime) Stats() Stats {
	rt.flushMetrics()
	s := Stats{
		Accesses:     rt.totalAccesses.Load(),
		Writes:       rt.totalWrites.Load(),
		TrackedLines: len(rt.sh.TrackedLines()),
		VirtualLines: len(rt.vreg.Tracks()),
	}
	rt.sh.ForEachTracked(func(_ uint64, t *detect.Track) {
		s.Invalidations += t.Invalidations()
		s.SampledAccesses += t.Recorded()
	})
	for _, v := range rt.vreg.Tracks() {
		s.VirtualInvalidations += v.Invalidations()
	}
	s.DegradedLines = int(rt.degradedLines.Load())
	s.Evictions = rt.evictions.Load()
	s.VirtualRejections = rt.vreg.Rejected()
	s.Degraded = s.DegradedLines > 0 || s.VirtualRejections > 0
	return s
}
