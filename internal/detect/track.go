// Package detect implements PREDATOR's detailed per-cache-line tracking
// (paper §2.3): once a line's write count crosses the TrackingThreshold, a
// Track records (subject to sampling, §2.4.3) every access's effect on the
// line's two-entry history table — counting cache invalidations — and
// per-word access information (reads, writes, owning thread, and foreign
// traffic that marks heavily multi-thread words as shared), which is what lets
// the reporting phase distinguish false from true sharing and print
// word-granularity diagnostics (paper Figure 5).
package detect

import (
	"sync/atomic"

	"predator/internal/cacheline"
	"predator/internal/histtable"
	"predator/internal/obs"
	"predator/internal/obs/flight"
)

// Owner sentinels for a word's owning thread.
const (
	// OwnerNone marks a word no thread has accessed yet.
	OwnerNone = -1
	// OwnerShared marks a word accessed by multiple threads; per-thread
	// attribution stops once a word is shared.
	OwnerShared = -2
)

// Word tracks access information for one word of a tracked cache line.
// All fields are updated atomically. The first accessing thread becomes the
// word's owner; accesses by any other thread are counted as foreign. A word
// is *effectively shared* — true-sharing evidence — only when its foreign
// traffic is non-trivial (see WordSnapshot.EffectiveOwner). This refines the
// paper's permanent shared-mark: a single main-thread read of a worker's
// result word must not reclassify megabytes of false sharing as true
// sharing.
//
//predlint:ignore padcheck per-word shadow record: padding to a line per word would defeat word-granular tracking and multiply shadow memory 8x
type Word struct {
	reads   atomic.Uint64
	writes  atomic.Uint64
	owner   atomic.Int32 // OwnerNone or the first accessing thread
	foreign atomic.Uint64
}

// record notes one access to the word by a thread.
func (w *Word) record(tid int, isWrite bool) {
	if isWrite {
		w.writes.Add(1)
	} else {
		w.reads.Add(1)
	}
	for {
		cur := w.owner.Load()
		switch {
		case cur == int32(tid):
			return
		case cur == OwnerNone:
			if w.owner.CompareAndSwap(OwnerNone, int32(tid)) {
				return
			}
		default:
			// A different thread already owns the word.
			w.foreign.Add(1)
			return
		}
	}
}

// Shared-word rule: a word counts as multi-thread (true sharing evidence)
// when at least sharedMinForeign foreign accesses were seen and foreign
// traffic is at least 1/sharedRatio of the word's total.
const (
	sharedMinForeign = 2
	sharedRatio      = 16
)

// WordSnapshot is an immutable copy of one word's access information.
type WordSnapshot struct {
	Index   int    // word index within the line
	Reads   uint64 // total reads observed
	Writes  uint64 // total writes observed
	Owner   int    // OwnerNone or the first accessing thread
	Foreign uint64 // accesses by threads other than Owner
}

// Accesses returns the word's total observed accesses.
func (w WordSnapshot) Accesses() uint64 { return w.Reads + w.Writes }

// EffectiveOwner classifies the word: OwnerNone if untouched, OwnerShared
// if foreign traffic is non-trivial, otherwise the owning thread.
func (w WordSnapshot) EffectiveOwner() int {
	if w.Owner == OwnerNone {
		return OwnerNone
	}
	if w.Foreign >= sharedMinForeign && w.Foreign*sharedRatio >= w.Accesses() {
		return OwnerShared
	}
	return w.Owner
}

// Sampler implements the paper's per-line sampling: only the first Burst
// accesses of every Window accesses are recorded in detail (§2.4.3 uses
// 10,000 out of every 1,000,000 — a 1% rate).
type Sampler struct {
	Window uint64 // sampling interval length; 0 disables sampling
	Burst  uint64 // recorded prefix of each interval
}

// Rate returns the fraction of accesses recorded.
func (s Sampler) Rate() float64 {
	if s.Window == 0 {
		return 1
	}
	return float64(s.Burst) / float64(s.Window)
}

// Track is the detailed tracking state of one cache line.
//
//predlint:ignore padcheck dense per-line shadow state: one Track per tracked line, so line-padding every counter would blow up shadow memory
type Track struct {
	lineBase uint64 // first address of the tracked line
	geom     cacheline.Geometry
	sampler  Sampler

	hist histtable.Table
	// epoch is the SmartTrack-style same-owner fast path over hist: while a
	// line has only ever seen one thread, every access resolves against this
	// single word (usually just a load) instead of the history table's CAS
	// loop. Encoding: 0 = no access yet; epochClosed = a second thread
	// appeared and hist is live; otherwise (owner+1)<<2 | sawWrite<<1.
	epoch         atomic.Uint64
	accesses      atomic.Uint64 // all accesses (sampled or not)
	recorded      atomic.Uint64 // accesses recorded in detail
	writes        atomic.Uint64 // recorded writes; the rest are reads
	invalidations atomic.Uint64
	// search records the line's once-only §3.3 hot-pair search: 0 = not
	// run, otherwise the access-clock tick it ran at plus one. It sits
	// beside writes so the post-threshold check usually hits the cache line
	// that load just fetched. Reset keeps it, so a recycled line never
	// searches twice.
	search atomic.Uint64

	// words is nil once the track has been degraded to
	// invalidation-counting-only mode by the resource governor; frozen then
	// holds the word detail captured at degradation time so reports can
	// still classify sharing observed before the line was shed.
	words atomic.Pointer[[]Word]

	// Observability (nil when unobserved; set before publication only).
	// The recorded-access counter is batched: the hot path syncs the
	// registry every obs.SyncBatch-th recorded access and FlushMetrics
	// pushes the exact total at snapshot points.
	o         *obs.Observer
	recordedC *obs.Counter
	windowsC  *obs.Counter
	pushedRec atomic.Uint64

	// Degradation state (cold: touched at Degrade/report time only).
	frozen   atomic.Pointer[[]WordSnapshot]
	degraded atomic.Bool

	// Flight recorder (nil when flight recording is disabled; armed before
	// publication only). reportThreshold is set before publication too, so
	// the hot path reads both without synchronization beyond the track's own
	// publish. flagSeq/flagClock capture, exactly once, the access ordinal
	// and access-clock tick at which the line's invalidation count reached
	// the report threshold — the moment the line became a finding.
	rec             atomic.Pointer[flight.Recorder]
	reportThreshold uint64
	flagSeq         atomic.Uint64 // access ordinal n of the flagging access
	flagClock       atomic.Uint64 // clock tick of the flagging access
	salvage         atomic.Pointer[[]flight.Record]
}

// NewTrack creates tracking state for the line whose first address is
// lineBase under the given geometry.
func NewTrack(lineBase uint64, geom cacheline.Geometry, sampler Sampler) *Track {
	return NewTrackObserved(lineBase, geom, sampler, nil)
}

// NewTrackObserved is NewTrack with an observability layer attached: the
// track counts recorded accesses and sampling-window opens in the observer's
// registry and emits sampling-window transition events (§2.4.3). A nil
// observer yields an unobserved track.
func NewTrackObserved(lineBase uint64, geom cacheline.Geometry, sampler Sampler, o *obs.Observer) *Track {
	t := &Track{
		lineBase: lineBase,
		geom:     geom,
		sampler:  sampler,
	}
	words := make([]Word, geom.WordsPerLine())
	initWords(words)
	t.words.Store(&words)
	if o != nil {
		t.o = o
		reg := o.Metrics()
		t.recordedC = reg.Counter("predator_sampled_accesses_total",
			"Accesses recorded in detail on tracked lines (post-sampling).")
		t.windowsC = reg.Counter("predator_sample_windows_total",
			"Per-line sampling windows opened.")
	}
	return t
}

// NewSpanTrack creates tracking state for a span that is not a physical
// line — a predicted virtual line (paper §3.4), verified by counting real
// invalidations with the same history-table, sampling and flight-recording
// rules as a physical line. The track keeps no word detail: its LineBase is
// the span's start, word-indexed flight records count from there, and
// Words is empty.
func NewSpanTrack(start uint64, sampler Sampler) *Track {
	return &Track{lineBase: start, sampler: sampler}
}

// LineBase returns the tracked line's first address.
func (t *Track) LineBase() uint64 { return t.lineBase }

// HandleAccess records one access to [addr, addr+size) by thread tid. Only
// the bytes falling inside this line are attributed here; the core runtime
// splits spanning accesses across lines. It reports whether the access
// caused a cache invalidation on this line.
func (t *Track) HandleAccess(tid int, addr, size uint64, isWrite bool) (invalidated bool) {
	n := t.accesses.Add(1)
	if t.sampler.Window > 0 {
		// One phase computation serves both the sampling decision and the
		// window-transition events, keeping the observed path free of a
		// second modulo per access.
		phase := (n - 1) % t.sampler.Window
		if t.o != nil && (phase == 0 || phase == t.sampler.Burst) {
			t.noteWindowPhase(phase, n)
		}
		if phase >= t.sampler.Burst {
			return false
		}
	}
	r := t.recorded.Add(1)
	if r&(obs.SyncBatch-1) == 0 {
		obs.SyncCounter(t.recordedC, r, &t.pushedRec)
	}
	if isWrite {
		t.writes.Add(1)
	}
	invalidated = t.histAccess(tid, isWrite)
	var inv uint64
	if invalidated {
		inv = t.invalidations.Add(1)
	}

	// Flight recording, decimated: every invalidation is recorded (they are
	// the timeline's marks and the provenance evidence), but plain accesses
	// only every flightStride-th — a Record costs three locked atomic ops
	// (clock tick, ring cursor, slot store), and paying that on every sampled
	// access would blow the 5% overhead envelope. The decimation counter is
	// the recorded-ordinal already computed above, so the common path adds
	// only a pointer load and a branch. The invalidation Add(1) return is
	// unique per increment, so the == comparison flags the line exactly once
	// — at the access whose invalidation reached the report threshold.
	var tick uint64
	if rec := t.rec.Load(); rec != nil && (invalidated || r&(flight.RecordStride-1) == 0) {
		w := 0
		if addr > t.lineBase {
			w = int((addr - t.lineBase) >> cacheline.WordShift)
		}
		tick = rec.Record(tid, w, isWrite, invalidated)
	}
	if invalidated && t.reportThreshold != 0 && inv == t.reportThreshold {
		t.markFlagged(tick, n)
	}

	// Clip the access to this line and update covered words. A degraded
	// track has no word state: invalidation counting above is all that
	// remains (the governor's invalidation-counting-only mode).
	wp := t.words.Load()
	if wp == nil {
		return invalidated
	}
	words := *wp
	start, end := addr, addr+size
	if start < t.lineBase {
		start = t.lineBase
	}
	if lineEnd := t.lineBase + t.geom.Size(); end > lineEnd {
		end = lineEnd
	}
	if start >= end {
		return invalidated
	}
	wStart, nWords := cacheline.WordsCovered(start, end-start)
	first := int((wStart - t.lineBase) >> cacheline.WordShift)
	for i := 0; i < nWords; i++ {
		words[first+i].record(tid, isWrite)
	}
	return invalidated
}

// Epoch word layout: bit 0 closed, bit 1 sawWrite, bits 2+ owner thread +1.
const (
	epochClosed   = 1 << 0
	epochSawWrite = 1 << 1
	epochShift    = 2
)

// histAccess applies one access to the line's invalidation history. While
// the line is single-owner the epoch word answers directly — a read, or a
// write with the write bit already set, costs one atomic load and no CAS,
// and by the history-table rules a single-thread sequence never
// invalidates. The first access from a second thread closes the epoch:
// the closer seeds hist with the exact state the skipped sequence would
// have left (entry0 = (owner, sawWrite)), then marks the epoch closed and
// falls through to the real table. Every interleaving linearizes to a
// valid slow-path history: an owner racing the close flips the write bit
// with a CAS, which fails the closer's CAS and forces a re-read; a second
// closer racing the first loses either the seed CAS (Seed only installs
// into an empty table) or the close CAS and replays through the closed
// table. In the one surviving asymmetry — a stale closer seeding the
// owner's pre-write state — only the seeded entry's write *bit* can lag,
// and the table's update rules never read an entry's write bit when
// deciding invalidations, so counts cannot drift. Invalidation counts are
// therefore bit-identical to calling hist.Access unconditionally — the
// determinism the bench gate asserts.
func (t *Track) histAccess(tid int, isWrite bool) (invalidated bool) {
	for {
		e := t.epoch.Load()
		if e&epochClosed != 0 {
			return t.hist.Access(tid, isWrite)
		}
		if e == 0 {
			// First access ever: open the epoch. The table's first-access
			// rule never invalidates.
			if t.epoch.CompareAndSwap(0, epochPack(tid, isWrite)) {
				return false
			}
			continue
		}
		owner := int(e>>epochShift) - 1
		if owner == tid {
			if isWrite && e&epochSawWrite == 0 {
				if !t.epoch.CompareAndSwap(e, e|epochSawWrite) {
					continue
				}
			}
			return false
		}
		// Second thread: materialize the skipped history, then close.
		t.hist.Seed(owner, e&epochSawWrite != 0)
		if !t.epoch.CompareAndSwap(e, epochClosed) {
			continue
		}
		return t.hist.Access(tid, isWrite)
	}
}

// epochPack encodes an open single-owner epoch word.
func epochPack(tid int, sawWrite bool) uint64 {
	e := uint64(tid+1) << epochShift
	if sawWrite {
		e |= epochSawWrite
	}
	return e
}

// Degrade switches the track to invalidation-counting-only mode — the
// resource governor's graceful degradation (the line gives up the paper's
// §2.4.1 detailed word tracking but keeps counting invalidations). The word
// detail gathered so far is frozen so reports can still classify sharing
// observed before degradation, and the live word state is released.
// Concurrent recorders holding the old word slice finish their writes into
// memory that is simply dropped; an access racing the freeze may be missing
// from the frozen snapshot, which only under-reports pre-degradation detail.
// Degrading twice is a no-op; degradation survives Reset.
func (t *Track) Degrade() {
	if t.degraded.Swap(true) {
		return
	}
	snap := t.Words()
	t.frozen.Store(&snap)
	t.words.Store(nil)
	// Salvage the flight recorder the same way: freeze the ring's contents
	// so the interleaving evidence survives eviction, then disarm it so the
	// degraded hot path stops paying for recording.
	if rec := t.rec.Swap(nil); rec != nil {
		recs := rec.Snapshot()
		t.salvage.Store(&recs)
	}
}

// Degraded reports whether the track is in invalidation-counting-only mode.
func (t *Track) Degraded() bool { return t.degraded.Load() }

// ArmFlight attaches a flight recorder to the track. Must be called before
// the track is published (installation time — the TrackingThreshold
// crossing), never on a live track.
func (t *Track) ArmFlight(rec *flight.Recorder) {
	t.rec.Store(rec)
}

// SetReportThreshold tells the track the invalidation count at which the
// reporting phase will flag it, so the flagging instant can be captured as
// it happens. Must be called before publication. 0 disables flag capture.
func (t *Track) SetReportThreshold(th uint64) {
	t.reportThreshold = th
}

// markFlagged captures the flagging instant exactly once: the access ordinal
// n (always >= 1, so the CAS-from-0 is race-free) and its clock tick.
func (t *Track) markFlagged(tick, n uint64) {
	if t.flagSeq.CompareAndSwap(0, n) {
		t.flagClock.Store(tick)
	}
}

// FlagInfo returns the captured flagging instant: the access-clock tick of
// the access whose invalidation reached the report threshold, the sampling
// window (0-based interval index) that access fell in, and whether the line
// has been flagged at all. Clock is 0 when flight recording was disabled.
func (t *Track) FlagInfo() (clock, window uint64, flagged bool) {
	n := t.flagSeq.Load()
	if n == 0 {
		return 0, 0, false
	}
	if t.sampler.Window > 0 {
		window = (n - 1) / t.sampler.Window
	}
	return t.flagClock.Load(), window, true
}

// FlightRecords returns the track's recorded access tail, oldest first, and
// whether it came from a salvaged (degradation-frozen) ring rather than a
// live one. Nil when the track was never armed.
func (t *Track) FlightRecords() (records []flight.Record, salvaged bool) {
	if rec := t.rec.Load(); rec != nil {
		return rec.Snapshot(), false
	}
	if s := t.salvage.Load(); s != nil {
		return append([]flight.Record(nil), (*s)...), true
	}
	return nil, false
}

// ClaimSearch marks the line's hot-pair search as run at access-clock tick
// (0 when flight recording is off). It returns true only for the one caller
// whose CAS from "not run" succeeded.
func (t *Track) ClaimSearch(tick uint64) bool { return t.search.CompareAndSwap(0, tick+1) }

// SearchTick returns the access-clock tick the line's hot-pair search ran
// at, and whether it has run.
func (t *Track) SearchTick() (tick uint64, ran bool) {
	v := t.search.Load()
	if v == 0 {
		return 0, false
	}
	return v - 1, true
}

// noteWindowPhase surfaces sampling-window transitions: the n-th access
// opens a window when it starts a new sampling interval (phase 0), and
// closes the recording burst when it is the first unrecorded access of its
// interval (phase == Burst). Callers only invoke it at those two phases.
func (t *Track) noteWindowPhase(phase, n uint64) {
	if phase == 0 {
		t.windowsC.Inc()
		if t.o.Tracing() {
			t.o.Emit(obs.Event{Type: obs.EvSampleWindow, Addr: t.lineBase, Phase: "open", Count: n})
		}
		return
	}
	if t.o.Tracing() {
		t.o.Emit(obs.Event{Type: obs.EvSampleWindow, Addr: t.lineBase, Phase: "close", Count: n})
	}
}

// WindowPhase reports where the line currently sits in its sampling window
// (§2.4.3): pos is the 0-based position the line's next access would take
// within the window, and recording whether that access would be recorded
// (it falls inside the burst). With sampling disabled pos is 0 and recording
// is always true. Point-in-time: concurrent accesses advance the phase.
func (t *Track) WindowPhase() (pos uint64, recording bool) {
	if t.sampler.Window == 0 {
		return 0, true
	}
	pos = t.accesses.Load() % t.sampler.Window
	return pos, pos < t.sampler.Burst
}

// SamplerConfig returns the track's sampling policy.
func (t *Track) SamplerConfig() Sampler { return t.sampler }

// FlushMetrics pushes the exact recorded-access total into the registry
// counter; the hot path batches pushes to every obs.SyncBatch-th access.
// Safe to call on an unobserved track (no-op).
func (t *Track) FlushMetrics() {
	obs.SyncCounter(t.recordedC, t.recorded.Load(), &t.pushedRec)
}

// Invalidations returns the line's observed cache invalidation count.
func (t *Track) Invalidations() uint64 { return t.invalidations.Load() }

// Accesses returns the total number of accesses seen (sampled or not).
func (t *Track) Accesses() uint64 { return t.accesses.Load() }

// Recorded returns the number of accesses recorded in detail.
func (t *Track) Recorded() uint64 { return t.recorded.Load() }

// Writes returns recorded writes.
func (t *Track) Writes() uint64 { return t.writes.Load() }

// Reads returns recorded reads: every recorded access is a read or a write.
// writes is loaded first, so a concurrent access can only grow recorded
// past it; the clamp covers a Reset racing the two loads.
func (t *Track) Reads() uint64 {
	w := t.writes.Load()
	if r := t.recorded.Load(); r > w {
		return r - w
	}
	return 0
}

// WordAddr returns the address of the i-th word of the line.
func (t *Track) WordAddr(i int) uint64 {
	return t.lineBase + uint64(i)*cacheline.WordSize
}

// Words returns a snapshot of per-word access information, ascending by
// word index, including untouched words (Owner == OwnerNone, zero counts).
// On a degraded track it returns the detail frozen at degradation time.
func (t *Track) Words() []WordSnapshot {
	wp := t.words.Load()
	if wp == nil {
		if fz := t.frozen.Load(); fz != nil {
			out := make([]WordSnapshot, len(*fz))
			copy(out, *fz)
			return out
		}
		return nil
	}
	words := *wp
	out := make([]WordSnapshot, len(words))
	for i := range words {
		w := &words[i]
		out[i] = WordSnapshot{
			Index:   i,
			Reads:   w.reads.Load(),
			Writes:  w.writes.Load(),
			Owner:   int(w.owner.Load()),
			Foreign: w.foreign.Load(),
		}
	}
	return out
}

// AverageWordAccesses returns the mean number of recorded accesses per word
// of the line — the paper's threshold for calling a word's access "hot"
// (§3.3). A degraded track reports its frozen pre-degradation average.
func (t *Track) AverageWordAccesses() float64 {
	ws := t.Words()
	if len(ws) == 0 {
		return 0
	}
	var total uint64
	for _, w := range ws {
		total += w.Reads + w.Writes
	}
	return float64(total) / float64(len(ws))
}

// HotWords returns snapshots of words whose access count strictly exceeds
// the line's per-word average.
func (t *Track) HotWords() []WordSnapshot {
	avg := t.AverageWordAccesses()
	var out []WordSnapshot
	for _, w := range t.Words() {
		if float64(w.Accesses()) > avg {
			out = append(out, w)
		}
	}
	return out
}

// Reset clears all tracking state (object freed and recycled) except the
// hot-pair search mark: the paper's search runs once per line, not once per
// occupant. The unpushed tail of the recorded-access counter is flushed
// first, and the push cursor restarts with the recorded count so the
// registry keeps its lifetime total.
func (t *Track) Reset() {
	t.FlushMetrics()
	t.hist.Reset()
	t.epoch.Store(0)
	t.accesses.Store(0)
	t.recorded.Store(0)
	t.pushedRec.Store(0)
	t.writes.Store(0)
	t.invalidations.Store(0)
	if wp := t.words.Load(); wp != nil {
		words := *wp
		for i := range words {
			words[i].reads.Store(0)
			words[i].writes.Store(0)
			words[i].foreign.Store(0)
			words[i].owner.Store(OwnerNone)
		}
	}
	t.frozen.Store(nil)
	t.flagSeq.Store(0)
	t.flagClock.Store(0)
	t.salvage.Store(nil)
	// A recycled track gets a fresh ring on the same shared clock: a ring's
	// slots cannot be zeroed racelessly, but a new ring can be published with
	// one store.
	if rec := t.rec.Load(); rec != nil {
		t.rec.Store(flight.NewRecorder(rec.Clock(), rec.Depth()))
	}
}

// initWords sets every word's owner to OwnerNone: the zero value 0 is a
// legitimate thread ID and must not read as an owner.
func initWords(words []Word) {
	for i := range words {
		words[i].owner.Store(OwnerNone)
	}
}
