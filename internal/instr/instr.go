// Package instr is PREDATOR's instrumentation front-end — the Go analog of
// the paper's LLVM pass (§2.2). The LLVM pass rewrites every load and store
// into a call that tells the runtime the access's address, size, and type;
// here, workloads access the simulated heap exclusively through the typed
// accessors on Thread, each of which performs the access on backing memory
// and then delivers the identical (thread, address, size, read/write) event
// to the runtime.
//
// The selective-instrumentation knobs of §2.4.2 are modelled as front-end
// policy: writes-only instrumentation (detecting write-write false sharing
// only, as SHERIFF does), per-site deduplication (the pass instruments each
// access expression once per basic block — emulated by dropping immediately
// repeated (line, type) events per thread), and function black/whitelists
// keyed by a thread's current scope.
//
// The front-end counts only policy outcomes (suppressed, elided, faulted);
// the runtime counts the delivered accesses.
package instr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"predator/internal/mem"
	"predator/internal/obs"
	"predator/internal/sched"
)

// ErrOutOfHeap reports an access outside the simulated heap. In strict mode
// (the default) such an access panics — workloads are trusted code and the
// bug must fail loudly; in non-strict mode (SetStrict(false), the resilience
// layer's fault-tolerant front-end) the access is absorbed: loads return
// zero, stores are dropped, and the fault is recorded per-thread and
// per-instrumenter as a typed *OutOfHeapError wrapping this sentinel.
var ErrOutOfHeap = errors.New("instr: access outside simulated heap")

// OutOfHeapError locates one out-of-heap access.
type OutOfHeapError struct {
	Addr uint64
	Size uint64
}

// Error formats the faulting range.
func (e *OutOfHeapError) Error() string {
	return fmt.Sprintf("instr: access [%#x,%#x) outside simulated heap", e.Addr, e.Addr+e.Size)
}

// Unwrap ties the error to ErrOutOfHeap for errors.Is.
func (e *OutOfHeapError) Unwrap() error { return ErrOutOfHeap }

// Sink receives instrumentation events. *core.Runtime implements Sink; a
// trace writer or a tee can stand in for it.
type Sink interface {
	HandleAccess(tid int, addr, size uint64, isWrite bool)
}

// Policy selects which accesses are reported to the runtime (§2.4.2). The
// zero value reports everything.
type Policy struct {
	// WritesOnly drops read events, trading read-write detection for
	// lower overhead (write-write false sharing is still found).
	WritesOnly bool
	// DedupWindow > 0 models the pass instrumenting each (address, type)
	// once per basic block: the thread's event stream is cut into blocks
	// of DedupWindow accessor calls, and within one block duplicate
	// (line, type) events are dropped. Each new block re-emits, exactly
	// like re-executing an instrumented loop body.
	DedupWindow int
	// Whitelist, when non-empty, reports only accesses from threads
	// whose current scope is listed.
	Whitelist map[string]bool
	// Blacklist drops accesses from threads whose scope is listed.
	Blacklist map[string]bool
}

// allows reports whether the policy passes an event from the given scope.
func (p *Policy) allows(scope string, isWrite bool) bool {
	if p.WritesOnly && !isWrite {
		return false
	}
	if len(p.Whitelist) > 0 && !p.Whitelist[scope] {
		return false
	}
	if p.Blacklist[scope] {
		return false
	}
	return true
}

// Elider answers whether an access is statically proven uninteresting and
// may be dropped before delivery. *elide.Binder implements it; an interface
// keeps the front-end free of a dependency on the manifest format.
type Elider interface {
	Elidable(addr, size uint64, isWrite bool) bool
}

// Instrumenter owns the heap/runtime binding and mints Thread handles.
type Instrumenter struct {
	heap      *mem.Heap
	data      []byte
	base      uint64
	lineShift uint // heap line size as a shift: dedup keys on addr >> lineShift
	sink      Sink
	policy    Policy
	elider    Elider // static elision fast path; nil = no manifest loaded

	// tid → label, for timeline track naming. NewThread is cold path.
	tmu    sync.Mutex
	tnames map[int]string

	// predlint padcheck: pads keep each contended counter on its own cache line.
	_          [32]byte
	enabled    atomic.Bool
	_          [60]byte
	strict     atomic.Bool // panic on out-of-heap access (default true)
	_          [56]byte
	nextTID    atomic.Int64
	_          [56]byte
	suppressed atomic.Uint64
	_          [56]byte
	faults     atomic.Uint64 // out-of-heap accesses absorbed (non-strict)
	_          [56]byte
	elided     atomic.Uint64 // events dropped by the static elision fast path

	// Observability (nil when unobserved; set via Observe before threads
	// run). Counters are batched: notify syncs the registry every
	// obs.SyncBatch-th event and FlushMetrics pushes exact totals.
	obs              *obs.Observer
	suppressedC      *obs.Counter
	faultsC          *obs.Counter
	elidedC          *obs.Counter
	pushedSuppressed atomic.Uint64
	pushedElided     atomic.Uint64
}

// New binds an instrumenter to a heap and a sink. A nil sink produces an
// uninstrumented ("Original") executor: accessors touch memory but report
// nothing — the baseline for overhead measurements.
func New(h *mem.Heap, sink Sink, policy Policy) *Instrumenter {
	data, base := h.Backing()
	in := &Instrumenter{heap: h, data: data, base: base, lineShift: h.Geometry().Shift(),
		sink: sink, policy: policy}
	in.enabled.Store(sink != nil)
	in.strict.Store(true)
	return in
}

// Heap returns the bound heap.
func (in *Instrumenter) Heap() *mem.Heap { return in.heap }

// Observe attaches an observability layer: suppressed/elided event and
// fault counters and — when the observer traces — a thread-creation event per
// NewThread. Call before minting threads; a nil observer is a no-op.
func (in *Instrumenter) Observe(o *obs.Observer) {
	if o == nil {
		return
	}
	in.obs = o
	reg := o.Metrics()
	in.suppressedC = reg.Counter("predator_events_suppressed_total",
		"Instrumentation events dropped by policy or per-site deduplication.")
	in.faultsC = reg.Counter("predator_heap_faults_total",
		"Out-of-heap accesses absorbed by the non-strict front-end.")
	in.elidedC = reg.Counter("predator_events_elided_total",
		"Instrumentation events dropped by the static elision fast path.")
}

// SetElision installs the static elision fast path: accesses the elider
// proves uninteresting are dropped before policy, dedup, and delivery, and
// counted as elided. Call before minting threads (publication happens via
// goroutine creation, like Observe); nil uninstalls.
func (in *Instrumenter) SetElision(e Elider) { in.elider = e }

// Elided returns the number of events dropped by the static elision fast
// path.
func (in *Instrumenter) Elided() uint64 { return in.elided.Load() }

// FlushMetrics pushes the exact suppressed/elided totals into the
// registry; the notify hot path batches pushes to every obs.SyncBatch-th
// event. Safe to call on an unobserved instrumenter (no-op).
func (in *Instrumenter) FlushMetrics() {
	obs.SyncCounter(in.suppressedC, in.suppressed.Load(), &in.pushedSuppressed)
	obs.SyncCounter(in.elidedC, in.elided.Load(), &in.pushedElided)
}

// SetEnabled toggles event delivery at runtime.
func (in *Instrumenter) SetEnabled(v bool) { in.enabled.Store(v && in.sink != nil) }

// SetStrict selects the out-of-heap policy: true (the default) panics on any
// out-of-heap access; false absorbs such accesses as recoverable faults (see
// ErrOutOfHeap).
func (in *Instrumenter) SetStrict(v bool) { in.strict.Store(v) }

// Strict reports the current out-of-heap policy.
func (in *Instrumenter) Strict() bool { return in.strict.Load() }

// Faults returns the total out-of-heap accesses absorbed across all threads
// (always 0 in strict mode, which panics instead).
func (in *Instrumenter) Faults() uint64 { return in.faults.Load() }

// Suppressed returns the number of events dropped by policy or dedup.
func (in *Instrumenter) Suppressed() uint64 { return in.suppressed.Load() }

// dedupSlots is the fixed capacity of a thread's dedup ring.
const dedupSlots = 16

// Thread is one logical thread's handle: a dense thread ID plus unshared
// accessor state. A Thread must be used from a single goroutine.
type Thread struct {
	in    *Instrumenter
	id    int
	name  string
	scope string
	slot  *sched.Slot // deterministic-schedule handle; nil when free-running

	ring    [dedupSlots]uint64 // packed (line<<1 | isWrite) history
	ringLen int
	ringPos int
	evCount int // accessor calls since the current dedup block began

	// Non-strict fault accounting. A Thread is single-goroutine, so plain
	// fields suffice.
	faults    uint64
	lastFault error
}

// NewThread mints a handle with the next dense thread ID.
func (in *Instrumenter) NewThread(name string) *Thread {
	id := int(in.nextTID.Add(1) - 1)
	in.tmu.Lock()
	if in.tnames == nil {
		in.tnames = make(map[int]string)
	}
	in.tnames[id] = name
	in.tmu.Unlock()
	if in.obs.Tracing() {
		in.obs.Emit(obs.Event{Type: obs.EvThread, TID: id, Name: name})
	}
	return &Thread{in: in, id: id, name: name}
}

// ThreadNames returns a copy of the tid → label map for every thread minted
// so far. The timeline exporter uses it to name per-thread tracks.
func (in *Instrumenter) ThreadNames() map[int]string {
	in.tmu.Lock()
	defer in.tmu.Unlock()
	m := make(map[int]string, len(in.tnames))
	for id, n := range in.tnames {
		m[id] = n
	}
	return m
}

// ID returns the thread's dense ID.
func (t *Thread) ID() int { return t.id }

// Name returns the thread's label.
func (t *Thread) Name() string { return t.name }

// SetScope labels the code region the thread is executing (function or
// module name) for white/blacklist filtering.
func (t *Thread) SetScope(scope string) { t.scope = scope }

// SetSlot attaches a deterministic scheduler slot: every accessor call then
// counts one scheduling tick, so thread interleaving — and with it every
// invalidation count — is exactly reproducible (see internal/sched).
func (t *Thread) SetSlot(slot *sched.Slot) { t.slot = slot }

// Lock acquires mu on behalf of the thread. Free-running it blocks. Under a
// scheduler slot the acquire counts one tick, like an access: a critical
// section of k accesses spans k+1 ticks, so turn boundaries also fall
// between sections and other slots get the lock. A holder parked in another
// slot releases mu only on its own turn, so the thread hands its turn on
// until TryLock succeeds rather than block while holding the turn.
func (t *Thread) Lock(mu *sync.Mutex) {
	if t.slot == nil {
		mu.Lock()
		return
	}
	t.slot.Tick()
	for !mu.TryLock() {
		t.slot.Yield()
	}
}

// Alloc allocates from the heap on behalf of this thread, attributing the
// callsite to Alloc's caller.
func (t *Thread) Alloc(size uint64) (uint64, error) {
	return t.in.heap.Alloc(t.id, size, 1)
}

// AllocWithOffset allocates with a chosen in-line offset (Figure 2 hook).
func (t *Thread) AllocWithOffset(size, offset uint64) (uint64, error) {
	return t.in.heap.AllocWithOffset(t.id, size, offset, 1)
}

// Free releases an allocation.
func (t *Thread) Free(addr uint64) error { return t.in.heap.Free(addr) }

// notify delivers one event, applying the enable gate and policy.
func (t *Thread) notify(addr, size uint64, isWrite bool) {
	if t.slot != nil {
		t.slot.Tick()
	}
	in := t.in
	if !in.enabled.Load() {
		return
	}
	// Static elision: the slot tick above already charged this access to the
	// deterministic schedule, so dropping the event here cannot perturb
	// thread interleaving — only skip work the manifest proves redundant.
	if in.elider != nil && in.elider.Elidable(addr, size, isWrite) {
		if en := in.elided.Add(1); en&(obs.SyncBatch-1) == 0 {
			obs.SyncCounter(in.elidedC, en, &in.pushedElided)
		}
		return
	}
	if !in.policy.allows(t.scope, isWrite) {
		if sn := in.suppressed.Add(1); sn&(obs.SyncBatch-1) == 0 {
			obs.SyncCounter(in.suppressedC, sn, &in.pushedSuppressed)
		}
		return
	}
	if w := in.policy.DedupWindow; w > 0 {
		// Block boundary: a fresh "basic block" re-emits everything.
		if t.evCount >= w {
			t.evCount = 0
			t.ringLen = 0
			t.ringPos = 0
		}
		t.evCount++
		key := addr >> in.lineShift << 1
		if isWrite {
			key |= 1
		}
		n := min(w, min(t.ringLen, dedupSlots))
		for i := 1; i <= n; i++ {
			if t.ring[(t.ringPos-i+dedupSlots)%dedupSlots] == key {
				if sn := in.suppressed.Add(1); sn&(obs.SyncBatch-1) == 0 {
					obs.SyncCounter(in.suppressedC, sn, &in.pushedSuppressed)
				}
				return
			}
		}
		t.ring[t.ringPos] = key
		t.ringPos = (t.ringPos + 1) % dedupSlots
		if t.ringLen < dedupSlots {
			t.ringLen++
		}
	}
	in.sink.HandleAccess(t.id, addr, size, isWrite)
}

// check validates an access against the heap bounds. In strict mode (the
// default) an out-of-heap access panics: workloads are trusted code, and an
// out-of-range access is a workload bug that must fail loudly. In non-strict
// mode it records the fault and reports ok=false so the accessor absorbs the
// access instead of touching memory.
func (t *Thread) check(addr, size uint64) (off uint64, ok bool) {
	off = addr - t.in.base
	if addr < t.in.base || off+size > uint64(len(t.in.data)) || off+size < off {
		t.fault(addr, size)
		return 0, false
	}
	return off, true
}

// fault handles one out-of-heap access under the current strictness policy.
func (t *Thread) fault(addr, size uint64) {
	err := &OutOfHeapError{Addr: addr, Size: size}
	if t.in.strict.Load() {
		panic(err)
	}
	t.faults++
	t.lastFault = err
	t.in.faults.Add(1)
	t.in.faultsC.Inc()
	if t.in.obs.Tracing() {
		t.in.obs.Emit(obs.Event{Type: obs.EvFault, TID: t.id, Addr: addr, Size: size})
	}
}

// Faults returns how many out-of-heap accesses this thread has absorbed.
func (t *Thread) Faults() uint64 { return t.faults }

// LastFault returns the thread's most recent absorbed fault (a typed
// *OutOfHeapError), or nil when none occurred.
func (t *Thread) LastFault() error { return t.lastFault }

// Load64 reads a 64-bit value. A non-strict out-of-heap load returns 0.
func (t *Thread) Load64(addr uint64) uint64 {
	off, ok := t.check(addr, 8)
	if !ok {
		return 0
	}
	v := binary.LittleEndian.Uint64(t.in.data[off:])
	t.notify(addr, 8, false)
	return v
}

// Store64 writes a 64-bit value. A non-strict out-of-heap store is dropped.
func (t *Thread) Store64(addr uint64, v uint64) {
	off, ok := t.check(addr, 8)
	if !ok {
		return
	}
	binary.LittleEndian.PutUint64(t.in.data[off:], v)
	t.notify(addr, 8, true)
}

// Load32 reads a 32-bit value.
func (t *Thread) Load32(addr uint64) uint32 {
	off, ok := t.check(addr, 4)
	if !ok {
		return 0
	}
	v := binary.LittleEndian.Uint32(t.in.data[off:])
	t.notify(addr, 4, false)
	return v
}

// Store32 writes a 32-bit value.
func (t *Thread) Store32(addr uint64, v uint32) {
	off, ok := t.check(addr, 4)
	if !ok {
		return
	}
	binary.LittleEndian.PutUint32(t.in.data[off:], v)
	t.notify(addr, 4, true)
}

// Load8 reads one byte.
func (t *Thread) Load8(addr uint64) byte {
	off, ok := t.check(addr, 1)
	if !ok {
		return 0
	}
	v := t.in.data[off]
	t.notify(addr, 1, false)
	return v
}

// Store8 writes one byte.
func (t *Thread) Store8(addr uint64, v byte) {
	off, ok := t.check(addr, 1)
	if !ok {
		return
	}
	t.in.data[off] = v
	t.notify(addr, 1, true)
}

// LoadFloat64 reads a float64.
func (t *Thread) LoadFloat64(addr uint64) float64 {
	return math.Float64frombits(t.Load64(addr))
}

// StoreFloat64 writes a float64.
func (t *Thread) StoreFloat64(addr uint64, v float64) {
	t.Store64(addr, math.Float64bits(v))
}

// LoadInt64 reads an int64.
func (t *Thread) LoadInt64(addr uint64) int64 { return int64(t.Load64(addr)) }

// StoreInt64 writes an int64.
func (t *Thread) StoreInt64(addr uint64, v int64) { t.Store64(addr, uint64(v)) }

// AddInt64 is a read-modify-write convenience: one load plus one store.
func (t *Thread) AddInt64(addr uint64, delta int64) int64 {
	v := t.LoadInt64(addr) + delta
	t.StoreInt64(addr, v)
	return v
}

// ReadBytes copies n bytes from the heap into dst and reports one read of
// that size (the pass would emit one event for a memcpy-like intrinsic).
// A non-strict out-of-heap read zero-fills dst.
func (t *Thread) ReadBytes(addr uint64, dst []byte) {
	off, ok := t.check(addr, uint64(len(dst)))
	if !ok {
		clear(dst)
		return
	}
	copy(dst, t.in.data[off:off+uint64(len(dst))])
	t.notify(addr, uint64(len(dst)), false)
}

// WriteBytes copies src into the heap and reports one write of that size.
func (t *Thread) WriteBytes(addr uint64, src []byte) {
	off, ok := t.check(addr, uint64(len(src)))
	if !ok {
		return
	}
	copy(t.in.data[off:off+uint64(len(src))], src)
	t.notify(addr, uint64(len(src)), true)
}
