// Package mem implements PREDATOR's memory substrate: a simulated heap with
// a predefined base address and fixed size (so shadow-metadata lookup is
// pure address arithmetic, paper §2.3.2 "Optimizing Metadata Lookup"), and a
// custom per-thread-arena allocator in the style of Hoard/Heap Layers
// ("Custom Memory Allocation"): allocations from different threads never
// occupy the same physical cache line, objects record their allocation
// callsite, and objects flagged as falsely shared are quarantined on free so
// memory reuse cannot manufacture pseudo false sharing.
package mem

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"predator/internal/cacheline"
	"predator/internal/callsite"
	"predator/internal/obs"
	"predator/internal/resilience"
)

// DefaultBase mirrors the paper's predefined heap start (reports in the
// paper show objects at 0x40000038 and up).
const DefaultBase = 0x400000000

// DefaultSize is the default simulated heap size.
const DefaultSize = 256 << 20 // 256 MiB

// chunkSize is the unit in which arenas draw memory from the global heap.
// It is a multiple of every supported line size, which is what guarantees
// that two threads' allocations never share a physical cache line.
const chunkSize = 64 << 10 // 64 KiB

// minAlign is the minimum alignment of every allocation, matching a typical
// 64-bit malloc. Deliberately smaller than a cache line: objects are allowed
// to start mid-line (the paper's Figure 5 object starts at 0x...38).
const minAlign = 16

var (
	// ErrOutOfMemory is returned when the fixed-size heap is exhausted.
	ErrOutOfMemory = errors.New("mem: simulated heap exhausted")
	// ErrBadFree is returned when Free is called on a non-object address.
	ErrBadFree = errors.New("mem: free of unknown or already-freed address")
	// ErrOutOfRange is returned for accesses outside the heap.
	ErrOutOfRange = errors.New("mem: address range outside simulated heap")
)

// sizeClasses are the segregated allocation classes, in bytes. Requests
// above the largest class are rounded up to minAlign and served directly
// from the arena's chunk ("large" objects).
var sizeClasses = []int{16, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 2048, 4096}

// Config configures a Heap. Zero fields take defaults.
type Config struct {
	Base     uint64 // starting address; default DefaultBase
	Size     uint64 // heap size in bytes; default DefaultSize
	LineSize int    // physical cache line size; default cacheline.DefaultSize
}

// Object describes one live or quarantined heap object (or registered
// global).
type Object struct {
	Start    uint64         // first byte address
	Size     uint64         // requested size in bytes
	Thread   int            // allocating thread id (-1 for globals)
	Callsite callsite.Stack // allocation callsite (zero for globals)
	Label    string         // symbolic name for globals, "" for heap objects
	Global   bool           // registered global variable rather than heap object
	Freed    bool           // freed and recycled
	Flagged  bool           // involved in false sharing: never reused
}

// End returns the first address past the object.
func (o *Object) End() uint64 { return o.Start + o.Size }

// Describe renders the object the way PREDATOR reports name objects.
func (o *Object) Describe() string {
	if o.Global {
		return fmt.Sprintf("GLOBAL VARIABLE %q: start 0x%x end 0x%x (with size %d)",
			o.Label, o.Start, o.End(), o.Size)
	}
	return fmt.Sprintf("HEAP OBJECT: start 0x%x end 0x%x (with size %d)",
		o.Start, o.End(), o.Size)
}

// FreeHook observes object recycling so the detection runtime can reset
// per-line metadata for unflagged objects (paper §2.3.2: "updates recording
// information at memory de-allocations for those objects without false
// sharing problems").
type FreeHook func(start, size uint64)

// AllocHook observes every new object (heap allocations and globals); the
// trace recorder uses it to mirror allocation events into trace files.
type AllocHook func(o Object)

// Heap is the simulated address space plus its allocator state.
// All methods are safe for concurrent use.
type Heap struct {
	base uint64
	size uint64
	geom cacheline.Geometry
	data []byte

	mu         sync.Mutex
	bump       uint64 // next uncarved byte, offset from base
	arenas     map[int]*arena
	objects    map[uint64]*Object // keyed by start address (live + quarantined + globals)
	starts     []uint64           // sorted start addresses; rebuilt lazily
	dirty      bool               // starts needs rebuild
	freeHooks  []FreeHook
	allocHooks []AllocHook
	liveBytes  uint64
	allocs     uint64
	frees      uint64
}

// arena is one thread's private allocation area.
type arena struct {
	thread    int
	cur       uint64     // current chunk bump pointer (absolute address)
	remaining uint64     // bytes left in current chunk
	freeLists [][]uint64 // per size-class free lists (start addresses)
}

// NewHeap creates a simulated heap. The backing store is allocated eagerly
// as one Go slice; untouched pages cost only virtual memory on Linux.
func NewHeap(cfg Config) (*Heap, error) {
	if cfg.Base == 0 {
		cfg.Base = DefaultBase
	}
	if cfg.Size == 0 {
		cfg.Size = DefaultSize
	}
	if cfg.LineSize == 0 {
		cfg.LineSize = cacheline.DefaultSize
	}
	geom, err := cacheline.NewGeometry(cfg.LineSize)
	if err != nil {
		return nil, err
	}
	if cfg.Size%chunkSize != 0 {
		return nil, fmt.Errorf("mem: heap size %d not a multiple of chunk size %d", cfg.Size, chunkSize)
	}
	if cfg.Base%chunkSize != 0 {
		return nil, fmt.Errorf("mem: heap base %#x not chunk-aligned", cfg.Base)
	}
	return &Heap{
		base:    cfg.Base,
		size:    cfg.Size,
		geom:    geom,
		data:    make([]byte, cfg.Size),
		arenas:  make(map[int]*arena),
		objects: make(map[uint64]*Object),
	}, nil
}

// MustNewHeap is NewHeap that panics on configuration errors.
func MustNewHeap(cfg Config) *Heap {
	h, err := NewHeap(cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// Base returns the heap's starting address.
func (h *Heap) Base() uint64 { return h.base }

// Size returns the heap's fixed size in bytes.
func (h *Heap) Size() uint64 { return h.size }

// Geometry returns the heap's physical line geometry.
func (h *Heap) Geometry() cacheline.Geometry { return h.geom }

// Contains reports whether [addr, addr+size) lies entirely inside the heap.
func (h *Heap) Contains(addr, size uint64) bool {
	return addr >= h.base && addr+size >= addr && addr+size <= h.base+h.size
}

// Data returns the backing bytes for [addr, addr+size). The returned slice
// aliases heap memory; it is the raw storage the typed accessors in
// package instr read and write.
func (h *Heap) Data(addr, size uint64) ([]byte, error) {
	if !h.Contains(addr, size) {
		return nil, fmt.Errorf("%w: [%#x,%#x)", ErrOutOfRange, addr, addr+size)
	}
	off := addr - h.base
	return h.data[off : off+size : off+size], nil
}

// Backing returns the whole backing store and the heap base address. It is
// the fast path used by the instrumentation accessors, which perform their
// own bounds checks; everyone else should use Data.
func (h *Heap) Backing() ([]byte, uint64) { return h.data, h.base }

// AddFreeHook registers a callback observing object recycling. Hooks run in
// registration order, outside the heap lock, each behind a recover boundary
// with a panic budget (resilience.DefaultPanicLimit): a hook that keeps
// panicking is quarantined while the heap — and every other hook — keeps
// working. Multiple subscribers coexist — the detection runtime resets
// metadata while a trace recorder mirrors the free into a trace file — so
// register, never replace.
func (h *Heap) AddFreeHook(hook FreeHook) {
	h.mu.Lock()
	defer h.mu.Unlock()
	g := resilience.NewGuard(fmt.Sprintf("mem.free_hook[%d]", len(h.freeHooks)+len(h.allocHooks)), 0, nil)
	h.freeHooks = append(h.freeHooks, func(start, size uint64) {
		g.Run(func() { hook(start, size) })
	})
}

// AddAllocHook registers an observer for new objects (heap allocations,
// globals, and imports). Hooks run in registration order, outside the heap
// lock, behind the same panic-isolation boundary as free hooks.
func (h *Heap) AddAllocHook(hook AllocHook) {
	h.mu.Lock()
	defer h.mu.Unlock()
	g := resilience.NewGuard(fmt.Sprintf("mem.alloc_hook[%d]", len(h.freeHooks)+len(h.allocHooks)), 0, nil)
	h.allocHooks = append(h.allocHooks, func(o Object) {
		g.Run(func() { hook(o) })
	})
}

// classFor returns the size-class index for a request, or -1 for large.
func classFor(size uint64) int {
	for i, c := range sizeClasses {
		if size <= uint64(c) {
			return i
		}
	}
	return -1
}

// roundSize returns the number of bytes actually carved for a request.
func roundSize(size uint64) uint64 {
	if size == 0 {
		size = 1
	}
	if ci := classFor(size); ci >= 0 {
		return uint64(sizeClasses[ci])
	}
	return (size + minAlign - 1) &^ (minAlign - 1)
}

// getArena returns (creating if needed) the arena for a thread id.
// Caller must hold h.mu.
func (h *Heap) getArena(thread int) *arena {
	a := h.arenas[thread]
	if a == nil {
		a = &arena{thread: thread, freeLists: make([][]uint64, len(sizeClasses))}
		h.arenas[thread] = a
	}
	return a
}

// refill gives the arena a fresh chunk. Caller must hold h.mu.
func (h *Heap) refill(a *arena, need uint64) error {
	n := uint64(chunkSize)
	for n < need {
		n += chunkSize
	}
	if h.bump+n > h.size {
		return ErrOutOfMemory
	}
	a.cur = h.base + h.bump
	a.remaining = n
	h.bump += n
	return nil
}

// allocLocked carves rounded bytes for thread, preferring the free list.
// Caller must hold h.mu.
func (h *Heap) allocLocked(thread int, size uint64) (uint64, error) {
	a := h.getArena(thread)
	rounded := roundSize(size)
	if ci := classFor(size); ci >= 0 {
		if fl := a.freeLists[ci]; len(fl) > 0 {
			addr := fl[len(fl)-1]
			a.freeLists[ci] = fl[:len(fl)-1]
			return addr, nil
		}
	}
	if a.remaining < rounded {
		if err := h.refill(a, rounded); err != nil {
			return 0, err
		}
	}
	addr := a.cur
	a.cur += rounded
	a.remaining -= rounded
	return addr, nil
}

// Alloc allocates size bytes on behalf of the given thread id, records the
// caller's callsite, and returns the object's start address. skip counts
// extra stack frames to skip when attributing the callsite (0 attributes
// Alloc's caller).
func (h *Heap) Alloc(thread int, size uint64, skip int) (uint64, error) {
	cs := callsite.Capture(skip + 1)
	h.mu.Lock()
	addr, err := h.allocLocked(thread, size)
	if err != nil {
		h.mu.Unlock()
		return 0, err
	}
	o := Object{Start: addr, Size: size, Thread: thread, Callsite: cs}
	h.finishAllocLocked(o)
	return addr, nil
}

// finishAllocLocked registers a fresh object, bumps counters, and runs the
// alloc hooks outside the heap lock. The caller must hold h.mu; it is
// released on return.
func (h *Heap) finishAllocLocked(o Object) {
	h.registerLocked(&o)
	h.allocs++
	h.liveBytes += o.Size
	hooks := h.allocHooks
	h.mu.Unlock()
	for _, hook := range hooks {
		hook(o)
	}
}

// AllocWithOffset allocates size bytes such that the returned address has
// the requested offset within its cache line. This is the experiment hook
// behind Figure 2 (object-alignment sensitivity): it lets harnesses place a
// potentially falsely-shared object at any line offset.
func (h *Heap) AllocWithOffset(thread int, size uint64, offset uint64, skip int) (uint64, error) {
	line := h.geom.Size()
	if offset >= line {
		return 0, fmt.Errorf("mem: offset %d >= line size %d", offset, line)
	}
	cs := callsite.Capture(skip + 1)
	h.mu.Lock()
	// Over-allocate one extra line and carve an interior start with the
	// desired offset. The slop bytes stay attributed to the same object's
	// carve but are not part of the object.
	raw, err := h.allocLocked(thread, size+line)
	if err != nil {
		h.mu.Unlock()
		return 0, err
	}
	addr := h.geom.AlignUp(raw) + offset
	if addr < raw {
		addr += line
	}
	h.finishAllocLocked(Object{Start: addr, Size: size, Thread: thread, Callsite: cs})
	return addr, nil
}

// registerLocked records an object. Caller must hold h.mu.
func (h *Heap) registerLocked(o *Object) {
	h.objects[o.Start] = o
	h.dirty = true
}

// DefineGlobal registers a named global variable of the given size inside
// the simulated address space. Globals are allocated from thread -1's arena
// and are never freed; PREDATOR reports them by name (paper §2.3).
func (h *Heap) DefineGlobal(name string, size uint64) (uint64, error) {
	h.mu.Lock()
	addr, err := h.allocLocked(-1, size)
	if err != nil {
		h.mu.Unlock()
		return 0, err
	}
	o := Object{Start: addr, Size: size, Thread: -1, Label: name, Global: true}
	h.registerLocked(&o)
	h.liveBytes += size
	hooks := h.allocHooks
	h.mu.Unlock()
	for _, hook := range hooks {
		hook(o)
	}
	return addr, nil
}

// ImportObject registers an object at a fixed address without running the
// allocator. It exists for trace replay (package trace), which must rebuild
// the recorded run's object table at the recorded addresses. The object must
// lie inside the heap and must not overlap a registered object.
func (h *Heap) ImportObject(o Object) error {
	if !h.Contains(o.Start, o.Size) {
		return fmt.Errorf("%w: import [%#x,%#x)", ErrOutOfRange, o.Start, o.End())
	}
	h.mu.Lock()
	h.rebuildLocked()
	if ex := h.findLocked(o.Start); ex != nil {
		h.mu.Unlock()
		return fmt.Errorf("mem: import overlaps object at %#x", ex.Start)
	}
	if o.Size > 0 {
		if ex := h.findLocked(o.End() - 1); ex != nil {
			h.mu.Unlock()
			return fmt.Errorf("mem: import overlaps object at %#x", ex.Start)
		}
	}
	imported := o
	h.registerLocked(&imported)
	h.allocs++
	h.liveBytes += o.Size
	hooks := h.allocHooks
	h.mu.Unlock()
	// Imported objects count as creations for observers, so a replayed run
	// produces the same allocation telemetry as the live run it recorded.
	for _, hook := range hooks {
		hook(o)
	}
	return nil
}

// Free releases the object starting at addr. Unflagged objects are recycled
// through their size-class free list after the free hook resets runtime
// metadata; flagged objects are quarantined forever (paper: "heap objects
// involved in false sharing are never reused").
func (h *Heap) Free(addr uint64) error {
	h.mu.Lock()
	o, ok := h.objects[addr]
	if !ok || o.Freed || o.Global {
		h.mu.Unlock()
		return fmt.Errorf("%w: %#x", ErrBadFree, addr)
	}
	if o.Flagged {
		// Quarantined: stays registered so reports can still resolve it.
		h.mu.Unlock()
		return nil
	}
	o.Freed = true
	h.frees++
	h.liveBytes -= o.Size
	if ci := classFor(o.Size); ci >= 0 {
		a := h.getArena(o.Thread)
		a.freeLists[ci] = append(a.freeLists[ci], o.Start)
	}
	// Freed, unflagged objects disappear from the object table so stale
	// attribution can't leak into later reports.
	delete(h.objects, addr)
	h.dirty = true
	hooks := h.freeHooks
	start, size := o.Start, o.Size
	// Hooks run outside the heap lock: they typically query the heap back
	// (e.g. ObjectsOverlapping) to decide which lines to reset.
	h.mu.Unlock()
	for _, hook := range hooks {
		hook(start, size)
	}
	return nil
}

// FlagObject marks the object containing addr as involved in false sharing,
// exempting it from reuse. It reports whether an object was found.
func (h *Heap) FlagObject(addr uint64) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	o := h.findLocked(addr)
	if o == nil {
		return false
	}
	o.Flagged = true
	return true
}

// rebuildLocked refreshes the sorted start index. Caller must hold h.mu.
func (h *Heap) rebuildLocked() {
	if !h.dirty {
		return
	}
	h.starts = h.starts[:0]
	for s := range h.objects {
		h.starts = append(h.starts, s)
	}
	sort.Slice(h.starts, func(i, j int) bool { return h.starts[i] < h.starts[j] })
	h.dirty = false
}

// findLocked returns the object containing addr, or nil.
// Caller must hold h.mu.
func (h *Heap) findLocked(addr uint64) *Object {
	h.rebuildLocked()
	i := sort.Search(len(h.starts), func(i int) bool { return h.starts[i] > addr })
	if i == 0 {
		return nil
	}
	o := h.objects[h.starts[i-1]]
	if o == nil || addr >= o.End() {
		return nil
	}
	return o
}

// FindObject returns a copy of the object containing addr.
func (h *Heap) FindObject(addr uint64) (Object, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	o := h.findLocked(addr)
	if o == nil {
		return Object{}, false
	}
	return *o, true
}

// ObjectsOverlapping returns copies of all registered objects intersecting
// [start, end), in address order. Reports use this to attribute a hot
// physical or virtual line to the objects on it.
func (h *Heap) ObjectsOverlapping(start, end uint64) []Object {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.rebuildLocked()
	var out []Object
	// Find the first object that could overlap: the one preceding start.
	i := sort.Search(len(h.starts), func(i int) bool { return h.starts[i] > start })
	if i > 0 {
		i--
	}
	for ; i < len(h.starts); i++ {
		o := h.objects[h.starts[i]]
		if o.Start >= end {
			break
		}
		if o.End() > start {
			out = append(out, *o)
		}
	}
	return out
}

// Observe wires the allocator into an observability layer: allocation and
// free counters, a live-bytes gauge, and — when the observer traces events —
// alloc/free lifecycle events. Call before the heap is used; hooks persist
// for the heap's lifetime. A nil observer is a no-op.
func (h *Heap) Observe(o *obs.Observer) {
	if o == nil {
		return
	}
	reg := o.Metrics()
	allocs := reg.Counter("predator_allocs_total",
		"Objects created on the simulated heap (allocations, globals, imports).")
	frees := reg.Counter("predator_frees_total",
		"Objects freed and recycled (quarantined objects never count).")
	live := reg.Gauge("predator_heap_live_bytes",
		"Requested bytes currently live on the simulated heap.")
	h.AddAllocHook(func(obj Object) {
		allocs.Inc()
		live.Add(int64(obj.Size))
		if o.Tracing() {
			o.Emit(obs.Event{Type: obs.EvAlloc, TID: obj.Thread, Addr: obj.Start,
				Size: obj.Size, Name: obj.Label, Global: obj.Global})
		}
	})
	h.AddFreeHook(func(start, size uint64) {
		frees.Inc()
		live.Add(-int64(size))
		if o.Tracing() {
			o.Emit(obs.Event{Type: obs.EvFree, Addr: start, Size: size})
		}
	})
}

// Stats reports allocator counters.
type Stats struct {
	Allocs    uint64 // objects allocated
	Frees     uint64 // objects freed (flagged objects never count)
	LiveBytes uint64 // requested bytes currently live
	UsedBytes uint64 // bytes carved from the heap (high-water mark)
	HeapBytes uint64 // total simulated heap size
}

// Stats returns a snapshot of allocator counters.
func (h *Heap) Stats() Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return Stats{
		Allocs:    h.allocs,
		Frees:     h.frees,
		LiveBytes: h.liveBytes,
		UsedBytes: h.bump,
		HeapBytes: h.size,
	}
}
