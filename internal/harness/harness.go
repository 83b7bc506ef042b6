// Package harness runs workloads under PREDATOR. It owns the benchmark
// lifecycle the paper's evaluation needs: build a simulated heap, attach (or
// not) the detection runtime, mint one instrumented Thread per worker
// goroutine, time the run, snapshot Go memory statistics, and collect the
// final report. Three modes mirror the paper's Figure 7 configurations:
// Original (no instrumentation), PREDATOR-NP (detection only) and PREDATOR
// (detection + prediction).
package harness

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"predator/internal/core"
	"predator/internal/elide"
	"predator/internal/instr"
	"predator/internal/mem"
	"predator/internal/obs"
	"predator/internal/obs/spans"
	"predator/internal/report"
	"predator/internal/sched"
)

// Mode selects the instrumentation configuration.
type Mode int

// Modes, matching the paper's evaluation legend.
const (
	// ModeNative runs without any instrumentation ("Original").
	ModeNative Mode = iota
	// ModeDetect runs detection without prediction ("PREDATOR-NP").
	ModeDetect
	// ModePredict runs full detection + prediction ("PREDATOR").
	ModePredict
)

// String names the mode as in the paper's figures.
func (m Mode) String() string {
	switch m {
	case ModeNative:
		return "Original"
	case ModeDetect:
		return "PREDATOR-NP"
	case ModePredict:
		return "PREDATOR"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// UseDefaultOffset makes workloads use their natural allocation placement.
const UseDefaultOffset = ^uint64(0)

// Ctx is the environment one workload run executes in.
type Ctx struct {
	In      *instr.Instrumenter
	Heap    *mem.Heap
	Threads int    // worker goroutine count
	Scale   int    // work multiplier; 1 is the standard evaluation size
	Buggy   bool   // run the variant with the paper's sharing bug
	Offset  uint64 // forced in-line placement offset, or UseDefaultOffset
	Seed    int64  // deterministic input seed

	yieldMask uint64
	detGrain  int         // >0: Parallel runs workers under the deterministic scheduler
	span      *spans.Span // workload span Parallel groups nest under (nil: untraced)
}

// Rand returns a deterministic source for workload input generation.
func (c *Ctx) Rand() *rand.Rand { return rand.New(rand.NewSource(c.Seed)) }

// NewThread mints an instrumented thread handle.
func (c *Ctx) NewThread(name string) *instr.Thread { return c.In.NewThread(name) }

// MaybeYield cooperatively yields every 16th call. Hot workload loops call
// it with their iteration counter: it models preemptive scheduling so worker
// interleaving (and hence invalidation traffic) does not depend on
// GOMAXPROCS — on a single-CPU host, goroutines only interleave at yield
// points, and without interleaving there is no sharing to observe.
func (c *Ctx) MaybeYield(i int) {
	if uint64(i)&c.yieldMask == c.yieldMask {
		runtime.Gosched()
	}
}

// Parallel runs body in n goroutines, each with its own named Thread, and
// waits for all of them. Workers start together. The first panic, if any,
// propagates. In deterministic mode (Options.Deterministic) the workers run
// under a round-robin scheduler rotating every DeterministicGrain accesses,
// making detection counts exactly reproducible. Workers that share a lock
// take it with instr.Thread.Lock, which hands the turn on while the lock is
// held elsewhere.
func (c *Ctx) Parallel(n int, name string, body func(t *instr.Thread, id int)) {
	var wg sync.WaitGroup
	start := make(chan struct{})
	panics := make(chan any, n)
	var scheduler *sched.Scheduler
	if c.detGrain > 0 {
		scheduler = sched.New(c.detGrain)
	}
	psp := c.span.Child("harness.parallel")
	psp.SetLabel("group", name)
	psp.SetAttr("threads", uint64(n))
	defer psp.End()
	for i := 0; i < n; i++ {
		th := c.NewThread(fmt.Sprintf("%s-%d", name, i))
		var slot *sched.Slot
		if scheduler != nil {
			slot = scheduler.Register()
			th.SetSlot(slot)
		}
		wg.Add(1)
		go func(th *instr.Thread, slot *sched.Slot, id int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics <- p
				}
			}()
			if slot != nil {
				defer slot.Done()
			}
			<-start
			if slot != nil {
				slot.WaitTurn()
			}
			// Workload goroutines carry pprof labels so CPU profiles from
			// the diagnostics server split workload time (and the
			// instrumentation cost it pays inline) from detector phases.
			pprof.Do(context.Background(),
				pprof.Labels("predator_phase", "workload", "predator_worker", th.Name()),
				func(context.Context) { body(th, id) })
		}(th, slot, i)
	}
	close(start)
	var drain *spans.Span
	if scheduler != nil {
		// The drain span covers the deterministic scheduler's whole
		// rotation: from releasing the first turn until every slot retires.
		drain = psp.Child("sched.drain")
		scheduler.Start()
	}
	wg.Wait()
	drain.End()
	select {
	case p := <-panics:
		panic(p)
	default:
	}
}

// Workload is one runnable benchmark with a buggy and a fixed variant.
type Workload interface {
	// Name is the registry key (e.g. "linear_regression").
	Name() string
	// Suite labels the group ("phoenix", "parsec", "apps").
	Suite() string
	// Description says what the kernel computes and where the paper's
	// sharing bug lives (empty if the workload is clean).
	Description() string
	// HasFalseSharing reports whether the paper's Table 1 lists a false
	// sharing problem for this workload.
	HasFalseSharing() bool
	// Run executes the kernel under the context and returns a checksum
	// of its computational result (so tests can verify the buggy and
	// fixed variants compute the same thing).
	Run(c *Ctx) (uint64, error)
}

// registry of workloads, populated by the workload packages' init funcs.
var (
	regMu    sync.Mutex
	registry = map[string]Workload{}
)

// Register adds a workload; duplicate names panic (they indicate a wiring
// bug, not a runtime condition).
func Register(w Workload) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[w.Name()]; dup {
		panic("harness: duplicate workload " + w.Name())
	}
	registry[w.Name()] = w
}

// Get looks up a workload by name.
func Get(name string) (Workload, bool) {
	regMu.Lock()
	defer regMu.Unlock()
	w, ok := registry[name]
	return w, ok
}

// All returns the registered workloads sorted by suite then name.
func All() []Workload {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]Workload, 0, len(registry))
	for _, w := range registry {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Suite() != out[j].Suite() {
			return out[i].Suite() < out[j].Suite()
		}
		return out[i].Name() < out[j].Name()
	})
	return out
}

// Options configures one execution.
type Options struct {
	Mode     Mode
	Threads  int    // default 8
	Scale    int    // default 1
	Buggy    bool   // run the buggy variant
	Offset   uint64 // forced placement offset; default UseDefaultOffset
	HeapSize uint64 // default 64 MiB
	Seed     int64  // default 42
	// Runtime overrides the detection config (nil = paper defaults, with
	// Prediction forced to match Mode).
	Runtime *core.Config
	// Policy selects instrumentation filtering.
	Policy instr.Policy
	// MeasureMemory snapshots Go memory statistics around the run
	// (forces GC twice; skip it in latency-sensitive benchmarks).
	MeasureMemory bool
	// Deterministic serializes workers under a round-robin scheduler so
	// invalidation counts are exactly reproducible.
	Deterministic bool
	// DeterministicGrain is the accesses-per-turn rotation grain
	// (default 16, matching MaybeYield's free-running cadence).
	DeterministicGrain int
	// Observer, when non-nil, wires the heap, instrumentation front-end,
	// and detection runtime into the observability subsystem.
	Observer *obs.Observer
	// Strict selects the instrumentation out-of-heap policy. Nil (the
	// default) keeps strict mode: out-of-heap accesses panic. Point it at
	// false for the resilience layer's fault-tolerant mode (recoverable
	// instr.ErrOutOfHeap faults).
	Strict *bool
	// OnRuntime, when non-nil, receives the detection runtime right after
	// construction, before the workload runs. The live diagnostics server
	// uses it to attach the runtime as its scrape source; it is never
	// called in ModeNative (no runtime exists).
	OnRuntime func(*core.Runtime)
	// Elide, when non-nil, is a predlint elision manifest: accesses to
	// objects the static prover showed cannot contribute invalidations are
	// dropped before delivery. The binder's margin is sized to the largest
	// prediction factor, so elision never changes finding counts — only
	// how much instrumentation the safe objects pay.
	Elide *elide.Manifest
	// Span, when non-nil, is the parent span this execution's pipeline
	// spans (harness.setup, elide.bind, harness.workload, report.collect)
	// nest under. The span tracer itself rides on Observer (obs.SetSpans);
	// with no tracer attached every span call is an absorbed nil no-op.
	Span *spans.Span
}

// normalized fills defaults.
func (o Options) normalized() Options {
	if o.Threads == 0 {
		o.Threads = 8
	}
	if o.Scale == 0 {
		o.Scale = 1
	}
	if o.HeapSize == 0 {
		o.HeapSize = 64 << 20
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Offset == 0 {
		// Zero is a meaningful offset; only replace the zero value when
		// the caller did not set Offset explicitly. Options users who
		// want offset 0 must say so via ForceOffsetZero.
		o.Offset = UseDefaultOffset
	}
	return o
}

// ForceOffsetZero is a non-zero sentinel meaning "offset 0" (since the zero
// Options value means "default placement").
const ForceOffsetZero = uint64(1) << 63

// Result is one execution's measurements.
type Result struct {
	Workload string
	Mode     Mode
	Buggy    bool
	Threads  int
	Scale    int

	Checksum uint64
	Duration time.Duration

	// Report and RuntimeStats are nil/zero in ModeNative.
	Report       *report.Report
	RuntimeStats core.Stats
	HeapStats    mem.Stats

	// ThreadNames maps dense thread IDs to the labels the workload gave
	// them — the timeline exporter's track names.
	ThreadNames map[int]string

	// MemBefore/MemAfter are Go heap stats (bytes) when MeasureMemory.
	MemBefore uint64
	MemAfter  uint64

	// Elided counts accesses dropped by the static elision fast path
	// (zero without Options.Elide).
	Elided uint64
}

// FalseSharingFound reports whether the run's report contains false (or
// mixed) sharing findings.
func (r *Result) FalseSharingFound() bool {
	return r.Report != nil && len(r.Report.FalseSharing()) > 0
}

// PredictedOnly reports whether false sharing was found only through
// prediction (no observed false-sharing findings).
func (r *Result) PredictedOnly() bool {
	if r.Report == nil {
		return false
	}
	obsFS, predFS := false, false
	for _, f := range r.Report.FalseSharing() {
		if f.Source == report.SourceObserved {
			obsFS = true
		} else {
			predFS = true
		}
	}
	return predFS && !obsFS
}

// MemUsed returns the measured Go-heap growth across the run.
func (r *Result) MemUsed() uint64 {
	if r.MemAfter > r.MemBefore {
		return r.MemAfter - r.MemBefore
	}
	return 0
}

// Execute runs one workload under the given options.
func Execute(w Workload, opts Options) (*Result, error) {
	return execute(w, opts, nil, nil)
}

// ExecuteSim runs a workload with every instrumented access delivered to
// the given sink instead of a PREDATOR runtime — the hook the evaluation
// uses to replay workloads through the deterministic cache simulator. The
// result carries no report; opts.Mode is ignored.
func ExecuteSim(w Workload, opts Options, sink instr.Sink) (*Result, error) {
	if sink == nil {
		return nil, fmt.Errorf("harness: ExecuteSim requires a sink")
	}
	return execute(w, opts, nil, sink)
}

// ExecuteSimOnHeap is ExecuteSim against a caller-provided heap, so callers
// can install heap hooks (e.g. a trace recorder's alloc mirror) before the
// workload allocates anything. opts.HeapSize is ignored.
func ExecuteSimOnHeap(w Workload, opts Options, h *mem.Heap, sink instr.Sink) (*Result, error) {
	if sink == nil || h == nil {
		return nil, fmt.Errorf("harness: ExecuteSimOnHeap requires a heap and a sink")
	}
	return execute(w, opts, h, sink)
}

// execute implements the Execute variants.
func execute(w Workload, opts Options, heap *mem.Heap, sinkOverride instr.Sink) (*Result, error) {
	opts = opts.normalized()
	offset := opts.Offset
	if offset == ForceOffsetZero {
		offset = 0
	}

	var memBefore uint64
	if opts.MeasureMemory {
		memBefore = goHeapBytes()
	}

	tracer := opts.Observer.Spans()
	setup := tracer.Start("harness.setup", opts.Span)
	setup.SetLabel("workload", w.Name())
	setup.SetLabel("mode", opts.Mode.String())
	setup.SetAttr("heap_bytes", opts.HeapSize)

	h := heap
	if h == nil {
		var err error
		h, err = mem.NewHeap(mem.Config{Size: opts.HeapSize})
		if err != nil {
			setup.End()
			return nil, err
		}
	}
	h.Observe(opts.Observer)
	var err error
	var rt *core.Runtime
	var sink instr.Sink
	cfg := core.DefaultConfig()
	if opts.Runtime != nil {
		cfg = *opts.Runtime
	}
	if sinkOverride != nil {
		sink = sinkOverride
	} else if opts.Mode != ModeNative {
		cfg.Prediction = opts.Mode == ModePredict
		if opts.Observer != nil {
			cfg.Observer = opts.Observer
		}
		rt, err = core.NewRuntime(h, cfg)
		if err != nil {
			setup.End()
			return nil, err
		}
		if opts.OnRuntime != nil {
			opts.OnRuntime(rt)
		}
		sink = rt
	}
	in := instr.New(h, sink, opts.Policy)
	in.Observe(opts.Observer)
	if opts.Strict != nil {
		in.SetStrict(*opts.Strict)
	}
	setup.End()
	if opts.Elide != nil && sink != nil {
		esp := tracer.Start("elide.bind", opts.Span)
		esp.SetAttr("entries", uint64(len(opts.Elide.Entries)))
		binder, berr := elide.NewBinder(opts.Elide, h.Geometry(), cfg.ElideMargin())
		if berr != nil {
			esp.End()
			return nil, fmt.Errorf("harness: elision manifest: %w", berr)
		}
		binder.Attach(h)
		in.SetElision(binder)
		esp.SetAttr("margin_lines", uint64(cfg.ElideMargin()))
		esp.End()
	}

	ctx := &Ctx{
		In:        in,
		Heap:      h,
		Threads:   opts.Threads,
		Scale:     opts.Scale,
		Buggy:     opts.Buggy,
		Offset:    offset,
		Seed:      opts.Seed,
		yieldMask: 15,
	}
	if opts.Deterministic {
		ctx.detGrain = opts.DeterministicGrain
		if ctx.detGrain == 0 {
			ctx.detGrain = 16
		}
	}

	// The workload span covers execution proper: detector-phase spans minted
	// during the run (predict.search) nest under it, while the final report
	// span nests under the run's parent.
	wsp := tracer.Start("harness.workload", opts.Span)
	wsp.SetLabel("workload", w.Name())
	wsp.SetLabel("mode", opts.Mode.String())
	ctx.span = wsp
	if rt != nil {
		rt.SetSpan(wsp)
	}
	start := time.Now()
	checksum, err := w.Run(ctx)
	elapsed := time.Since(start)
	if err != nil {
		wsp.End()
		return nil, fmt.Errorf("harness: %s: %w", w.Name(), err)
	}

	res := &Result{
		Workload:    w.Name(),
		Mode:        opts.Mode,
		Buggy:       opts.Buggy,
		Threads:     opts.Threads,
		Scale:       opts.Scale,
		Checksum:    checksum,
		Duration:    elapsed,
		HeapStats:   h.Stats(),
		MemBefore:   memBefore,
		ThreadNames: in.ThreadNames(),
	}
	in.FlushMetrics()
	res.Elided = in.Elided()
	// Overhead attribution: the workload span carries the per-component
	// counters — what the front-end suppressed and elided, and what the
	// detector received, tracked and invalidated during execution.
	wsp.SetAttr("suppressed", in.Suppressed())
	wsp.SetAttr("elided", res.Elided)
	if rt != nil {
		st := rt.Stats()
		wsp.SetAttr("accesses_dispatched", st.Accesses)
		wsp.SetAttr("accesses", st.Accesses)
		wsp.SetAttr("invalidations", st.Invalidations)
		wsp.SetAttr("tracked_lines", uint64(st.TrackedLines))
		wsp.SetAttr("virtual_lines", uint64(st.VirtualLines))
	}
	wsp.End()
	if rt != nil {
		rt.SetSpan(opts.Span)
		res.Report = rt.Report()
		res.RuntimeStats = rt.Stats()
	}
	if opts.MeasureMemory {
		res.MemAfter = goHeapBytes()
		// The heap and runtime must stay reachable until after the
		// measurement, or the GC frees exactly what we are measuring.
		runtime.KeepAlive(h)
		runtime.KeepAlive(rt)
		runtime.KeepAlive(in)
	}
	return res, nil
}

// goHeapBytes returns post-GC Go heap usage, the reproduction's analog of
// the paper's proportional-set-size measurement.
func goHeapBytes() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
