// Package eval regenerates every table and figure from the paper's
// evaluation (§4) on top of the reimplemented workloads:
//
//	Table 1  — false sharing found in Phoenix/PARSEC, without/with
//	           prediction, plus the projected improvement from fixing it
//	Figure 2 — linear_regression sensitivity to object placement offset
//	Figure 5 — an example PREDATOR report
//	Figure 7 — execution-time overhead (Original / PREDATOR-NP / PREDATOR)
//	Figure 8 — absolute memory usage
//	Figure 9 — relative memory overhead
//	Figure 10 — sampling-rate sensitivity
//	§4.1.2   — the six real-application case studies
//
// Wall-clock "improvement" numbers in the paper come from real multicore
// hardware; this reproduction projects them deterministically with the MESI
// cache simulator (internal/cachesim) fed by the same instrumented access
// streams, so the shape of the results is host-independent (see DESIGN.md).
package eval

import (
	"fmt"
	"sync"

	"predator/internal/cachesim"
	"predator/internal/core"
	"predator/internal/elide"
	"predator/internal/harness"
	"predator/internal/obs"
	"predator/internal/obs/spans"
)

// Config parameterizes an evaluation run.
type Config struct {
	Threads int
	Scale   int
	Repeats int         // timing repetitions (paper: 10); default 3
	Runtime core.Config // detection thresholds
	// Observer, when non-nil, aggregates metrics and lifecycle events
	// across every run the evaluation performs.
	Observer *obs.Observer
	// OnRuntime, when non-nil, receives each detection runtime the
	// evaluation constructs, right before its workload runs. The live
	// diagnostics server uses it to follow the evaluation from run to run.
	OnRuntime func(*core.Runtime)
	// OnResult, when non-nil, receives every detection run's result right
	// after the run completes. The fleet exporter hangs off this hook to
	// stream each workload's findings report without the evaluation code
	// knowing about the network.
	OnResult func(workload string, mode harness.Mode, res *harness.Result)
	// Deterministic serializes workers under the round-robin scheduler so
	// detection counts are exactly reproducible — the mode the benchmark
	// regression gate (predbench -bench-compare) runs in, since its
	// finding-drift check needs run-to-run stable counts.
	Deterministic bool
	// Elide, when non-nil, is a predlint elision manifest applied to every
	// detection run (never to Original-mode timing, which has no
	// instrumentation to skip).
	Elide *elide.Manifest
	// Span, when non-nil, is the parent span every detection run's
	// eval.detect span nests under — typically the CLI's root span. The
	// tracer itself rides on Observer (obs.SetSpans).
	Span *spans.Span
}

// Default returns the evaluation configuration scaled for the test-sized
// workload inputs (the paper's absolute thresholds assume minutes-long
// native runs).
func Default() Config {
	return Config{
		Threads: 8,
		Scale:   1,
		Repeats: 3,
		Runtime: core.Config{
			TrackingThreshold:   50,
			PredictionThreshold: 100,
			ReportThreshold:     200,
			Prediction:          true,
		},
	}
}

// PhoenixWorkloads lists the Phoenix suite in the paper's order.
func PhoenixWorkloads() []string {
	return []string{"histogram", "kmeans", "linear_regression", "matrix_multiply",
		"pca", "reverse_index", "string_match", "word_count"}
}

// ParsecWorkloads lists the PARSEC suite in the paper's order.
func ParsecWorkloads() []string {
	return []string{"blackscholes", "bodytrack", "dedup", "ferret",
		"fluidanimate", "streamcluster", "swaptions", "x264"}
}

// AppWorkloads lists the real-application analogs.
func AppWorkloads() []string {
	return []string{"aget", "boost", "memcached", "mysql", "pbzip2", "pfscan"}
}

// AllWorkloads returns every evaluated workload, suites in paper order.
func AllWorkloads() []string {
	out := append([]string{}, PhoenixWorkloads()...)
	out = append(out, ParsecWorkloads()...)
	out = append(out, AppWorkloads()...)
	return out
}

// access is one captured instrumentation event.
type access struct {
	tid     int
	addr    uint64
	size    uint32
	isWrite bool
}

// captureSink records the full instrumented access stream in arrival order.
type captureSink struct {
	mu     sync.Mutex
	events []access
}

func (s *captureSink) HandleAccess(tid int, addr, size uint64, isWrite bool) {
	s.mu.Lock()
	s.events = append(s.events, access{tid: tid, addr: addr, size: uint32(size), isWrite: isWrite})
	s.mu.Unlock()
}

// interleaveGrain is how many consecutive accesses one thread issues before
// the synthetic round-robin schedule switches threads. The paper's analysis
// conservatively assumes threads interleave (each runs on its own core);
// replaying captured per-thread streams at a fine grain realizes exactly
// that assumption, independent of the host's goroutine scheduling.
const interleaveGrain = 4

// replayInterleaved feeds captured events to the simulator: the sequential
// prologue and epilogue (the main thread's setup and reduction) play in
// order, while the concurrent middle is re-interleaved round-robin across
// threads in interleaveGrain-sized slices.
func replayInterleaved(sim *cachesim.Sim, events []access) {
	// The parallel phase is bounded by the first and last event of any
	// thread other than the lowest tid seen (the main thread).
	mainTID := 0
	if len(events) > 0 {
		mainTID = events[0].tid
	}
	first, last := -1, -1
	for i, e := range events {
		if e.tid != mainTID {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	feed := func(evs []access) {
		for _, e := range evs {
			sim.Access(e.tid, e.addr, uint64(e.size), e.isWrite)
		}
	}
	if first < 0 {
		feed(events)
		return
	}
	feed(events[:first])
	// Split the middle by thread, preserving each thread's program order.
	streams := map[int][]access{}
	var order []int
	for _, e := range events[first : last+1] {
		if _, ok := streams[e.tid]; !ok {
			order = append(order, e.tid)
		}
		streams[e.tid] = append(streams[e.tid], e)
	}
	pos := make(map[int]int, len(order))
	remaining := last + 1 - first
	for remaining > 0 {
		for _, tid := range order {
			st := streams[tid]
			i := pos[tid]
			n := min(interleaveGrain, len(st)-i)
			if n <= 0 {
				continue
			}
			feed(st[i : i+n])
			pos[tid] = i + n
			remaining -= n
		}
	}
	feed(events[last+1:])
}

// simulate replays one workload variant through the cache simulator under
// the synthetic fine-grained interleaving and returns elapsed model cycles
// and simulator stats.
func simulate(cfg Config, workload string, buggy bool, offset uint64) (uint64, cachesim.Stats, error) {
	return Simulate(cfg, workload, buggy, offset)
}

// Simulate replays one workload variant through the deterministic cache
// simulator (see simulate); exported for the repository's benchmarks.
func Simulate(cfg Config, workload string, buggy bool, offset uint64) (uint64, cachesim.Stats, error) {
	w, ok := harness.Get(workload)
	if !ok {
		return 0, cachesim.Stats{}, fmt.Errorf("eval: unknown workload %q", workload)
	}
	sink := &captureSink{}
	opts := harness.Options{
		Threads:  cfg.Threads,
		Scale:    cfg.Scale,
		Buggy:    buggy,
		Offset:   offset,
		Observer: cfg.Observer,
	}
	if _, err := harness.ExecuteSim(w, opts, sink); err != nil {
		return 0, cachesim.Stats{}, err
	}
	sim := cachesim.MustNew(cachesim.Config{Cores: cfg.Threads + 1})
	replayInterleaved(sim, sink.events)
	return sim.ElapsedCycles(), sim.Stats(), nil
}

// detect runs one workload variant under PREDATOR and returns the result.
func detect(cfg Config, workload string, mode harness.Mode, buggy bool, offset uint64) (*harness.Result, error) {
	w, ok := harness.Get(workload)
	if !ok {
		return nil, fmt.Errorf("eval: unknown workload %q", workload)
	}
	rc := cfg.Runtime
	dsp := cfg.Observer.Spans().Start("eval.detect", cfg.Span)
	dsp.SetLabel("workload", workload)
	dsp.SetLabel("mode", mode.String())
	res, err := harness.Execute(w, harness.Options{
		Mode:          mode,
		Threads:       cfg.Threads,
		Scale:         cfg.Scale,
		Buggy:         buggy,
		Offset:        offset,
		Runtime:       &rc,
		Observer:      cfg.Observer,
		OnRuntime:     cfg.OnRuntime,
		Deterministic: cfg.Deterministic,
		Elide:         cfg.Elide,
		Span:          dsp,
	})
	if err == nil && res.Report != nil {
		dsp.SetAttr("findings", uint64(len(res.Report.Findings)))
	}
	dsp.End()
	if err == nil && cfg.OnResult != nil {
		cfg.OnResult(workload, mode, res)
	}
	return res, err
}
