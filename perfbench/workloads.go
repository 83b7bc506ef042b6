package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"time"

	"predator/internal/core"
	"predator/internal/harness"
	"predator/internal/mem"
	"predator/internal/report"
	"predator/internal/trace"

	_ "predator/internal/workloads/parsec"
	_ "predator/internal/workloads/phoenix"
)

// spec is one benchmark workload. NOTES.md records why each was chosen.
type spec struct {
	name     string
	workload string // harness registry name
	scale    int
	buggy    bool
	// deterministic runs the workers under the harness's round-robin
	// scheduler, so the interleaving, and with it the verdict and every
	// count, is a function of the seed alone.
	deterministic bool
	replay        bool // offline: record a trace at set-up, time its replay
}

var specs = []spec{
	{name: "lreg_predict", workload: "linear_regression", scale: 8, buggy: true, deterministic: true},
	{name: "matmul_clean", workload: "matrix_multiply", scale: 3},
	{name: "replay_stream", workload: "streamcluster", scale: 4, buggy: true, deterministic: true, replay: true},
}

// replayThreads is fixed, not GOMAXPROCS, so the recorded trace (and its
// hash) is the same on every host.
const replayThreads = 2

// heapSize is the simulated heap of every run, the harness default.
const heapSize = 64 << 20

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// detectConfig is the detector configuration of every detection run: the
// paper defaults, with prediction on for PREDATOR and off for PREDATOR-NP.
func detectConfig(predict bool) core.Config {
	cfg := core.DefaultConfig()
	cfg.Prediction = predict
	return cfg
}

// checker counts detection runs and the ones whose outputs are wrong. It
// never retries: a failed run stays failed.
type checker struct {
	native   uint64 // Original checksum for this seed
	wantFS   bool   // expected verdict, from Workload.HasFalseSharing
	attempts int
	failures int
	reasons  map[string]int
	replay   *replaySig // first replay's counts; later replays must match
}

func newChecker(native uint64, wantFS bool) *checker {
	return &checker{native: native, wantFS: wantFS, reasons: map[string]int{}}
}

// check records one detection run. verdict is false for PREDATOR-NP runs,
// whose missing prediction legitimately misses latent bugs.
func (c *checker) check(err error, checksum uint64, rep *report.Report, verdict bool) {
	c.attempts++
	reason := ""
	switch {
	case err != nil:
		reason = "error: " + err.Error()
	case checksum != c.native:
		reason = "checksum differs from Original"
	case verdict && (len(rep.FalseSharing()) > 0) != c.wantFS:
		reason = fmt.Sprintf("verdict: false sharing found=%v, want %v", !c.wantFS, c.wantFS)
	}
	c.fail(reason)
}

// checkReplay records one replay: the verdict must hold and every replay of
// one trace must produce the counts of the first.
func (c *checker) checkReplay(err error, res *trace.ReplayResult, predict bool) {
	c.attempts++
	if err != nil {
		c.fail("error: " + err.Error())
		return
	}
	if predict && (len(res.Report.FalseSharing()) > 0) != c.wantFS {
		c.fail(fmt.Sprintf("verdict: false sharing found=%v, want %v", !c.wantFS, c.wantFS))
		return
	}
	if !predict {
		return // NP replays run only in the traced ladder; nothing to compare
	}
	sig := replaySig{res.Stats, len(res.Report.Findings), len(res.Report.FalseSharing())}
	if c.replay == nil {
		c.replay = &sig
	} else if sig != *c.replay {
		c.fail("replay counts differ between iterations")
	}
}

func (c *checker) fail(reason string) {
	if reason != "" {
		c.failures++
		c.reasons[reason]++
	}
}

// replaySig is what must repeat exactly across replays of one trace.
type replaySig struct {
	stats        core.Stats
	findings, fs int
}

// sample is one timed detection iteration, measured from outside the
// program: set-up ends when the OnRuntime hook fires.
type sample struct {
	setup    time.Duration // construction before the first access
	work     time.Duration // workload phase (replay: event loop)
	verdict  time.Duration // workload start until the report is returned
	accesses uint64        // accesses analysed (replay: trace events)
}

func liveOptions(s spec, seed int64, threads int, mode harness.Mode) harness.Options {
	return harness.Options{
		Mode:          mode,
		Threads:       threads,
		Scale:         s.scale,
		Buggy:         s.buggy,
		Seed:          seed,
		HeapSize:      heapSize,
		Deterministic: s.deterministic,
	}
}

// liveIteration runs one untraced PREDATOR execution through the public
// harness entry point and times it from outside.
func liveIteration(w harness.Workload, opts harness.Options) (sample, *harness.Result, error) {
	var ready time.Time
	opts.OnRuntime = func(*core.Runtime) { ready = time.Now() }
	t0 := time.Now()
	res, err := harness.Execute(w, opts)
	t1 := time.Now()
	if err != nil {
		return sample{}, nil, err
	}
	return sample{
		setup:    ready.Sub(t0),
		work:     res.Duration,
		verdict:  t1.Sub(ready),
		accesses: res.RuntimeStats.Accesses,
	}, res, nil
}

// recordTrace runs the workload once with a trace writer as its only sink
// and returns the encoded trace, as predreplay -record does.
func recordTrace(w harness.Workload, opts harness.Options) ([]byte, uint64, error) {
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, trace.Header{HeapBase: mem.DefaultBase, HeapSize: heapSize, LineSize: 64})
	if err != nil {
		return nil, 0, err
	}
	h, err := mem.NewHeap(mem.Config{Size: heapSize})
	if err != nil {
		return nil, 0, err
	}
	trace.Mirror(h, tw)
	res, err := harness.ExecuteSimOnHeap(w, opts, h, tw)
	if err != nil {
		return nil, 0, err
	}
	if err := tw.Flush(); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), res.Checksum, nil
}

func traceDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// eofReader notes when its source first reports io.EOF. The trace reader
// consumes its input through a read-ahead buffer and meets EOF within its
// last few hundred bytes, so that instant closes the replay's event loop
// and separates it from report collection without touching the program.
type eofReader struct {
	r   io.Reader
	eof time.Time
}

func (e *eofReader) Read(p []byte) (int, error) {
	n, err := e.r.Read(p)
	if err == io.EOF && e.eof.IsZero() {
		e.eof = time.Now()
	}
	return n, err
}

// replayIteration replays the trace through the public offline entry point
// and times it from outside.
func replayIteration(data []byte, cfg core.Config) (sample, *trace.ReplayResult, error) {
	src := &eofReader{r: bytes.NewReader(data)}
	var ready time.Time
	t0 := time.Now()
	res, err := trace.ReplayWithOptions(src, cfg, trace.ReplayOptions{
		OnRuntime: func(*core.Runtime) { ready = time.Now() },
	})
	t1 := time.Now()
	if err != nil {
		return sample{}, nil, err
	}
	return sample{
		setup:    ready.Sub(t0),
		work:     src.eof.Sub(ready),
		verdict:  t1.Sub(ready),
		accesses: res.Events,
	}, res, nil
}

// heapMB runs one untimed, checked PREDATOR iteration and returns the Go
// heap growth across it in MB, the paper's Figure 8 quantity: a live run's
// harness.Result.MemUsed, or the same measurement around one replay, with
// the trace bytes already resident.
func (b *bench) heapMB() (float64, error) {
	if !b.spec.replay {
		opts := liveOptions(b.spec, b.rc.seed, b.threads, harness.ModePredict)
		opts.MeasureMemory = true
		res, err := harness.Execute(b.w, opts)
		if err != nil {
			b.ck.check(err, 0, nil, true)
			return 0, err
		}
		b.ck.check(nil, res.Checksum, res.Report, true)
		return float64(res.MemUsed()) / (1 << 20), nil
	}
	var rt *core.Runtime
	before := goHeapBytes()
	res, err := trace.ReplayWithOptions(bytes.NewReader(b.data), detectConfig(true), trace.ReplayOptions{
		OnRuntime: func(r *core.Runtime) { rt = r },
	})
	after := goHeapBytes()
	// The runtime (and the heap it holds) must stay reachable until after
	// the measurement, or the GC frees exactly what is measured.
	runtime.KeepAlive(rt)
	b.ck.checkReplay(err, res, true)
	if err != nil {
		return 0, err
	}
	if after < before {
		return 0, nil
	}
	return float64(after-before) / (1 << 20), nil
}

// goHeapBytes returns post-GC Go heap usage, as the harness measures it.
func goHeapBytes() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
