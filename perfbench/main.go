// Command perfbench is the repository benchmark: it measures what a
// developer pays to find false sharing with PREDATOR, end to end and layer
// by layer, on three workloads (see NOTES.md).
//
//	bash perfbench/run.sh --workload lreg_predict --seed 1 --seconds 10 --trace 0
//
// It drives detection only through the entry points the CLIs use
// (harness.Execute, trace.ReplayWithOptions) and times the program from
// outside, using the OnRuntime hook to find where set-up ends. --trace 0
// prints the end-to-end metrics; --trace 1 runs the layer ladder with the
// benchmark's own spans and prints the per-layer metrics. The last line of
// standard output is always one JSON object:
//
//	{"correct": true, "attempted": 17, "failed": 0, "metrics": {"setup_s": {"value": 0.012, "unit": "s"}, ...}}
//
// On any set-up error it prints no result and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"predator/internal/harness"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is one benchmark invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	root     string // repository root: source digest
	outDir   string // where the traced run writes its spans
	// The self-test sets these: a smaller input scale (when > 0), and an
	// inverted expected verdict to show a wrong answer counts as failed.
	scale       int
	flipVerdict bool
}

func main() {
	var rc runConfig
	var traced int
	flag.StringVar(&rc.workload, "workload", "", "workload: "+workloadNames())
	flag.Int64Var(&rc.seed, "seed", 1, "input seed, passed on as harness.Options.Seed")
	flag.Float64Var(&rc.seconds, "seconds", 10, "seconds of timed iterations")
	flag.IntVar(&traced, "trace", 0, "1: run the traced layer ladder and print per-layer metrics")
	flag.Parse()
	rc.traced = traced == 1
	rc.root = "."
	rc.outDir = ".bench_build/perfbench"

	res, err := run(os.Stdout, rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return strings.Join(names, ", ")
}

// bench is the state one run shares between its phases.
type bench struct {
	rc      runConfig
	spec    spec
	w       harness.Workload
	threads int
	out     io.Writer
	ck      *checker
	data    []byte // replay_stream's recorded trace
}

// run executes one benchmark invocation, printing a human-readable report
// to out, and returns the result line.
func run(out io.Writer, rc runConfig) (*result, error) {
	s, ok := findSpec(rc.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", rc.workload, workloadNames())
	}
	if rc.scale > 0 {
		s.scale = rc.scale
	}
	w, ok := harness.Get(s.workload)
	if !ok {
		return nil, fmt.Errorf("workload %q is not registered", s.workload)
	}
	b := &bench{rc: rc, spec: s, w: w, threads: runtime.GOMAXPROCS(0), out: out}
	if s.replay {
		b.threads = replayThreads
	}

	st := newStamp(rc.root)
	st.Workload, st.Seed, st.Scale, st.Threads = s.name, rc.seed, s.scale, b.threads
	stampJSON, _ := json.Marshal(st)
	fmt.Fprintf(out, "stamp %s\n", stampJSON)

	if err := b.prepare(); err != nil {
		return nil, err
	}
	var metrics map[string]metric
	var err error
	if rc.traced {
		metrics, err = b.tracedRun(st)
	} else {
		metrics, err = b.untracedRun()
	}
	if err != nil {
		return nil, err
	}

	ck := b.ck
	fmt.Fprintf(out, "fail_ratio %.4f ratio (%d failed / %d attempted detection runs)\n",
		float64(ck.failures)/float64(max(ck.attempts, 1)), ck.failures, ck.attempts)
	reasons := make([]string, 0, len(ck.reasons))
	for r, n := range ck.reasons {
		reasons = append(reasons, fmt.Sprintf("  failure x%d: %s", n, r))
	}
	sort.Strings(reasons)
	for _, r := range reasons {
		fmt.Fprintln(out, r)
	}
	return &result{
		Correct:   ck.failures == 0,
		Attempted: ck.attempts,
		Failed:    ck.failures,
		Metrics:   metrics,
	}, nil
}

// prepare computes the Original checksum every detection run must
// reproduce and, for replay_stream, records the trace to replay.
func (b *bench) prepare() error {
	opts := liveOptions(b.spec, b.rc.seed, b.threads, harness.ModeNative)
	native, err := harness.Execute(b.w, opts)
	if err != nil {
		return fmt.Errorf("original run: %w", err)
	}
	wantFS := b.spec.buggy && b.w.HasFalseSharing()
	if b.rc.flipVerdict {
		wantFS = !wantFS
	}
	b.ck = newChecker(native.Checksum, wantFS)
	if !b.spec.replay {
		return nil
	}
	data, checksum, err := recordTrace(b.w, opts)
	if err != nil {
		return fmt.Errorf("recording trace: %w", err)
	}
	if checksum != native.Checksum {
		return fmt.Errorf("recorded run checksum %#x differs from Original %#x", checksum, native.Checksum)
	}
	b.data = data
	events, err := countEvents(data)
	if err != nil {
		return err
	}
	fmt.Fprintf(b.out, "trace %s scale=%d threads=%d events=%d bytes=%d sha256=%s\n",
		b.spec.workload, b.spec.scale, b.threads, events, len(data), traceDigest(data))
	return nil
}

// untracedRun measures the end-to-end metrics: untimed warm-up and memory
// iterations, then timed iterations until --seconds have passed.
func (b *bench) untracedRun() (map[string]metric, error) {
	b.timed() // warm-up
	heapMB, err := b.heapMB()
	if err != nil {
		return nil, fmt.Errorf("memory iteration: %w", err)
	}

	var samples []sample
	deadline := time.Now().Add(time.Duration(b.rc.seconds * float64(time.Second)))
	for len(samples) < minIterations || time.Now().Before(deadline) {
		runtime.GC() // start every timed iteration from a collected heap
		if smp, ok := b.timed(); ok {
			samples = append(samples, smp)
		} else if time.Now().After(deadline) {
			break
		}
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("no detection run succeeded (%d attempted)", b.ck.attempts)
	}

	var rate, verdict, setup []float64
	for _, s := range samples {
		rate = append(rate, float64(s.accesses)/s.work.Seconds()/1e6)
		verdict = append(verdict, s.verdict.Seconds())
		setup = append(setup, s.setup.Seconds())
	}
	m := map[string]metric{
		"maccess_per_s": {median(rate), "Maccess/s"},
		"verdict_s":     {median(verdict), "s"},
		"setup_s":       {median(setup), "s"},
		"live_heap_mb":  {heapMB, "MB"},
	}
	fmt.Fprintf(b.out, "workload %s scale=%d threads=%d iterations=%d accesses=%d\n",
		b.spec.name, b.spec.scale, b.threads, len(samples), samples[len(samples)-1].accesses)
	printSpread(b.out, "maccess_per_s", rate, "Maccess/s")
	printSpread(b.out, "verdict_s", verdict, "s")
	if pct, v, ok := tailPercentile(verdict); ok {
		fmt.Fprintf(b.out, "verdict_s p%g %.6f s\n", pct, v)
	} else {
		fmt.Fprintf(b.out, "verdict_s tail: %d samples, too few for p90 with ten beyond it\n", len(verdict))
	}
	printSpread(b.out, "setup_s", setup, "s")
	fmt.Fprintf(b.out, "live_heap_mb %.3f MB (one untimed MeasureMemory iteration)\n", heapMB)
	return m, nil
}

// minIterations guarantees a median even when --seconds is shorter than
// one iteration.
const minIterations = 3

// timed runs and checks one timed PREDATOR iteration: a live execution, or
// for replay_stream one replay.
func (b *bench) timed() (sample, bool) {
	if b.spec.replay {
		smp, res, err := replayIteration(b.data, detectConfig(true))
		b.ck.checkReplay(err, res, true)
		return smp, err == nil
	}
	smp, res, err := liveIteration(b.w, liveOptions(b.spec, b.rc.seed, b.threads, harness.ModePredict))
	if err != nil {
		b.ck.check(err, 0, nil, true)
		return sample{}, false
	}
	b.ck.check(nil, res.Checksum, res.Report, true)
	return smp, true
}

func printSpread(out io.Writer, name string, xs []float64, unit string) {
	fmt.Fprintf(out, "%s %.6f %s (median of %d; q1 %.6f q3 %.6f)\n",
		name, median(xs), unit, len(xs), quantile(xs, 0.25), quantile(xs, 0.75))
}
