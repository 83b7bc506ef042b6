// Command predreplay records a workload's instrumented access stream to a
// trace file and replays traces through fresh PREDATOR runtimes. Replaying
// lets one interleaving be re-analyzed deterministically under different
// thresholds, sampling rates, or with prediction toggled:
//
//	predreplay -record histogram -out hist.trace
//	predreplay -replay hist.trace
//	predreplay -replay hist.trace -no-prediction -report-threshold 1000
//
// Untrusted or damaged traces replay with -salvage: malformed and truncated
// records are skipped and accounted instead of aborting, optionally bounded
// by -salvage-budget corrupt regions (exceeding the budget still prints the
// partial report, then exits nonzero).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"predator/internal/core"
	"predator/internal/harness"
	"predator/internal/mem"
	"predator/internal/report"
	"predator/internal/session"
	"predator/internal/trace"

	_ "predator/internal/workloads/apps"
	_ "predator/internal/workloads/parsec"
	_ "predator/internal/workloads/phoenix"
	_ "predator/internal/workloads/stack"
	_ "predator/internal/workloads/synthetic"
)

func main() {
	var (
		record     = flag.String("record", "", "workload to record (see predator -list)")
		out        = flag.String("out", "predator.trace", "output file for -record")
		replay     = flag.String("replay", "", "trace file to replay")
		threads    = flag.Int("threads", 8, "worker threads for -record")
		scale      = flag.Int("scale", 1, "workload size multiplier for -record")
		fixed      = flag.Bool("fixed", false, "record the fixed variant")
		trackAt    = flag.Uint64("tracking-threshold", 50, "replay: per-line writes before tracking")
		predictAt  = flag.Uint64("prediction-threshold", 100, "replay: recorded writes before hot-pair search")
		reportAt   = flag.Uint64("report-threshold", 200, "replay: minimum invalidations to report")
		sampleWin  = flag.Uint64("sample-window", 0, "replay: sampling window (0 = record everything)")
		sampleBur  = flag.Uint64("sample-burst", 0, "replay: recorded prefix of each window")
		noPredict  = flag.Bool("no-prediction", false, "replay: disable prediction")
		salvage    = flag.Bool("salvage", false, "replay: skip malformed/truncated records instead of aborting")
		salvageMax = flag.Uint64("salvage-budget", 0, "replay: max corrupt regions tolerated under -salvage (0 = unlimited); exceeding it exits nonzero after the partial report")
		maxTracked = flag.Int("max-tracked-lines", 0, "replay: resource governor budget for detailed tracking (0 = unlimited)")
		maxVirtual = flag.Int("max-virtual-lines", 0, "replay: resource governor budget for virtual lines (0 = unlimited)")
		flightN    = flag.Int("flight-depth", 0, "replay: flight recorder ring depth per tracked line (0 = default, -1 = disable)")
	)
	sf := session.Parse("predreplay")

	switch {
	case *record != "" && *replay != "":
		fatal("use either -record or -replay, not both")
	case *record != "":
		if err := doRecord(*record, *out, *threads, *scale, !*fixed); err != nil {
			fatal(err.Error())
		}
	case *replay != "":
		cfg := core.Config{
			TrackingThreshold:   *trackAt,
			PredictionThreshold: *predictAt,
			ReportThreshold:     *reportAt,
			SampleWindow:        *sampleWin,
			SampleBurst:         *sampleBur,
			Prediction:          !*noPredict,
			MaxTrackedLines:     *maxTracked,
			MaxVirtualLines:     *maxVirtual,
			FlightDepth:         *flightN,
		}
		ropts := trace.ReplayOptions{Salvage: *salvage, Elide: sf.Elide}
		if err := doReplay(*replay, cfg, ropts, *salvageMax, sf); err != nil {
			fatal(err.Error())
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "predreplay:", msg)
	os.Exit(1)
}

// doRecord executes the workload with the trace writer as the only sink,
// mirroring allocations and globals via the heap's alloc hook.
func doRecord(workload, out string, threads, scale int, buggy bool) error {
	w, ok := harness.Get(workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()

	const heapSize = 64 << 20
	tw, err := trace.NewWriter(f, trace.Header{
		HeapBase: mem.DefaultBase,
		HeapSize: heapSize,
		LineSize: 64,
	})
	if err != nil {
		return err
	}

	// ExecuteSim builds the heap internally; run against our own heap
	// instead so the trace mirror is installed before any allocation.
	h, err := mem.NewHeap(mem.Config{Size: heapSize})
	if err != nil {
		return err
	}
	trace.Mirror(h, tw)

	res, err := harness.ExecuteSimOnHeap(w, harness.Options{
		Threads: threads, Scale: scale, Buggy: buggy,
	}, h, tw)
	if err != nil {
		return err
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Printf("recorded %s (%s variant): %d events -> %s (checksum %#x)\n",
		workload, variantName(buggy), tw.Events(), out, res.Checksum)
	return nil
}

func variantName(buggy bool) string {
	if buggy {
		return "buggy"
	}
	return "fixed"
}

// doReplay streams the trace through a fresh runtime and prints the report.
// Decode failures are diagnosed on stderr with the byte offset and event
// index where decoding failed; under -salvage the trace replays to
// completion with a degradation banner (and a nonzero exit when more than
// salvageBudget corrupt regions were skipped, after the partial report has
// been printed; 0 = unlimited).
func doReplay(path string, cfg core.Config, ropts trace.ReplayOptions, salvageBudget uint64, sf *session.Flags) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	// Replays are deterministic by construction, so the span IDs are too:
	// two replays of the same trace produce the same span tree.
	sess, err := sf.Start(session.Config{Deterministic: true})
	if err != nil {
		return err
	}
	sess.Span.SetLabel("trace_file", filepath.Base(path))
	cfg.Observer = sess.Observer
	ropts.Span, ropts.OnRuntime = sess.Span, sess.OnRuntime

	start := time.Now()
	res, err := trace.ReplayWithOptions(f, cfg, ropts)
	if err != nil {
		var de *trace.DecodeError
		if errors.As(err, &de) {
			fmt.Fprintf(os.Stderr, "predreplay: decode error at byte offset %d (event index %d): %v\n",
				de.Offset, de.Index, de.Err)
			return fmt.Errorf("trace is damaged; rerun with -salvage to skip corrupt records")
		}
		return err
	}
	if res.Salvage != nil && !res.Salvage.Clean() {
		fmt.Fprintf(os.Stderr, "predreplay: DEGRADED TRACE: %s\n", res.Salvage)
		for _, e := range res.Salvage.Errors {
			fmt.Fprintf(os.Stderr, "predreplay:   skipped: %s\n", e)
		}
		if res.SemanticErrors > 0 {
			fmt.Fprintf(os.Stderr, "predreplay:   %d decoded event(s) rejected by the rebuilt heap\n", res.SemanticErrors)
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("replayed %d events in %s; %d threads named\n",
		res.Events, elapsed.Round(time.Millisecond), len(res.Threads))
	fmt.Printf("tracked-lines=%d virtual-lines=%d invalidations=%d virtual-invalidations=%d sampled=%d elided=%d\n",
		res.Stats.TrackedLines, res.Stats.VirtualLines,
		res.Stats.Invalidations, res.Stats.VirtualInvalidations, res.Stats.SampledAccesses,
		res.Elided)
	if res.Stats.Degraded {
		fmt.Printf("DEGRADED: degraded-lines=%d evictions=%d virtual-rejections=%d (findings flagged in report)\n",
			res.Stats.DegradedLines, res.Stats.Evictions, res.Stats.VirtualRejections)
	}
	fmt.Println()
	fs := res.Report.FalseSharing()
	fmt.Printf("%d false sharing problem(s)\n\n", len(fs))
	for i := range fs {
		if i > 0 {
			fmt.Println()
		}
		fmt.Print(fs[i].Format(res.Report.Geometry))
	}

	// Re-analyzed traces join the fleet's run history and diffs like any
	// live run.
	name := filepath.Base(path)
	if err := sess.Finish(session.Outcome{
		ThreadNames: res.Threads,
		Workload:    name,
		Mode:        "replay",
		Duration:    elapsed,
		Reports:     map[string]report.JSONReport{name: res.Report.ToJSON()},
	}); err != nil {
		return err
	}

	if res.Salvage != nil && salvageBudget > 0 && res.Salvage.CorruptRegions > salvageBudget {
		fmt.Fprintf(os.Stderr, "predreplay: salvage budget exceeded: %d corrupt regions > budget %d (partial report above)\n",
			res.Salvage.CorruptRegions, salvageBudget)
		os.Exit(1)
	}
	return nil
}
