// Command predator runs one of the reimplemented evaluation workloads under
// the PREDATOR false sharing detector and prints the resulting report.
//
// Examples:
//
//	predator -list
//	predator -workload histogram
//	predator -workload linear_regression -offset 24 -mode detect
//	predator -workload mysql -threads 16 -sample-window 10000 -sample-burst 100
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"predator/internal/core"
	"predator/internal/fixer"
	"predator/internal/harness"
	"predator/internal/report"
	"predator/internal/session"

	// Register every workload suite.
	_ "predator/internal/workloads/apps"
	_ "predator/internal/workloads/parsec"
	_ "predator/internal/workloads/phoenix"
	_ "predator/internal/workloads/stack"
	_ "predator/internal/workloads/synthetic"
)

func main() {
	var (
		list       = flag.Bool("list", false, "list available workloads and exit")
		workload   = flag.String("workload", "", "workload to run (see -list)")
		mode       = flag.String("mode", "predict", "instrumentation mode: native | detect (PREDATOR-NP) | predict (PREDATOR)")
		threads    = flag.Int("threads", 8, "worker thread count")
		scale      = flag.Int("scale", 1, "workload size multiplier")
		fixed      = flag.Bool("fixed", false, "run the fixed variant instead of the buggy one")
		offset     = flag.Uint64("offset", 1<<63, "force the hot object's in-line byte offset (default: workload's natural placement)")
		trackAt    = flag.Uint64("tracking-threshold", 50, "per-line writes before detailed tracking")
		predictAt  = flag.Uint64("prediction-threshold", 100, "recorded writes before hot-pair search")
		reportAt   = flag.Uint64("report-threshold", 200, "minimum invalidations to report")
		sampleWin  = flag.Uint64("sample-window", 0, "sampling window (0 = record everything)")
		sampleBur  = flag.Uint64("sample-burst", 0, "recorded prefix of each sampling window")
		showAll    = flag.Bool("all", false, "print every finding, including true sharing")
		suggest    = flag.Bool("suggest", false, "print fix prescriptions for each problem")
		asJSON     = flag.Bool("json", false, "emit the report as machine-readable JSON")
		det        = flag.Bool("deterministic", false, "serialize workers round-robin for exactly reproducible counts")
		detGrain   = flag.Int("deterministic-grain", 16, "accesses per turn in deterministic mode")
		quiet      = flag.Bool("quiet", false, "print only the summary line")
		flightN    = flag.Int("flight-depth", 0, "flight recorder ring depth per tracked line (0 = default, -1 = disable)")
		heartbeat  = flag.Duration("heartbeat", 0, "heartbeat interval for periodic metric snapshots (0 = off)")
		maxTracked = flag.Int("max-tracked-lines", 0, "resource governor budget for detailed tracking (0 = unlimited)")
		maxVirtual = flag.Int("max-virtual-lines", 0, "resource governor budget for virtual lines (0 = unlimited)")
		strict     = flag.Bool("strict", true, "panic on out-of-heap accesses (false: absorb them as recoverable faults)")
	)
	sf := session.Parse("predator")

	if *list {
		fmt.Println("Available workloads:")
		for _, w := range harness.All() {
			fs := " "
			if w.HasFalseSharing() {
				fs = "*"
			}
			fmt.Printf("  %s %-18s [%s] %s\n", fs, w.Name(), w.Suite(), w.Description())
		}
		fmt.Println("\n(* = carries a known false sharing problem from the paper's Table 1 / case studies)")
		return
	}
	w, ok := harness.Get(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "predator: unknown workload %q (try -list)\n", *workload)
		os.Exit(2)
	}

	var m harness.Mode
	switch *mode {
	case "native":
		m = harness.ModeNative
	case "detect":
		m = harness.ModeDetect
	case "predict":
		m = harness.ModePredict
	default:
		fmt.Fprintf(os.Stderr, "predator: unknown mode %q\n", *mode)
		os.Exit(2)
	}

	cfg := core.Config{
		TrackingThreshold:   *trackAt,
		PredictionThreshold: *predictAt,
		ReportThreshold:     *reportAt,
		SampleWindow:        *sampleWin,
		SampleBurst:         *sampleBur,
		Prediction:          m == harness.ModePredict,
		MaxTrackedLines:     *maxTracked,
		MaxVirtualLines:     *maxVirtual,
		FlightDepth:         *flightN,
	}
	opts := harness.Options{
		Mode:               m,
		Threads:            *threads,
		Scale:              *scale,
		Buggy:              !*fixed,
		Runtime:            &cfg,
		Deterministic:      *det,
		DeterministicGrain: *detGrain,
		Strict:             strict,
		Elide:              sf.Elide,
	}
	if *offset != 1<<63 {
		if *offset == 0 {
			opts.Offset = harness.ForceOffsetZero
		} else {
			opts.Offset = *offset
		}
	}

	sess, err := sf.Start(session.Config{Heartbeat: *heartbeat, Deterministic: *det})
	if err != nil {
		fmt.Fprintf(os.Stderr, "predator: %v\n", err)
		os.Exit(1)
	}
	sess.Span.SetLabel("workload", *workload)
	opts.Observer, opts.Span, opts.OnRuntime = sess.Observer, sess.Span, sess.OnRuntime

	start := time.Now()
	res, err := harness.Execute(w, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "predator: %v\n", err)
		os.Exit(1)
	}
	// The report prints first; the session then writes the output files,
	// ships the run to the fleet and lingers for the diagnostics server.
	out := session.Outcome{
		ThreadNames: res.ThreadNames,
		Workload:    w.Name(),
		Mode:        m.String(),
		Threads:     *threads,
		Duration:    res.Duration,
	}
	if res.Report != nil {
		out.Reports = map[string]report.JSONReport{w.Name(): res.Report.ToJSON()}
	}
	defer func() {
		if err := sess.Finish(out); err != nil {
			fmt.Fprintf(os.Stderr, "predator: %v\n", err)
			os.Exit(1)
		}
	}()

	variant := "buggy"
	if *fixed {
		variant = "fixed"
	}
	// With -json the summary banner moves to stderr so stdout is pure JSON
	// (predator -json > report.json | jq must parse).
	banner := os.Stdout
	if *asJSON {
		banner = os.Stderr
	}
	fmt.Fprintf(banner, "workload=%s variant=%s mode=%s threads=%d duration=%s checksum=%#x\n",
		w.Name(), variant, m, *threads, res.Duration.Round(time.Microsecond), res.Checksum)
	if res.Report == nil {
		fmt.Fprintln(banner, "(native mode: no instrumentation, no report)")
		return
	}
	st := res.RuntimeStats
	fmt.Fprintf(banner, "accesses=%d writes=%d tracked-lines=%d virtual-lines=%d invalidations=%d virtual-invalidations=%d sampled=%d elided=%d total=%s\n",
		st.Accesses, st.Writes, st.TrackedLines, st.VirtualLines,
		st.Invalidations, st.VirtualInvalidations, st.SampledAccesses,
		res.Elided, time.Since(start).Round(time.Millisecond))
	if st.Degraded {
		fmt.Fprintf(banner, "DEGRADED: degraded-lines=%d evictions=%d virtual-rejections=%d (findings flagged in report)\n",
			st.DegradedLines, st.Evictions, st.VirtualRejections)
	}

	if *asJSON {
		raw, err := res.Report.MarshalIndentJSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "predator: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", raw)
		return
	}
	problems := res.Report.Problems()
	fmt.Printf("\n%d false sharing problem(s) detected (%d finding(s) total)\n\n",
		len(problems), len(res.Report.Findings))
	if *quiet {
		return
	}
	if *showAll {
		fmt.Print(res.Report.String())
		return
	}
	var advice []fixer.Advice
	if *suggest {
		advice = fixer.Suggest(res.Report, fixer.Options{Geometry: res.Report.Geometry})
	}
	for i := range problems {
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("--- Problem %d of %d: %s ---\n", i+1, len(problems), problems[i].Summary())
		fmt.Print(problems[i].Worst.Format(res.Report.Geometry))
		if *suggest && i < len(advice) {
			fmt.Printf("\nSUGGESTED FIX (%s): %s\n", advice[i].Kind, advice[i].Text)
		}
	}
}
