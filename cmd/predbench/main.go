// Command predbench regenerates the paper's evaluation tables and figures
// (see EXPERIMENTS.md for the paper-vs-measured record).
//
//	predbench -experiment table1
//	predbench -experiment fig2
//	predbench -experiment all
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"predator/internal/eval"
	"predator/internal/harness"
	"predator/internal/report"
	"predator/internal/session"

	_ "predator/internal/workloads/apps"
	_ "predator/internal/workloads/parsec"
	_ "predator/internal/workloads/phoenix"
	_ "predator/internal/workloads/stack"
	_ "predator/internal/workloads/synthetic"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "table1 | fig2 | fig5 | fig7 | fig8 | fig9 | fig10 | apps | ablation | scaling | all")
		threads    = flag.Int("threads", 8, "worker thread count")
		scale      = flag.Int("scale", 1, "workload size multiplier")
		repeats    = flag.Int("repeats", 3, "timing repetitions (median is reported)")
		heartbeat  = flag.Duration("heartbeat", 0, "heartbeat interval for periodic metric snapshots (0 = off)")
		benchJSON  = flag.String("bench-json", "", "write machine-readable benchmark results (workload x mode medians, throughput, detector stats) to this file")
		benchWork  = flag.String("bench-workloads", "", "comma-separated workloads for -bench-json (default: all evaluated workloads)")
		benchComp  = flag.String("bench-compare", "", "re-measure the workloads in this baseline -bench-json file and fail on slowdown-ratio regression or finding-count drift")
		benchTol   = flag.Float64("bench-tolerance", eval.DefaultBenchTolerance, "relative slowdown-ratio growth -bench-compare tolerates before failing")
		benchDet   = flag.Bool("bench-deterministic", false, "run evaluations under the deterministic scheduler (reproducible finding counts; required for a drift-free -bench-compare gate)")
	)
	sf := session.Parse("predbench")

	cfg := eval.Default()
	cfg.Threads = *threads
	cfg.Scale = *scale
	cfg.Repeats = *repeats
	cfg.Deterministic = *benchDet
	cfg.Elide = sf.Elide

	// One session spans the whole sweep: one observer aggregates every run,
	// every detection run's span subtree hangs off one "cli.run" root, and
	// the runtime hook follows whichever run is executing.
	sess, err := sf.Start(session.Config{Heartbeat: *heartbeat, Deterministic: *benchDet})
	if err != nil {
		fmt.Fprintf(os.Stderr, "predbench: %v\n", err)
		os.Exit(1)
	}
	cfg.Observer, cfg.Span, cfg.OnRuntime = sess.Observer, sess.Span, sess.OnRuntime

	// Fleet: every detection run's report accumulates into one findings
	// payload per sweep; a prediction-mode report wins over a detect-only
	// one for the same workload.
	var (
		fleetReports map[string]report.JSONReport
		fleetModes   = map[string]harness.Mode{}
		benchDoc     *eval.BenchDoc
	)
	if sess.Fleet() {
		fleetReports = map[string]report.JSONReport{}
		cfg.OnResult = func(workload string, mode harness.Mode, res *harness.Result) {
			if res == nil || res.Report == nil {
				return
			}
			if prev, ok := fleetModes[workload]; ok && prev == harness.ModePredict && mode != harness.ModePredict {
				return
			}
			fleetReports[workload] = res.Report.ToJSON()
			fleetModes[workload] = mode
		}
	}

	run := func(name string, fn func() error) {
		fmt.Printf("==== %s ====\n", name)
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "predbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	// -bench-json / -bench-compare alone run only the bench sweep; an
	// explicit -experiment keeps its usual meaning alongside them.
	expSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "experiment" {
			expSet = true
		}
	})
	if (*benchJSON != "" || *benchComp != "") && !expSet {
		*experiment = "bench"
	}
	sess.Span.SetLabel("experiment", *experiment)

	want := func(name string) bool { return *experiment == "all" || *experiment == name }
	ran := false

	if *benchJSON != "" || *benchComp != "" {
		ran = true
		var baseline *eval.BenchDoc
		if *benchComp != "" {
			var err error
			baseline, err = eval.ReadBenchFile(*benchComp)
			if err != nil {
				fmt.Fprintf(os.Stderr, "predbench: %v\n", err)
				os.Exit(1)
			}
		}
		run("Bench: workload x mode sweep (machine-readable)", func() error {
			workloads := eval.AllWorkloads()
			switch {
			case *benchWork != "":
				workloads = strings.Split(*benchWork, ",")
			case baseline != nil:
				// Re-measure exactly what the baseline covers, so the
				// comparison never fails on coverage mismatch.
				workloads = baseline.BenchWorkloads()
			}
			doc, err := eval.Bench(cfg, workloads)
			if err != nil {
				return err
			}
			benchDoc = doc
			if *benchJSON != "" {
				if err := doc.WriteJSONFile(*benchJSON); err != nil {
					return err
				}
				fmt.Printf("wrote %d records (%d workloads x %d modes) to %s\n",
					len(doc.Records), len(workloads), 3, *benchJSON)
			}
			if baseline != nil {
				cmp, err := eval.CompareBench(baseline, doc, *benchTol)
				if err != nil {
					return err
				}
				fmt.Print(cmp.Render())
				if !cmp.OK() {
					return fmt.Errorf("benchmark gate failed against %s", *benchComp)
				}
			}
			return nil
		})
	}

	if want("table1") {
		ran = true
		run("Table 1: false sharing in Phoenix and PARSEC", func() error {
			rows, err := eval.Table1(cfg)
			if err != nil {
				return err
			}
			fmt.Print(eval.RenderTable1(rows))
			return nil
		})
	}
	if want("fig2") {
		ran = true
		run("Figure 2: linear_regression object alignment sensitivity", func() error {
			points, err := eval.Figure2(cfg)
			if err != nil {
				return err
			}
			fmt.Print(eval.RenderFigure2(points))
			return nil
		})
	}
	if want("fig5") {
		ran = true
		run("Figure 5: example PREDATOR report (linear_regression)", func() error {
			out, err := eval.Figure5(cfg)
			if err != nil {
				return err
			}
			fmt.Print(out)
			return nil
		})
	}
	if want("fig7") {
		ran = true
		run("Figure 7: execution time overhead", func() error {
			rows, err := eval.Figure7(cfg, eval.AllWorkloads())
			if err != nil {
				return err
			}
			fmt.Print(eval.RenderFigure7(rows))
			return nil
		})
	}
	if want("fig8") || want("fig9") {
		ran = true
		run("Figures 8 & 9: memory overhead", func() error {
			rows, err := eval.Figure8(cfg, eval.AllWorkloads())
			if err != nil {
				return err
			}
			fmt.Println("Figure 8 (absolute):")
			fmt.Print(eval.RenderFigure8(rows))
			fmt.Println("\nFigure 9 (relative):")
			fmt.Print(eval.RenderFigure9(rows))
			return nil
		})
	}
	if want("fig10") {
		ran = true
		run("Figure 10: sampling rate sensitivity", func() error {
			rows, err := eval.Figure10(cfg)
			if err != nil {
				return err
			}
			fmt.Print(eval.RenderFigure10(rows))
			return nil
		})
	}
	if want("apps") {
		ran = true
		run("Real applications (paper 4.1.2)", func() error {
			rows, err := eval.Apps(cfg)
			if err != nil {
				return err
			}
			fmt.Print(eval.RenderApps(rows))
			return nil
		})
	}
	if want("ablation") {
		ran = true
		run("Ablations: instrumentation policy / tracking threshold / interleaving grain", func() error {
			policy, err := eval.PolicyAblation(cfg)
			if err != nil {
				return err
			}
			fmt.Println("Instrumentation policy (SHERIFF-style writes-only vs full):")
			fmt.Print(eval.RenderPolicyAblation(policy))
			thresholds, err := eval.ThresholdAblation(cfg)
			if err != nil {
				return err
			}
			fmt.Println("\nTrackingThreshold sweep (histogram):")
			fmt.Print(eval.RenderThresholdAblation(thresholds))
			grains, err := eval.GrainAblation(cfg)
			if err != nil {
				return err
			}
			fmt.Println("\nDeterministic interleaving grain (ww_share):")
			fmt.Print(eval.RenderGrainAblation(grains))
			return nil
		})
	}
	if want("scaling") {
		ran = true
		run("Scaling: false sharing penalty vs thread count (model cycles)", func() error {
			for _, workload := range []string{"mysql", "ww_share"} {
				rows, err := eval.Scaling(cfg, workload, []int{2, 4, 8, 16})
				if err != nil {
					return err
				}
				fmt.Print(eval.RenderScaling(workload, rows))
				fmt.Println()
			}
			return nil
		})
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "predbench: unknown experiment %q (want %s)\n",
			*experiment, strings.Join([]string{"table1", "fig2", "fig5", "fig7", "fig8", "fig9", "fig10", "apps", "ablation", "scaling", "all"}, " | "))
		os.Exit(2)
	}

	if err := sess.Finish(session.Outcome{
		Workload: *experiment,
		Mode:     "predict",
		Threads:  *threads,
		Reports:  fleetReports,
		Bench:    benchDoc,
	}); err != nil {
		fmt.Fprintf(os.Stderr, "predbench: %v\n", err)
		os.Exit(1)
	}
}
