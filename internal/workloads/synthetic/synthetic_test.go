package synthetic

import (
	"fmt"
	"testing"
	"time"

	"predator/internal/core"
	"predator/internal/harness"
	"predator/internal/instr"
	"predator/internal/report"
)

var evalConfig = core.Config{
	TrackingThreshold:   50,
	PredictionThreshold: 100,
	ReportThreshold:     200,
	Prediction:          true,
}

func run(t *testing.T, name string, opts harness.Options) *harness.Result {
	t.Helper()
	w, ok := harness.Get(name)
	if !ok {
		t.Fatalf("workload %q not registered", name)
	}
	cfg := evalConfig
	opts.Runtime = &cfg
	if opts.Mode == 0 && opts.Threads == 0 {
		opts.Mode = harness.ModePredict
	}
	if opts.Threads == 0 {
		opts.Threads = 4
	}
	res, err := harness.Execute(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// forEachGrain runs check once per deterministic-scheduler grain, as a
// subtest. The runAt it hands over executes a workload with 4 threads under
// the deterministic scheduler at that grain, so each verdict is reproducible
// and must hold at fine and coarse interleavings alike.
func forEachGrain(t *testing.T, check func(t *testing.T, runAt func(name string, opts harness.Options) *harness.Result)) {
	for _, grain := range []int{4, 16, 64} {
		t.Run(fmt.Sprintf("grain%d", grain), func(t *testing.T) {
			check(t, func(name string, opts harness.Options) *harness.Result {
				opts.Deterministic, opts.DeterministicGrain, opts.Threads = true, grain, 4
				return run(t, name, opts)
			})
		})
	}
}

func TestWWShareDetectedAndFixed(t *testing.T) {
	forEachGrain(t, func(t *testing.T, runAt func(string, harness.Options) *harness.Result) {
		buggy := runAt("ww_share", harness.Options{Mode: harness.ModePredict, Buggy: true})
		if !buggy.FalseSharingFound() {
			t.Error("write-write false sharing not detected")
		}
		fixed := runAt("ww_share", harness.Options{Mode: harness.ModePredict, Buggy: false})
		if fixed.FalseSharingFound() {
			t.Errorf("padded variant flagged:\n%s", fixed.Report.String())
		}
	})
}

func TestRWShareNeedsReadInstrumentation(t *testing.T) {
	forEachGrain(t, func(t *testing.T, runAt func(string, harness.Options) *harness.Result) {
		// Full instrumentation sees the read-write false sharing...
		full := runAt("rw_share", harness.Options{Mode: harness.ModePredict, Buggy: true})
		if !full.FalseSharingFound() {
			t.Fatal("read-write false sharing not detected with full instrumentation")
		}
		// ...SHERIFF-style writes-only instrumentation is blind to it: with
		// one writer and silent readers there is no multi-thread write
		// pattern at all.
		wo := runAt("rw_share", harness.Options{
			Mode: harness.ModePredict, Buggy: true,
			Policy: instr.Policy{WritesOnly: true},
		})
		if wo.FalseSharingFound() {
			t.Errorf("writes-only instrumentation claims to see read-write FS:\n%s",
				wo.Report.String())
		}
	})
}

// TestTrueShareNeverFalse: every thread increments one word under a mutex.
// The timeout turns a scheduler deadlock (a blocked Lock holding the turn)
// into a failure instead of a stalled suite.
func TestTrueShareNeverFalse(t *testing.T) {
	forEachGrain(t, func(t *testing.T, runAt func(string, harness.Options) *harness.Result) {
		done := make(chan *harness.Result, 1)
		go func() { done <- runAt("true_share", harness.Options{Mode: harness.ModePredict, Buggy: true}) }()
		var res *harness.Result
		select {
		case res = <-done:
		case <-time.After(time.Minute):
			t.Fatal("true_share did not finish within a minute under the deterministic scheduler")
		}
		if res.FalseSharingFound() {
			t.Errorf("true sharing reported as false sharing:\n%s", res.Report.String())
		}
		sawTrue := false
		for _, f := range res.Report.Findings {
			if f.Sharing == report.SharingTrue {
				sawTrue = true
			}
		}
		if !sawTrue {
			t.Error("heavy true sharing produced no finding at all")
		}
	})
}

func TestLatentShareOnlyPredicted(t *testing.T) {
	forEachGrain(t, func(t *testing.T, runAt func(string, harness.Options) *harness.Result) {
		np := runAt("latent_share", harness.Options{Mode: harness.ModeDetect, Buggy: true})
		if np.FalseSharingFound() {
			t.Error("latent pattern observed physically without prediction")
		}
		full := runAt("latent_share", harness.Options{Mode: harness.ModePredict, Buggy: true})
		if !full.FalseSharingFound() {
			t.Fatal("latent pattern not predicted")
		}
		if !full.PredictedOnly() {
			t.Error("latent pattern should be predicted-only")
		}
	})
}

func TestLatentShareManifestsWhenShifted(t *testing.T) {
	forEachGrain(t, func(t *testing.T, runAt func(string, harness.Options) *harness.Result) {
		res := runAt("latent_share", harness.Options{
			Mode: harness.ModeDetect, Buggy: true, Offset: 24,
		})
		if !res.FalseSharingFound() {
			t.Error("shifted latent pattern not physically observed")
		}
	})
}

// Deterministic mode: identical runs produce byte-identical counts.
func TestDeterministicModeExactlyReproducible(t *testing.T) {
	opts := harness.Options{
		Mode: harness.ModePredict, Buggy: true,
		Deterministic: true, Threads: 4,
	}
	a := run(t, "ww_share", opts)
	b := run(t, "ww_share", opts)
	if a.RuntimeStats.Accesses != b.RuntimeStats.Accesses {
		t.Fatalf("access counts differ: %d vs %d", a.RuntimeStats.Accesses, b.RuntimeStats.Accesses)
	}
	fa, fb := a.Report.FalseSharing(), b.Report.FalseSharing()
	if len(fa) != len(fb) {
		t.Fatalf("finding counts differ: %d vs %d", len(fa), len(fb))
	}
	for i := range fa {
		if fa[i].Invalidations != fb[i].Invalidations || fa[i].Span != fb[i].Span {
			t.Errorf("finding %d differs: inv %d/%d span %v/%v",
				i, fa[i].Invalidations, fb[i].Invalidations, fa[i].Span, fb[i].Span)
		}
		if fa[i].Accesses != fb[i].Accesses {
			t.Errorf("finding %d access counts differ: %d vs %d",
				i, fa[i].Accesses, fb[i].Accesses)
		}
	}
	if len(fa) == 0 {
		t.Fatal("deterministic run detected nothing")
	}
}

// Deterministic mode with a finer grain produces at least as many
// invalidations (more rotations = more interleaving).
func TestDeterministicGrainMonotonicity(t *testing.T) {
	maxInv := func(grain int) uint64 {
		res := run(t, "ww_share", harness.Options{
			Mode: harness.ModePredict, Buggy: true,
			Deterministic: true, DeterministicGrain: grain, Threads: 4,
		})
		var m uint64
		for _, f := range res.Report.FalseSharing() {
			if f.Invalidations > m {
				m = f.Invalidations
			}
		}
		return m
	}
	fine, coarse := maxInv(4), maxInv(64)
	if fine <= coarse {
		t.Errorf("grain 4 invalidations (%d) not above grain 64 (%d)", fine, coarse)
	}
}

func TestSyntheticRegistered(t *testing.T) {
	for _, name := range []string{"ww_share", "rw_share", "true_share", "latent_share"} {
		w, ok := harness.Get(name)
		if !ok {
			t.Errorf("%s not registered", name)
			continue
		}
		if w.Suite() != "synthetic" {
			t.Errorf("%s suite = %q", name, w.Suite())
		}
	}
}
