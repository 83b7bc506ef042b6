package phoenix

import (
	"testing"

	"predator/internal/core"
	"predator/internal/harness"
	"predator/internal/report"
)

// evalConfig uses reduced thresholds appropriate to the test-sized inputs
// (the paper's defaults assume minutes-long runs).
var evalConfig = core.Config{
	TrackingThreshold:   50,
	PredictionThreshold: 100,
	ReportThreshold:     200,
	Prediction:          true,
}

func run(t *testing.T, name string, buggy bool) *harness.Result {
	t.Helper()
	w, ok := harness.Get(name)
	if !ok {
		t.Fatalf("workload %q not registered", name)
	}
	cfg := evalConfig
	res, err := harness.Execute(w, harness.Options{
		Mode:    harness.ModePredict,
		Threads: 8,
		Buggy:   buggy,
		Runtime: &cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkWorkload verifies the Table 1 contract for one workload: the buggy
// variant is detected iff the paper lists a problem, the fixed variant is
// clean, and both compute the same result.
func checkWorkload(t *testing.T, name string) {
	t.Helper()
	w, _ := harness.Get(name)
	buggy := run(t, name, true)
	fixed := run(t, name, false)
	if w.HasFalseSharing() && !buggy.FalseSharingFound() {
		t.Errorf("%s: buggy variant not detected", name)
	}
	if !w.HasFalseSharing() && buggy.FalseSharingFound() {
		t.Errorf("%s: clean workload flagged (false positive):\n%s", name, buggy.Report.String())
	}
	if fixed.FalseSharingFound() {
		t.Errorf("%s: fixed variant flagged:\n%s", name, fixed.Report.String())
	}
	if buggy.Checksum != fixed.Checksum {
		t.Errorf("%s: fix changed the computation: %d vs %d", name, buggy.Checksum, fixed.Checksum)
	}
	if buggy.Checksum == 0 {
		t.Errorf("%s: zero checksum (kernel likely computed nothing)", name)
	}
}

func TestHistogram(t *testing.T)      { checkWorkload(t, "histogram") }
func TestKmeans(t *testing.T)         { checkWorkload(t, "kmeans") }
func TestMatrixMultiply(t *testing.T) { checkWorkload(t, "matrix_multiply") }
func TestPCA(t *testing.T)            { checkWorkload(t, "pca") }
func TestReverseIndex(t *testing.T)   { checkWorkload(t, "reverse_index") }
func TestStringMatch(t *testing.T)    { checkWorkload(t, "string_match") }
func TestWordCount(t *testing.T)      { checkWorkload(t, "word_count") }

func TestLinearRegressionPredictedOnly(t *testing.T) {
	checkWorkload(t, "linear_regression")
	// The paper's headline result: at the default (clean) placement, the
	// bug is invisible to plain detection and found only by prediction.
	buggy := run(t, "linear_regression", true)
	if !buggy.PredictedOnly() {
		t.Errorf("linear_regression should be found only via prediction; report:\n%s",
			buggy.Report.String())
	}
}

// TestPredictedFindingsCountReadsAndWrites: a predicted finding reports the
// reads and writes its verification track recorded, as an observed finding
// reports its line's. On the deterministic prediction-only bug every
// predicted finding saw writes, and its reads and writes add up to the
// virtual line's recorded accesses.
func TestPredictedFindingsCountReadsAndWrites(t *testing.T) {
	w, _ := harness.Get("linear_regression")
	var rt *core.Runtime
	res, err := harness.Execute(w, harness.Options{
		Mode:          harness.ModePredict,
		Threads:       8,
		Buggy:         true,
		Deterministic: true,
		OnRuntime:     func(r *core.Runtime) { rt = r },
	})
	if err != nil {
		t.Fatal(err)
	}
	recorded := map[[2]uint64]uint64{}
	for _, ln := range rt.HotLines(0) {
		for _, v := range ln.Virtual {
			recorded[[2]uint64{v.Start, v.End}] = v.Recorded
		}
	}
	predicted := 0
	for _, f := range res.Report.Findings {
		if f.Source == report.SourceObserved {
			continue
		}
		predicted++
		rec, ok := recorded[[2]uint64{f.Span.Start, f.Span.End}]
		if !ok {
			t.Errorf("predicted finding %+v has no virtual line", f.Span)
			continue
		}
		if f.Writes == 0 || f.Reads+f.Writes != rec {
			t.Errorf("predicted finding %+v: reads %d + writes %d, virtual line recorded %d",
				f.Span, f.Reads, f.Writes, rec)
		}
	}
	if predicted == 0 {
		t.Fatal("no predicted findings")
	}
}

func TestLinearRegressionWithoutPredictionMisses(t *testing.T) {
	w, _ := harness.Get("linear_regression")
	cfg := evalConfig
	res, err := harness.Execute(w, harness.Options{
		Mode:    harness.ModeDetect, // PREDATOR-NP
		Threads: 8,
		Buggy:   true,
		Runtime: &cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FalseSharingFound() {
		t.Error("PREDATOR-NP found linear_regression FS at clean placement; prediction should be required")
	}
}

func TestLinearRegressionBadOffsetObserved(t *testing.T) {
	// At offset 24 (the paper's worst case) the false sharing is physical
	// and must be observed even without prediction.
	w, _ := harness.Get("linear_regression")
	cfg := evalConfig
	res, err := harness.Execute(w, harness.Options{
		Mode:    harness.ModeDetect,
		Threads: 8,
		Buggy:   true,
		Offset:  24,
		Runtime: &cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FalseSharingFound() {
		t.Error("offset-24 linear_regression not observed without prediction")
	}
}

func TestHistogramDetectedWithoutPrediction(t *testing.T) {
	// Table 1: histogram is detected both without and with prediction.
	w, _ := harness.Get("histogram")
	cfg := evalConfig
	res, err := harness.Execute(w, harness.Options{
		Mode:    harness.ModeDetect,
		Threads: 8,
		Buggy:   true,
		Runtime: &cfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.FalseSharingFound() {
		t.Error("histogram FS not observed without prediction")
	}
}

func TestAllPhoenixRegistered(t *testing.T) {
	want := []string{"histogram", "kmeans", "linear_regression", "matrix_multiply",
		"pca", "reverse_index", "string_match", "word_count"}
	for _, name := range want {
		w, ok := harness.Get(name)
		if !ok {
			t.Errorf("%s not registered", name)
			continue
		}
		if w.Suite() != "phoenix" {
			t.Errorf("%s suite = %q", name, w.Suite())
		}
		if w.Description() == "" {
			t.Errorf("%s has no description", name)
		}
	}
}
