package eval

import (
	"fmt"
	"testing"
	"time"

	"predator/internal/harness"
	_ "predator/internal/workloads/stack"
	_ "predator/internal/workloads/synthetic"
)

// sweepExempt names the only workloads whose clean run may report false
// sharing, each with the reason.
var sweepExempt = map[string]string{
	// The paper's streamcluster fix pads only the work_mem slots it reports;
	// the leftover alignment finding on the fixed layout is that partial
	// fix, documented in parsec_test.go.
	"streamcluster": "partial fix (parsec_test.go)",
	// latent_share is the distilled prediction-only pattern; it has no
	// fixed variant by design.
	"latent_share": "no fixed variant",
}

// TestNoFalsePositivesDeterministic is the paper's "no false positives"
// claim as a sweep: every registered workload, run clean (Buggy: false)
// with 4 threads and the evaluation thresholds under the deterministic
// scheduler at grains 4, 16 and 64, reports no false sharing. A run that
// deadlocks the scheduler fails on its timeout.
func TestNoFalsePositivesDeterministic(t *testing.T) {
	for _, w := range harness.All() {
		if _, ok := sweepExempt[w.Name()]; ok {
			continue
		}
		for _, grain := range []int{4, 16, 64} {
			w, grain := w, grain
			t.Run(fmt.Sprintf("%s/grain%d", w.Name(), grain), func(t *testing.T) {
				type outcome struct {
					res *harness.Result
					err error
				}
				done := make(chan outcome, 1)
				go func() {
					rt := Default().Runtime
					res, err := harness.Execute(w, harness.Options{
						Mode: harness.ModePredict, Threads: 4, Buggy: false, Runtime: &rt,
						Deterministic: true, DeterministicGrain: grain,
					})
					done <- outcome{res, err}
				}()
				var out outcome
				select {
				case out = <-done:
				case <-time.After(time.Minute):
					t.Fatal("did not finish within a minute under the deterministic scheduler")
				}
				if out.err != nil {
					t.Fatal(out.err)
				}
				if fs := out.res.Report.FalseSharing(); len(fs) > 0 {
					t.Errorf("clean run reports %d false sharing finding(s):\n%s", len(fs), out.res.Report.String())
				}
			})
		}
	}
}
