package predator_test

import (
	"testing"
	"time"

	predator "predator"
	"predator/internal/harness"
	"predator/internal/obs/spans"
)

// TestSpanOverhead is the span tracer's half of the observability performance
// contract: attaching a tracer to the observer must cost less than 5% on the
// access hot path relative to the same observer without one. Spans are
// created only at pipeline phase boundaries — never per access — so the hot
// loop pays nothing beyond the observer it already carries. Interleaved
// min-of-trials measurement filters scheduler noise, and the comparison
// retries before declaring failure so a single noisy trial cannot fail the
// suite.
func TestSpanOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const trials, maxAttempts, limit = 5, 3, 1.05
	withSpans := func() *predator.Observer {
		o := predator.NewObserver(nil)
		o.SetSpans(spans.New(spans.Config{}))
		return o
	}
	for attempt := 1; ; attempt++ {
		base, traced := time.Duration(1<<62), time.Duration(1<<62)
		for i := 0; i < trials; i++ {
			if d := hotLoop(t, predator.NewObserver(nil)); d < base {
				base = d
			}
			if d := hotLoop(t, withSpans()); d < traced {
				traced = d
			}
		}
		ratio := float64(traced) / float64(base)
		t.Logf("attempt %d: base=%v traced=%v ratio=%.3f", attempt, base, traced, ratio)
		if ratio <= limit {
			return
		}
		if attempt >= maxAttempts {
			t.Fatalf("span tracer overhead %.1f%% exceeds %.0f%% (base=%v traced=%v)",
				(ratio-1)*100, (limit-1)*100, base, traced)
		}
	}
}

// TestSpanTreeDeterministic is the reproducibility half of the span
// contract: two deterministic runs of the same pipeline produce identical
// span trees — same parent/child structure, same attribute counters, and
// (because deterministic tracers derive IDs from a seeded generator) the
// same trace and span IDs.
func TestSpanTreeDeterministic(t *testing.T) {
	w, ok := harness.Get("histogram")
	if !ok {
		t.Fatal("histogram workload not registered")
	}
	runOnce := func() (spans.TraceID, []spans.Data, *harness.Result) {
		o := predator.NewObserver(nil)
		tr := spans.New(spans.Config{Deterministic: true})
		o.SetSpans(tr)
		root := tr.Start("cli.run", nil)
		root.SetLabel("tool", "test")
		res, err := harness.Execute(w, harness.Options{
			Mode:          harness.ModePredict,
			Threads:       4,
			Deterministic: true,
			Observer:      o,
			Span:          root,
		})
		if err != nil {
			t.Fatal(err)
		}
		root.End()
		return tr.TraceID(), tr.Snapshot(), res
	}
	idA, a, res := runOnce()
	idB, b, _ := runOnce()
	if idA != idB {
		t.Errorf("deterministic trace IDs differ: %s vs %s", idA, idB)
	}
	if len(a) == 0 {
		t.Fatal("deterministic run produced no spans")
	}
	sigA, sigB := spans.Signature(a), spans.Signature(b)
	if sigA != sigB {
		t.Errorf("span trees differ across deterministic runs:\n--- run A ---\n%s--- run B ---\n%s", sigA, sigB)
	}
	// The tree must cover the pipeline, not just the root.
	names := map[string]bool{}
	for _, d := range a {
		names[d.Name] = true
	}
	for _, want := range []string{"cli.run", "harness.setup", "harness.workload", "report.collect"} {
		if !names[want] {
			t.Errorf("span tree missing %s phase:\n%s", want, sigA)
		}
	}
	// The workload span's dispatch count is the runtime's access count.
	for _, d := range a {
		if d.Name != "harness.workload" {
			continue
		}
		if got, want := d.Attrs["accesses_dispatched"], res.RuntimeStats.Accesses; got != want || want == 0 {
			t.Errorf("accesses_dispatched = %d, want runtime accesses %d (> 0)", got, want)
		}
	}
}
