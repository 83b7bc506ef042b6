package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchFile mirrors the parts of BENCHMARK.json the self-test checks.
type benchFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchFile(t *testing.T) benchFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// shortRun runs the benchmark at its smallest size and returns the result
// and everything it printed.
func shortRun(t *testing.T, workload string, traced, flip bool) (*result, string) {
	t.Helper()
	var out bytes.Buffer
	res, err := run(&out, runConfig{
		workload: workload, seed: 7, seconds: 0.01, traced: traced, scale: 1,
		root: "..", outDir: t.TempDir(), flipVerdict: flip,
	})
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	return res, out.String()
}

// TestEveryMetricPrintedWithUnit checks that each workload prints exactly
// the metrics BENCHMARK.json names, with the units it names, in both modes.
func TestEveryMetricPrintedWithUnit(t *testing.T) {
	bf := loadBenchFile(t)
	if len(bf.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(specs))
	}
	for _, wl := range bf.Workloads {
		if _, ok := findSpec(wl.Name); !ok {
			t.Fatalf("BENCHMARK.json workload %q unknown to the benchmark", wl.Name)
		}
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			if traced {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			res, out := shortRun(t, wl.Name, traced, false)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v %d/%d failed\n%s", wl.Name, traced, res.Correct, res.Failed, res.Attempted, out)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", wl.Name, traced, name)
				} else if m.Unit != unit {
					t.Errorf("%s traced=%v: %s unit %q, want %q", wl.Name, traced, name, m.Unit, unit)
				}
				if !traced && !regexp.MustCompile(`(?m)^`+regexp.QuoteMeta(name)+` \S+ `+regexp.QuoteMeta(unit)).MatchString(out) {
					t.Errorf("%s: report line for %s with unit %s not printed", wl.Name, name, unit)
				}
			}
			if !strings.Contains(out, "fail_ratio ") || !strings.Contains(out, `"cpu_model"`) {
				t.Errorf("%s traced=%v: fail_ratio or stamp line missing\n%s", wl.Name, traced, out)
			}
		}
	}
}

// TestFlippedVerdictRaisesFailRatio inverts the known answer for the clean
// workload: every detection run must then count as failed.
func TestFlippedVerdictRaisesFailRatio(t *testing.T) {
	res, out := shortRun(t, "matmul_clean", false, true)
	if res.Correct || res.Attempted == 0 || res.Failed != res.Attempted {
		t.Fatalf("flipped verdict: correct=%v %d/%d failed, want all failed\n%s", res.Correct, res.Failed, res.Attempted, out)
	}
	if !strings.Contains(out, "failure x") {
		t.Errorf("no failure reason printed\n%s", out)
	}
}

// TestReplayInputAndCountsRepeat runs the traced replay twice with one
// seed: the trace hash and every detect/predict/report count must repeat.
func TestReplayInputAndCountsRepeat(t *testing.T) {
	traceLine := regexp.MustCompile(`(?m)^trace .* sha256=[0-9a-f]{64}$`)
	var lines []string
	var counts []map[string]float64
	for i := 0; i < 2; i++ {
		res, out := shortRun(t, "replay_stream", true, false)
		lines = append(lines, traceLine.FindString(out))
		c := map[string]float64{}
		for name, m := range res.Metrics {
			for _, p := range []string{"detect.", "predict.", "report."} {
				if strings.HasPrefix(name, p) && (m.Unit == "count" || m.Unit == "ratio") {
					c[name] = m.Value
				}
			}
		}
		counts = append(counts, c)
	}
	if lines[0] == "" || lines[0] != lines[1] {
		t.Errorf("trace line differs between runs of one seed:\n%q\n%q", lines[0], lines[1])
	}
	if len(counts[0]) == 0 {
		t.Fatal("no detect/predict/report counts reported")
	}
	for name, v := range counts[0] {
		if counts[1][name] != v {
			t.Errorf("%s: %v then %v", name, v, counts[1][name])
		}
	}
}
