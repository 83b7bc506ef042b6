package cmd_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var updateCounts = flag.Bool("update-counts", false, "rewrite testdata/counts.golden from the built predator binary")

// bannerCountsRE matches the predator stats banner up to, but not including,
// its wall-clock " total=" suffix: every field it captures is a count.
var bannerCountsRE = regexp.MustCompile(`(?m)^(accesses=.*) total=`)

// TestDeterministicCountsGolden pins the detector's deterministic output:
// the banner counts and every finding's source, span, accesses and
// invalidations, for a grid of workloads and configurations. A refactor of
// detection, sampling or prediction verification must leave this file
// byte-identical. Regenerate with -update-counts after a deliberate change
// to what the detector finds.
func TestDeterministicCountsGolden(t *testing.T) {
	base := []string{"-deterministic", "-threads", "2", "-json"}
	runs := [][]string{
		{"-workload", "linear_regression"},
		{"-workload", "streamcluster"},
		{"-workload", "histogram"},
		{"-workload", "latent_share"},
		{"-workload", "ww_share"},
		{"-workload", "linear_regression", "-sample-window", "2000", "-sample-burst", "500"},
		{"-workload", "streamcluster", "-flight-depth", "-1"},
	}
	var got strings.Builder
	for _, args := range runs {
		args = append(append([]string(nil), base...), args...)
		fmt.Fprintf(&got, "# predator %s\n", strings.Join(args, " "))
		got.WriteString(countsOf(t, args))
	}
	golden := filepath.Join("testdata", "counts.golden")
	if *updateCounts {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("deterministic counts changed; got:\n%s\nwant:\n%s", got.String(), want)
	}
}

// countsOf runs predator with args and renders its banner counts (stderr)
// and per-finding counts (JSON on stdout), one line each.
func countsOf(t *testing.T, args []string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bins["predator"], args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("predator %v: %v\n%s", args, err, stderr.String())
	}
	m := bannerCountsRE.FindStringSubmatch(stderr.String())
	if m == nil {
		t.Fatalf("predator %v: no stats banner on stderr:\n%s", args, stderr.String())
	}
	var rep struct {
		Findings []struct {
			Source        string `json:"source"`
			SpanStart     uint64 `json:"span_start"`
			SpanEnd       uint64 `json:"span_end"`
			Accesses      uint64 `json:"accesses"`
			Invalidations uint64 `json:"invalidations"`
		} `json:"findings"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("predator %v: stdout is not a JSON report: %v", args, err)
	}
	var b strings.Builder
	b.WriteString(m[1] + "\n")
	for _, f := range rep.Findings {
		fmt.Fprintf(&b, "%s span=%#x-%#x accesses=%d invalidations=%d\n",
			f.Source, f.SpanStart, f.SpanEnd, f.Accesses, f.Invalidations)
	}
	return b.String()
}
