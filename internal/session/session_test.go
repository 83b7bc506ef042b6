package session

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"predator/internal/core"
	"predator/internal/obs"
	"predator/internal/obs/diag"
	"predator/internal/obs/fleetclient"
)

// testFlags builds the parsed flag state Parse would produce, without
// touching flag.CommandLine.
func testFlags(metrics, events, spans, timeline string) *Flags {
	empty := ""
	return &Flags{
		tool:        "predtest",
		metricsOut:  &metrics,
		eventsOut:   &events,
		spansOut:    &spans,
		timelineOut: &timeline,
		diag:        &diag.Flags{Addr: &empty},
		fleet:       &fleetclient.Flags{Addr: &empty},
	}
}

// TestFinishReportsEveryFailedOutput: one unwritable output file does not
// stop the teardown; Finish still writes the others and returns one error
// per failure, each naming its path.
func TestFinishReportsEveryFailedOutput(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "missing", "m.prom")
	timeline := filepath.Join(dir, "t.json")
	events := filepath.Join(dir, "e.jsonl")
	spans := filepath.Join(dir, "s.json")
	s, err := testFlags(metrics, events, spans, timeline).Start(Config{Deterministic: true})
	if err != nil {
		t.Fatal(err)
	}
	s.Observer.Emit(obs.Event{Type: obs.EvThread})

	err = s.Finish(Outcome{})
	if err == nil {
		t.Fatal("Finish succeeded with an unwritable metrics path and no runtime for the timeline")
	}
	for _, want := range []string{metrics, "-timeline-out"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
	for _, path := range []string{events, spans} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s not written after an earlier output failed: %v", path, err)
		}
	}
}

// TestOnRuntimeKeepsOnlyWhenNeeded: the hook holds the newest runtime only
// when the timeline (or diagnostics, or fleet) reads it, so a plain sweep
// never keeps a finished run's runtime alive.
func TestOnRuntimeKeepsOnlyWhenNeeded(t *testing.T) {
	for _, timeline := range []string{"", filepath.Join(t.TempDir(), "t.json")} {
		s, err := testFlags("", "", "", timeline).Start(Config{})
		if err != nil {
			t.Fatal(err)
		}
		rt := &core.Runtime{}
		s.OnRuntime(rt)
		if kept := s.rt.Load() == rt; kept != (timeline != "") {
			t.Errorf("-timeline-out %q: runtime kept = %v", timeline, kept)
		}
		s.stopInt()
	}
}
