package core

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"predator/internal/obs"
	"predator/internal/obs/flight"
	"predator/internal/obs/spans"
)

// newTracedRuntime builds a runtime whose observer carries a span tracer, so
// every hot-pair search leaves a predict.search span behind.
func newTracedRuntime(t *testing.T) (*Runtime, *spans.Tracer) {
	t.Helper()
	tr := spans.New(spans.Config{Deterministic: true})
	o := obs.New(obs.NewRegistry(), nil)
	o.SetSpans(tr)
	cfg := testConfig()
	cfg.Observer = o
	rt, _ := newRuntime(t, cfg)
	return rt, tr
}

// searchSpans counts the finished predict.search spans per line.
func searchSpans(tr *spans.Tracer) map[uint64]int {
	out := map[uint64]int{}
	for _, d := range tr.Snapshot() {
		if d.Name == "predict.search" {
			out[d.Attrs["line"]]++
		}
	}
	return out
}

// The §3.3 search runs once per line, not once per occupant: freeing the
// object resets the line's track, but driving the recycled line past
// PredictionThreshold again must not search it a second time.
func TestSearchSurvivesRecycling(t *testing.T) {
	rt, tr := newTracedRuntime(t)
	h := rt.Heap()
	addr, _ := h.Alloc(0, 64, 0)
	line, _ := rt.mapping.Index(addr)
	pingPongWrites(rt, addr, addr+8, 20) // 40 writes: tracked and searched
	if got := searchSpans(tr)[line]; got != 1 {
		t.Fatalf("first occupant: %d searches of line %d, want 1", got, line)
	}
	if err := h.Free(addr); err != nil {
		t.Fatal(err)
	}
	if w := rt.sh.Track(line).Writes(); w != 0 {
		t.Fatalf("free did not reset the track: %d writes", w)
	}
	addr2, _ := h.Alloc(0, 64, 0) // same size class: reuses the freed block
	if l2, _ := rt.mapping.Index(addr2); l2 != line {
		t.Fatalf("reallocation landed on line %d, want recycled line %d", l2, line)
	}
	pingPongWrites(rt, addr2, addr2+8, 20)
	if got := searchSpans(tr)[line]; got != 1 {
		t.Fatalf("after recycling: %d searches of line %d, want 1", got, line)
	}
}

// The phase track is rebuilt from track state at dump time: workload first,
// one prediction instant per search (the same lines the predict.search spans
// name), and a report instant only once Report has run — the last one, when
// it runs twice. The n filter never thins the phases.
func TestPhaseViewFromTrackState(t *testing.T) {
	rt, tr := newTracedRuntime(t)
	base, _ := rt.Heap().AllocWithOffset(0, 4*64, 0, 0)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		rt.HandleAccess(r.Intn(4), base+8*uint64(r.Intn(32)), 8, r.Intn(4) != 0)
	}

	phases := rt.FlightDump(0, -1).Phases
	if len(phases) == 0 || phases[0].Name != "workload" {
		t.Fatalf("phases must open with workload: %+v", phases)
	}
	got := map[uint64]int{}
	for _, p := range phases[1:] {
		switch p.Name {
		case "prediction":
			got[p.Line]++
			if p.Start != p.End {
				t.Errorf("prediction phase %+v is not an instant", p)
			}
		default:
			t.Fatalf("unexpected phase %+v before Report", p)
		}
	}
	want := searchSpans(tr)
	if len(want) == 0 {
		t.Fatal("seeded run searched no line; the test drives nothing")
	}
	if len(got) != len(want) {
		t.Fatalf("prediction phases %v, predict.search spans %v", got, want)
	}
	for line, n := range want {
		if n != 1 || got[line] != 1 {
			t.Errorf("line %d: %d spans, %d phases; want one each", line, n, got[line])
		}
	}
	if !slices.IsSortedFunc(phases[1:], func(a, b flight.PhaseSpan) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.Line, b.Line))
	}) {
		t.Errorf("phases after workload not ordered by tick, then line: %+v", phases)
	}

	rt.Report()
	first := rt.fclock.Now()
	pingPongWrites(rt, base, base+8, 8) // invalidations always tick the clock
	if rt.fclock.Now() == first {
		t.Fatal("clock did not advance between the two reports")
	}
	rt.Report()
	phases = rt.FlightDump(0, -1).Phases
	last := phases[len(phases)-1]
	if last.Name != "report" || last.Start != rt.fclock.Now() {
		t.Fatalf("last phase %+v, want report at tick %d", last, rt.fclock.Now())
	}
	reports := 0
	for _, p := range phases {
		if p.Name == "report" {
			reports++
		}
	}
	if reports != 1 {
		t.Errorf("%d report phases after two reports, want the last one only", reports)
	}
	if top := rt.FlightDump(1, -1).Phases; !slices.Equal(top, phases) {
		t.Errorf("FlightDump(1, -1) phases differ from the full dump:\n%+v\n%+v", top, phases)
	}
}
