package report

import (
	"encoding/json"
	"strings"
	"testing"

	"predator/internal/cacheline"
	"predator/internal/detect"
	"predator/internal/mem"
)

// mkObj builds an Object covering [start, start+size).
func mkObj(start, size uint64) mem.Object {
	return mem.Object{Start: start, Size: size}
}

func TestProblemsGroupByObject(t *testing.T) {
	objA := mkObj(0x1000, 256)
	objB := mkObj(0x2000, 64)
	r := Report{
		Geometry: geom,
		Findings: []Finding{
			// Three findings on object A (two lines + one virtual line).
			{Sharing: SharingFalse, Source: SourceObserved, Invalidations: 100,
				Span: cacheline.NewVirtual(0x1000, 64), Objects: []mem.Object{objA},
				Words: []WordDetail{{Addr: 0x1000, Writes: 1, Owner: 1}}},
			{Sharing: SharingFalse, Source: SourceObserved, Invalidations: 300,
				Span: cacheline.NewVirtual(0x1040, 64), Objects: []mem.Object{objA},
				Words: []WordDetail{{Addr: 0x1040, Writes: 1, Owner: 1}}},
			{Sharing: SharingFalse, Source: SourcePredictedAlignment, Invalidations: 50,
				Span: cacheline.NewVirtual(0x1020, 64), Objects: []mem.Object{objA},
				Words: []WordDetail{{Addr: 0x1020, Writes: 1, Owner: 1}}},
			// One finding on object B.
			{Sharing: SharingFalse, Source: SourcePredictedLineSize, Invalidations: 200,
				Span: cacheline.NewVirtual(0x2000, 128), Objects: []mem.Object{objB},
				Words: []WordDetail{{Addr: 0x2000, Writes: 1, Owner: 2}}},
			// A true-sharing finding: excluded from problems entirely.
			{Sharing: SharingTrue, Source: SourceObserved, Invalidations: 999,
				Span: cacheline.NewVirtual(0x3000, 64)},
		},
	}
	problems := r.Problems()
	if len(problems) != 2 {
		t.Fatalf("problems = %d, want 2", len(problems))
	}
	a := problems[0]
	if !a.HasObject || a.Object.Start != 0x1000 {
		t.Fatalf("first problem = %+v, want object A (highest total)", a.Object)
	}
	if a.TotalInvalidations != 450 || len(a.Findings) != 3 {
		t.Errorf("A totals = %d/%d", a.TotalInvalidations, len(a.Findings))
	}
	if a.Worst.Invalidations != 300 {
		t.Errorf("A worst = %d, want 300", a.Worst.Invalidations)
	}
	if len(a.Sources) != 2 || a.Sources[0] != SourceObserved {
		t.Errorf("A sources = %v", a.Sources)
	}
	if a.PredictedOnly() {
		t.Error("A has observed findings but claims predicted-only")
	}
	b := problems[1]
	if b.Object.Start != 0x2000 || !b.PredictedOnly() {
		t.Errorf("B = %+v predictedOnly=%v", b.Object, b.PredictedOnly())
	}
}

func TestProblemsWithoutObjectGroupByLine(t *testing.T) {
	r := Report{
		Geometry: geom,
		Findings: []Finding{
			{Sharing: SharingFalse, Source: SourceObserved, Invalidations: 10,
				Span:  cacheline.NewVirtual(0x5008, 64),
				Words: []WordDetail{{Addr: 0x5008, Writes: 1, Owner: 1}}},
			{Sharing: SharingFalse, Source: SourceObserved, Invalidations: 20,
				Span:  cacheline.NewVirtual(0x5010, 64),
				Words: []WordDetail{{Addr: 0x5010, Writes: 1, Owner: 2}}},
		},
	}
	problems := r.Problems()
	if len(problems) != 1 {
		t.Fatalf("problems = %d, want 1 (same aligned line)", len(problems))
	}
	if problems[0].HasObject {
		t.Error("object-less problem claims an object")
	}
	if !strings.Contains(problems[0].Summary(), "range [0x") {
		t.Errorf("summary = %q", problems[0].Summary())
	}
}

func TestProblemsEmptyReport(t *testing.T) {
	r := Report{Geometry: geom}
	if got := r.Problems(); len(got) != 0 {
		t.Errorf("problems = %d, want 0", len(got))
	}
}

func TestProblemSummaryNamesObject(t *testing.T) {
	obj := mem.Object{Start: 0x1000, Size: 128, Global: true, Label: "pool"}
	r := Report{
		Geometry: geom,
		Findings: []Finding{
			{Sharing: SharingFalse, Source: SourceObserved, Invalidations: 7,
				Span: cacheline.NewVirtual(0x1000, 64), Objects: []mem.Object{obj},
				Words: []WordDetail{{Addr: 0x1000, Writes: 1, Owner: 1}}},
		},
	}
	problems := r.Problems()
	if len(problems) != 1 {
		t.Fatal("no problem")
	}
	s := problems[0].Summary()
	for _, want := range []string{`"pool"`, "7 invalidations", "observed"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary %q missing %q", s, want)
		}
	}
}

func TestProblemsMixedDominatesFalse(t *testing.T) {
	obj := mkObj(0x1000, 64)
	r := Report{
		Geometry: geom,
		Findings: []Finding{
			{Sharing: SharingFalse, Source: SourceObserved, Invalidations: 5,
				Span: cacheline.NewVirtual(0x1000, 64), Objects: []mem.Object{obj},
				Words: []WordDetail{{Addr: 0x1000, Writes: 1, Owner: 1}}},
			{Sharing: SharingMixed, Source: SourceObserved, Invalidations: 3,
				Span: cacheline.NewVirtual(0x1000, 64), Objects: []mem.Object{obj},
				Words: []WordDetail{{Addr: 0x1000, Writes: 1, Owner: 1}}},
		},
	}
	problems := r.Problems()
	if len(problems) != 1 || problems[0].Sharing != SharingMixed {
		t.Errorf("problems = %+v", problems)
	}
}

func TestToJSONStructure(t *testing.T) {
	obj := mem.Object{Start: 0x1000, Size: 128, Global: true, Label: "pool"}
	r := Report{
		Geometry: geom,
		Findings: []Finding{
			{Sharing: SharingFalse, Source: SourceObserved, Invalidations: 7,
				Span: cacheline.NewVirtual(0x1000, 64), Objects: []mem.Object{obj},
				Accesses: 100, Reads: 60, Writes: 40,
				Words: []WordDetail{
					{Addr: 0x1000, Writes: 20, Owner: 1},
					{Addr: 0x1008, Writes: 20, Owner: 2},
					{Addr: 0x1010}, // untouched: omitted
				}},
			{Sharing: SharingTrue, Source: SourcePredictedLineSize, Invalidations: 3,
				Span: cacheline.NewVirtual(0x2000, 128), Estimate: 50,
				Words: []WordDetail{{Addr: 0x2000, Writes: 9, Owner: detect.OwnerShared}}},
		},
	}
	j := r.ToJSON()
	if j.LineSize != 64 || len(j.Findings) != 2 {
		t.Fatalf("json = %+v", j)
	}
	f0 := j.Findings[0]
	if f0.Source != "observed" || f0.Sharing != "false sharing" {
		t.Errorf("finding 0 = %+v", f0)
	}
	if f0.Object == nil || !f0.Object.Global || f0.Object.Label != "pool" {
		t.Errorf("object = %+v", f0.Object)
	}
	if len(f0.Words) != 2 || f0.Words[0].Owner != "1" {
		t.Errorf("words = %+v", f0.Words)
	}
	if j.Findings[1].Words[0].Owner != "shared" {
		t.Errorf("shared owner = %+v", j.Findings[1].Words[0])
	}
	if len(j.Problems) != 1 { // only the false-sharing finding groups
		t.Fatalf("problems = %+v", j.Problems)
	}
	if j.Problems[0].Object == nil || j.Problems[0].TotalInvalidations != 7 {
		t.Errorf("problem = %+v", j.Problems[0])
	}

	raw, err := r.MarshalIndentJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back JSONReport
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("round trip: %v\n%s", err, raw)
	}
	if back.LineSize != 64 || len(back.Findings) != 2 {
		t.Errorf("round-tripped = %+v", back)
	}
}
