package trace

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"

	"predator/internal/callsite"
	"predator/internal/core"
	"predator/internal/instr"
	"predator/internal/mem"
)

func testHeader() Header {
	return Header{HeapBase: 0x400000000, HeapSize: 4 << 20, LineSize: 64}
}

func TestRoundTripAllOps(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	events := []Event{
		{Op: OpThread, TID: 0, Name: "main"},
		{Op: OpAlloc, TID: 0, Addr: 0x400000040, Size: 128},
		{Op: OpWrite, TID: 0, Addr: 0x400000040, Size: 8},
		{Op: OpRead, TID: 1, Addr: 0x400000048, Size: 4},
		{Op: OpGlobal, Addr: 0x400010000, Size: 64, Name: "counters"},
		{Op: OpFree, Addr: 0x400000040},
	}
	for _, e := range events {
		if err := w.WriteEvent(e); err != nil {
			t.Fatal(err)
		}
	}
	if w.Events() != uint64(len(events)) {
		t.Errorf("Events = %d", w.Events())
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Header() != testHeader() {
		t.Errorf("header = %+v", r.Header())
	}
	for i, want := range events {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if got != want {
			t.Errorf("event %d = %+v, want %+v", i, got, want)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("want io.EOF at end, got %v", err)
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := NewReader(strings.NewReader("NOTATRACEFILE-------")); err != ErrBadMagic {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestTruncatedTrace(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, testHeader())
	w.WriteEvent(Event{Op: OpWrite, TID: 1, Addr: 0x400000040, Size: 8})
	w.Flush()
	raw := buf.Bytes()
	r, err := NewReader(bytes.NewReader(raw[:len(raw)-1]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil {
		t.Error("truncated event decoded without error")
	}
}

func TestUnknownOp(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, testHeader())
	w.Flush()
	buf.WriteByte(0xEE)
	r, _ := NewReader(&buf)
	if _, err := r.Next(); err == nil {
		t.Error("unknown op decoded")
	}
}

func TestWriterAsSink(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, testHeader())
	w.HandleAccess(3, 0x400000100, 8, true)
	w.HandleAccess(4, 0x400000108, 2, false)
	w.Flush()
	r, _ := NewReader(&buf)
	e1, _ := r.Next()
	e2, _ := r.Next()
	if e1.Op != OpWrite || e1.TID != 3 || e1.Size != 8 {
		t.Errorf("e1 = %+v", e1)
	}
	if e2.Op != OpRead || e2.TID != 4 || e2.Size != 2 {
		t.Errorf("e2 = %+v", e2)
	}
}

func TestConcurrentWriters(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, testHeader())
	var wg sync.WaitGroup
	const workers, per = 4, 1000
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				w.HandleAccess(tid, 0x400000000+uint64(j*8), 8, true)
			}
		}(i)
	}
	wg.Wait()
	w.Flush()
	r, _ := NewReader(&buf)
	count := 0
	for {
		if _, err := r.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		count++
	}
	if count != workers*per {
		t.Errorf("decoded %d events, want %d", count, workers*per)
	}
}

// record runs a small false-sharing workload while recording its accesses
// and allocations into a trace, returning the encoded trace.
func record(t *testing.T) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	h, err := mem.NewHeap(mem.Config{Base: 0x400000000, Size: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	Mirror(h, w)
	in := instr.New(h, w, instr.Policy{})
	t1, t2 := in.NewThread("a"), in.NewThread("b")
	w.WriteEvent(Event{Op: OpThread, TID: 0, Name: "a"})
	w.WriteEvent(Event{Op: OpThread, TID: 1, Name: "b"})
	addr, err := h.Alloc(t1.ID(), 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		t1.Store64(addr, uint64(i))
		t2.Store64(addr+8, uint64(i))
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func replayConfig() core.Config {
	return core.Config{
		TrackingThreshold:   10,
		PredictionThreshold: 20,
		ReportThreshold:     50,
		Prediction:          true,
	}
}

func TestReplayDetectsRecordedFalseSharing(t *testing.T) {
	buf := record(t)
	res, err := Replay(bytes.NewReader(buf.Bytes()), replayConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.FalseSharing()) == 0 {
		t.Fatal("replay missed recorded false sharing")
	}
	if res.Threads[0] != "a" || res.Threads[1] != "b" {
		t.Errorf("threads = %v", res.Threads)
	}
	if res.Events == 0 {
		t.Error("no events replayed")
	}
	// The replayed finding resolves to the recorded allocation.
	f := res.Report.FalseSharing()[0]
	if _, ok := f.PrimaryObject(); !ok {
		t.Error("replayed finding lost object attribution")
	}
}

func TestReplayDeterministic(t *testing.T) {
	buf := record(t)
	a, err := Replay(bytes.NewReader(buf.Bytes()), replayConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Replay(bytes.NewReader(buf.Bytes()), replayConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Report.Findings) != len(b.Report.Findings) {
		t.Fatal("replays disagree on finding count")
	}
	for i := range a.Report.Findings {
		fa, fb := a.Report.Findings[i], b.Report.Findings[i]
		if fa.Invalidations != fb.Invalidations || fa.Span != fb.Span {
			t.Errorf("finding %d differs: %d/%v vs %d/%v",
				i, fa.Invalidations, fa.Span, fb.Invalidations, fb.Span)
		}
	}
}

func TestReplayWithDifferentConfig(t *testing.T) {
	buf := record(t)
	// Impossibly high report threshold: same trace, no findings.
	cfg := replayConfig()
	cfg.ReportThreshold = 1 << 40
	res, err := Replay(bytes.NewReader(buf.Bytes()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.Findings) != 0 {
		t.Error("threshold ignored on replay")
	}
}

func TestReplayRejectsCorruptAlloc(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, testHeader())
	w.WriteEvent(Event{Op: OpAlloc, TID: 0, Addr: 0x10, Size: 64}) // outside heap
	w.Flush()
	if _, err := Replay(bytes.NewReader(buf.Bytes()), replayConfig()); err == nil {
		t.Error("out-of-heap alloc replayed without error")
	}
}

func BenchmarkWriteEvent(b *testing.B) {
	w, _ := NewWriter(io.Discard, testHeader())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.HandleAccess(i&3, 0x400000000+uint64(i&1023)*8, 8, i&1 == 0)
	}
}

// fanOut forwards each access to several sinks in order: here the live
// runtime and the trace Writer recording the same run.
type fanOut []instr.Sink

func (f fanOut) HandleAccess(tid int, addr, size uint64, isWrite bool) {
	for _, s := range f {
		s.HandleAccess(tid, addr, size, isWrite)
	}
}

// TestRecordReplayParity is the fidelity contract: one live run recorded into
// a trace must replay to the same core.Stats and the same findings the live
// runtime produced. Frees are part of the contract — the runtime recycles
// line metadata on free, so a trace missing OpFree events would diverge.
func TestRecordReplayParity(t *testing.T) {
	const base, size = uint64(0x400000000), uint64(4 << 20)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{HeapBase: base, HeapSize: size, LineSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	h, err := mem.NewHeap(mem.Config{Base: base, Size: size})
	if err != nil {
		t.Fatal(err)
	}
	Mirror(h, w)
	cfg := replayConfig()
	rt, err := core.NewRuntime(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := instr.New(h, fanOut{rt, w}, instr.Policy{})
	t1, t2 := in.NewThread("a"), in.NewThread("b")

	// Falsely-shared object: two threads hammer adjacent words.
	shared, err := h.Alloc(t1.ID(), 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Tracked-then-freed object: crosses the tracking threshold, then is
	// freed so its line metadata is recycled — the OpFree-sensitive path.
	scratch, err := h.Alloc(t2.ID(), 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		t1.Store64(shared, uint64(i))
		t2.Store64(shared+8, uint64(i))
		t1.Store64(scratch, uint64(i))
	}
	if err := h.Free(scratch); err != nil {
		t.Fatal(err)
	}
	// Post-free traffic on the shared line keeps accumulating.
	for i := 0; i < 100; i++ {
		t1.Store64(shared, uint64(i))
		t2.Store64(shared+8, uint64(i))
	}
	liveStats := rt.Stats()
	liveReport := rt.Report()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	res, err := Replay(bytes.NewReader(buf.Bytes()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats != liveStats {
		t.Errorf("stats diverge:\n live:   %+v\n replay: %+v", liveStats, res.Stats)
	}
	if got, want := len(res.Report.Findings), len(liveReport.Findings); got != want {
		t.Fatalf("finding count: replay %d, live %d", got, want)
	}
	for i := range liveReport.Findings {
		lf, rf := liveReport.Findings[i], res.Report.Findings[i]
		if lf.Source != rf.Source || lf.Sharing != rf.Sharing || lf.Span != rf.Span ||
			lf.Accesses != rf.Accesses || lf.Reads != rf.Reads || lf.Writes != rf.Writes ||
			lf.Invalidations != rf.Invalidations || lf.Estimate != rf.Estimate {
			t.Errorf("finding %d diverges:\n live:   %+v\n replay: %+v", i, lf, rf)
		}
		if !reflect.DeepEqual(lf.Words, rf.Words) {
			t.Errorf("finding %d words diverge", i)
		}
		if len(lf.Objects) != len(rf.Objects) {
			t.Errorf("finding %d object count: live %d, replay %d", i, len(lf.Objects), len(rf.Objects))
			continue
		}
		for j := range lf.Objects {
			lo, ro := lf.Objects[j], rf.Objects[j]
			// Callsites are not recorded in traces; everything else must match.
			lo.Callsite, ro.Callsite = callsite.Stack{}, callsite.Stack{}
			if !reflect.DeepEqual(lo, ro) {
				t.Errorf("finding %d object %d diverges:\n live:   %+v\n replay: %+v", i, j, lo, ro)
			}
		}
	}
}
