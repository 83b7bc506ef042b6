package trace

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"predator/internal/core"
	"predator/internal/mem"
)

// failingWriter errors after n bytes.
type failingWriter struct {
	n      int
	budget int
}

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.n+len(p) > f.budget {
		return 0, errors.New("disk full")
	}
	f.n += len(p)
	return len(p), nil
}

func TestWriterPropagatesIOErrorsOnFlush(t *testing.T) {
	// Output is buffered: the underlying write error surfaces at Flush.
	w, err := NewWriter(&failingWriter{budget: 4}, testHeader())
	if err != nil {
		t.Fatalf("buffered header write failed early: %v", err)
	}
	w.HandleAccess(0, 0x400000000, 8, true)
	if err := w.Flush(); err == nil {
		t.Error("flush error swallowed")
	}
}

func TestWriteEventUnknownOp(t *testing.T) {
	w, err := NewWriter(io.Discard, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteEvent(Event{Op: Op(99)}); err == nil {
		t.Error("unknown op accepted")
	}
}

func TestReaderShortHeader(t *testing.T) {
	if _, err := NewReader(strings.NewReader("PR")); err == nil {
		t.Error("truncated magic accepted")
	}
	var buf bytes.Buffer
	buf.Write(Magic[:])
	buf.WriteString("short")
	if _, err := NewReader(&buf); err == nil {
		t.Error("truncated header accepted")
	}
}

func TestReaderImplausibleString(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, testHeader())
	w.Flush()
	// Hand-craft an OpGlobal with an absurd name length.
	buf.WriteByte(byte(OpGlobal))
	buf.WriteByte(0x10) // addr
	buf.WriteByte(0x08) // size
	// Varint for 2^30 (way past the 1 MiB cap).
	buf.Write([]byte{0x80, 0x80, 0x80, 0x80, 0x04})
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil {
		t.Error("implausible string length accepted")
	}
}

func TestReplayDoublesFreeAndThreads(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, testHeader())
	w.WriteEvent(Event{Op: OpThread, TID: 0, Name: "main"})
	w.WriteEvent(Event{Op: OpAlloc, TID: 0, Addr: 0x400000040, Size: 64})
	w.WriteEvent(Event{Op: OpWrite, TID: 0, Addr: 0x400000040, Size: 8})
	w.WriteEvent(Event{Op: OpFree, Addr: 0x400000040})
	w.WriteEvent(Event{Op: OpFree, Addr: 0x400000040}) // double free
	w.Flush()
	if _, err := Replay(bytes.NewReader(buf.Bytes()), replayConfig()); err == nil {
		t.Error("double free replayed without error")
	}
}

func TestReplayRejectsOverlappingImports(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, testHeader())
	w.WriteEvent(Event{Op: OpAlloc, TID: 0, Addr: 0x400000040, Size: 64})
	w.WriteEvent(Event{Op: OpAlloc, TID: 1, Addr: 0x400000060, Size: 64}) // overlaps
	w.Flush()
	if _, err := Replay(bytes.NewReader(buf.Bytes()), replayConfig()); err == nil {
		t.Error("overlapping imports replayed without error")
	}
}

func TestReplayBadHeaderGeometry(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, Header{HeapBase: 0x400000000, HeapSize: 12345, LineSize: 64})
	w.Flush()
	if _, err := Replay(bytes.NewReader(buf.Bytes()), replayConfig()); err == nil {
		t.Error("non-chunk-multiple heap size replayed without error")
	}
}

func TestMirrorRecordsOperations(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, testHeader())
	h, _ := mem.NewHeap(mem.Config{Base: 0x400000000, Size: 4 << 20})
	Mirror(h, w)

	addr, err := h.Alloc(2, 96, 0)
	if err != nil {
		t.Fatal(err)
	}
	g, err := h.DefineGlobal("cfg", 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Free(addr); err != nil {
		t.Fatal(err)
	}
	// A refused double free must not be recorded as a second OpFree.
	if err := h.Free(addr); err == nil {
		t.Error("double free on a mirrored heap accepted")
	}
	w.Flush()

	r, _ := NewReader(&buf)
	var ops []Op
	for {
		e, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, e.Op)
		if e.Op == OpGlobal && (e.Addr != g || e.Name != "cfg") {
			t.Errorf("global event = %+v", e)
		}
	}
	want := []Op{OpAlloc, OpGlobal, OpFree}
	if len(ops) != len(want) {
		t.Fatalf("ops = %v", ops)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("ops = %v, want %v", ops, want)
		}
	}
}

func TestReplayWritesOnlyEventsDetect(t *testing.T) {
	// A trace containing only write events (as a writes-only policy
	// would record) still detects write-write sharing on replay.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, testHeader())
	w.WriteEvent(Event{Op: OpAlloc, TID: 0, Addr: 0x400000040, Size: 64})
	for i := 0; i < 500; i++ {
		w.WriteEvent(Event{Op: OpWrite, TID: 1, Addr: 0x400000040, Size: 8})
		w.WriteEvent(Event{Op: OpWrite, TID: 2, Addr: 0x400000048, Size: 8})
	}
	w.Flush()
	res, err := Replay(bytes.NewReader(buf.Bytes()), core.Config{
		TrackingThreshold: 10, PredictionThreshold: 20, ReportThreshold: 50, Prediction: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Report.FalseSharing()) == 0 {
		t.Error("writes-only trace lost the sharing")
	}
}
