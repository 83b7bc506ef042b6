package instr

import (
	"testing"

	"predator/internal/mem"
)

// recorder is a Sink capturing events.
type recorder struct {
	events []event
}

type event struct {
	tid     int
	addr    uint64
	size    uint64
	isWrite bool
}

func (r *recorder) HandleAccess(tid int, addr, size uint64, isWrite bool) {
	r.events = append(r.events, event{tid, addr, size, isWrite})
}

func setup(t *testing.T, policy Policy) (*Instrumenter, *recorder, uint64) {
	t.Helper()
	h, err := mem.NewHeap(mem.Config{Size: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	in := New(h, rec, policy)
	addr, err := h.Alloc(0, 256, 0)
	if err != nil {
		t.Fatal(err)
	}
	return in, rec, addr
}

func TestStoreLoadRoundTrip(t *testing.T) {
	in, rec, addr := setup(t, Policy{})
	th := in.NewThread("w")
	th.Store64(addr, 0xDEADBEEFCAFEF00D)
	if got := th.Load64(addr); got != 0xDEADBEEFCAFEF00D {
		t.Errorf("Load64 = %#x", got)
	}
	th.Store32(addr+8, 0x12345678)
	if got := th.Load32(addr + 8); got != 0x12345678 {
		t.Errorf("Load32 = %#x", got)
	}
	th.Store8(addr+12, 0xAB)
	if got := th.Load8(addr + 12); got != 0xAB {
		t.Errorf("Load8 = %#x", got)
	}
	th.StoreFloat64(addr+16, 3.14159)
	if got := th.LoadFloat64(addr + 16); got != 3.14159 {
		t.Errorf("LoadFloat64 = %v", got)
	}
	th.StoreInt64(addr+24, -42)
	if got := th.LoadInt64(addr + 24); got != -42 {
		t.Errorf("LoadInt64 = %d", got)
	}
	if len(rec.events) != 10 {
		t.Errorf("events = %d, want 10", len(rec.events))
	}
	// First event: the Store64.
	e := rec.events[0]
	if e.addr != addr || e.size != 8 || !e.isWrite || e.tid != 0 {
		t.Errorf("event = %+v", e)
	}
}

func TestAddInt64(t *testing.T) {
	in, rec, addr := setup(t, Policy{})
	th := in.NewThread("w")
	th.StoreInt64(addr, 10)
	if got := th.AddInt64(addr, 5); got != 15 {
		t.Errorf("AddInt64 = %d", got)
	}
	// Store + (load+store) = 3 events.
	if len(rec.events) != 3 {
		t.Errorf("events = %d, want 3", len(rec.events))
	}
}

func TestBytesAccessors(t *testing.T) {
	in, rec, addr := setup(t, Policy{})
	th := in.NewThread("w")
	src := []byte("hello false sharing")
	th.WriteBytes(addr, src)
	dst := make([]byte, len(src))
	th.ReadBytes(addr, dst)
	if string(dst) != string(src) {
		t.Errorf("round trip = %q", dst)
	}
	if len(rec.events) != 2 || rec.events[0].size != uint64(len(src)) {
		t.Errorf("events = %+v", rec.events)
	}
}

func TestThreadIDsDense(t *testing.T) {
	in, _, _ := setup(t, Policy{})
	a := in.NewThread("a")
	b := in.NewThread("b")
	c := in.NewThread("c")
	if a.ID() != 0 || b.ID() != 1 || c.ID() != 2 {
		t.Errorf("ids = %d,%d,%d", a.ID(), b.ID(), c.ID())
	}
	if b.Name() != "b" {
		t.Errorf("name = %q", b.Name())
	}
}

func TestNilSinkIsUninstrumented(t *testing.T) {
	h, _ := mem.NewHeap(mem.Config{Size: 1 << 20})
	in := New(h, nil, Policy{})
	addr, _ := h.Alloc(0, 64, 0)
	th := in.NewThread("native")
	// Enabling must not stick without a sink: a delivery to the nil sink
	// would panic.
	in.SetEnabled(true)
	th.Store64(addr, 7)
	if got := th.Load64(addr); got != 7 {
		t.Errorf("data path broken without sink: %d", got)
	}
}

func TestSetEnabled(t *testing.T) {
	in, rec, addr := setup(t, Policy{})
	th := in.NewThread("w")
	in.SetEnabled(false)
	th.Store64(addr, 1)
	if len(rec.events) != 0 {
		t.Error("disabled instrumenter delivered events")
	}
	in.SetEnabled(true)
	th.Store64(addr, 2)
	if len(rec.events) != 1 {
		t.Error("re-enabled instrumenter did not deliver")
	}
}

func TestWritesOnlyPolicy(t *testing.T) {
	in, rec, addr := setup(t, Policy{WritesOnly: true})
	th := in.NewThread("w")
	th.Store64(addr, 1)
	th.Load64(addr)
	th.Load64(addr)
	if len(rec.events) != 1 || !rec.events[0].isWrite {
		t.Errorf("events = %+v, want single write", rec.events)
	}
	if in.Suppressed() != 2 {
		t.Errorf("suppressed = %d, want 2", in.Suppressed())
	}
}

func TestWhitelistPolicy(t *testing.T) {
	in, rec, addr := setup(t, Policy{Whitelist: map[string]bool{"hot": true}})
	th := in.NewThread("w")
	th.SetScope("cold")
	th.Store64(addr, 1)
	th.SetScope("hot")
	th.Store64(addr, 2)
	if len(rec.events) != 1 {
		t.Fatalf("events = %d, want 1", len(rec.events))
	}
}

func TestBlacklistPolicy(t *testing.T) {
	in, rec, addr := setup(t, Policy{Blacklist: map[string]bool{"noisy": true}})
	th := in.NewThread("w")
	th.SetScope("noisy")
	th.Store64(addr, 1)
	th.SetScope("app")
	th.Store64(addr, 2)
	if len(rec.events) != 1 {
		t.Fatalf("events = %d, want 1", len(rec.events))
	}
}

func TestDedupWindow(t *testing.T) {
	in, rec, addr := setup(t, Policy{DedupWindow: 4})
	th := in.NewThread("w")
	// Same line, same type, back to back: only the first reported.
	th.Store64(addr, 1)
	th.Store64(addr+8, 2) // same line
	th.Store64(addr+16, 3)
	if len(rec.events) != 1 {
		t.Fatalf("events = %d, want 1 after dedup", len(rec.events))
	}
	// A read to the same line is a different (line, type) key.
	th.Load64(addr)
	if len(rec.events) != 2 {
		t.Fatalf("events = %d, want 2", len(rec.events))
	}
	// A different line passes.
	th.Store64(addr+128, 4)
	if len(rec.events) != 3 {
		t.Fatalf("events = %d, want 3", len(rec.events))
	}
	if in.Suppressed() != 2 {
		t.Errorf("suppressed = %d, want 2", in.Suppressed())
	}
}

func TestDedupWindowKeysOnHeapLineSize(t *testing.T) {
	h, err := mem.NewHeap(mem.Config{Size: 1 << 20, LineSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	in := New(h, rec, Policy{DedupWindow: 4})
	addr, err := h.Alloc(0, 512, 0)
	if err != nil {
		t.Fatal(err)
	}
	line := h.Geometry().AlignUp(addr)
	th := in.NewThread("w")
	// 64 bytes apart is one 128-byte line: the second store is a duplicate.
	th.Store64(line, 1)
	th.Store64(line+64, 2)
	if len(rec.events) != 1 || in.Suppressed() != 1 {
		t.Errorf("events = %d, suppressed = %d, want 1, 1", len(rec.events), in.Suppressed())
	}
}

func TestDedupWindowExpires(t *testing.T) {
	in, rec, addr := setup(t, Policy{DedupWindow: 2})
	th := in.NewThread("w")
	th.Store64(addr, 1)   // line A: reported
	th.Load64(addr + 128) // line B read
	th.Load64(addr + 192) // line C read
	th.Store64(addr+8, 2) // line A write again: window of 2 has B,C -> reported
	if len(rec.events) != 4 {
		t.Fatalf("events = %d, want 4", len(rec.events))
	}
}

func TestOutOfRangePanics(t *testing.T) {
	in, _, _ := setup(t, Policy{})
	th := in.NewThread("w")
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-heap access did not panic")
		}
	}()
	th.Store64(0x10, 1)
}

func TestAllocHelpers(t *testing.T) {
	in, _, _ := setup(t, Policy{})
	th := in.NewThread("w")
	addr, err := th.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	o, ok := in.Heap().FindObject(addr)
	if !ok || o.Thread != th.ID() {
		t.Errorf("object = %+v", o)
	}
	off, err := th.AllocWithOffset(64, 24)
	if err != nil {
		t.Fatal(err)
	}
	if in.Heap().Geometry().Offset(off) != 24 {
		t.Errorf("offset = %d, want 24", in.Heap().Geometry().Offset(off))
	}
	if err := th.Free(addr); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkStore64Instrumented(b *testing.B) {
	h := mem.MustNewHeap(mem.Config{Size: 1 << 20})
	in := New(h, nopSink{}, Policy{})
	addr, _ := h.Alloc(0, 4096, 0)
	th := in.NewThread("b")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Store64(addr+uint64(i%512)*8, uint64(i))
	}
}

func BenchmarkStore64Native(b *testing.B) {
	h := mem.MustNewHeap(mem.Config{Size: 1 << 20})
	in := New(h, nil, Policy{})
	addr, _ := h.Alloc(0, 4096, 0)
	th := in.NewThread("b")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Store64(addr+uint64(i%512)*8, uint64(i))
	}
}

type nopSink struct{}

func (nopSink) HandleAccess(int, uint64, uint64, bool) {}
