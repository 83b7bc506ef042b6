package wlutil

import (
	"testing"
	"testing/quick"

	"predator/internal/cacheline"
	"predator/internal/core"
	"predator/internal/harness"
	"predator/internal/instr"
	"predator/internal/mem"
)

func TestPartitionCoversExactly(t *testing.T) {
	cases := []struct{ n, workers int }{
		{10, 3}, {8, 8}, {7, 8}, {100, 7}, {0, 4}, {1, 1},
	}
	for _, c := range cases {
		covered := 0
		prevHi := 0
		for id := 0; id < c.workers; id++ {
			lo, hi := Partition(c.n, c.workers, id)
			if lo != prevHi {
				t.Errorf("Partition(%d,%d,%d): gap at %d", c.n, c.workers, id, lo)
			}
			if hi < lo {
				t.Errorf("Partition(%d,%d,%d): hi < lo", c.n, c.workers, id)
			}
			covered += hi - lo
			prevHi = hi
		}
		if covered != c.n || prevHi != c.n {
			t.Errorf("Partition(%d,%d): covered %d", c.n, c.workers, covered)
		}
	}
}

func TestPropPartitionBalanced(t *testing.T) {
	f := func(n uint16, w uint8) bool {
		workers := int(w%16) + 1
		items := int(n % 10000)
		minSz, maxSz := items, 0
		for id := 0; id < workers; id++ {
			lo, hi := Partition(items, workers, id)
			sz := hi - lo
			if sz < minSz {
				minSz = sz
			}
			if sz > maxSz {
				maxSz = sz
			}
		}
		return maxSz-minSz <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMix64Sensitivity(t *testing.T) {
	a := Mix64(0, 1)
	b := Mix64(0, 2)
	if a == b {
		t.Error("Mix64 collision on adjacent inputs")
	}
	// Order sensitivity.
	if Mix64(Mix64(0, 1), 2) == Mix64(Mix64(0, 2), 1) {
		t.Error("Mix64 order-insensitive")
	}
}

func testCtx(t *testing.T, buggy bool) (*harness.Ctx, *instr.Thread) {
	t.Helper()
	h, err := mem.NewHeap(mem.Config{Size: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	in := instr.New(h, nil, instr.Policy{})
	c := &harness.Ctx{In: in, Heap: h, Threads: 4, Scale: 1, Buggy: buggy, Offset: harness.UseDefaultOffset}
	return c, in.NewThread("main")
}

func TestStatsBlockBuggyPacked(t *testing.T) {
	c, th := testCtx(t, true)
	b, err := NewStatsBlock(c, th, 24)
	if err != nil {
		t.Fatal(err)
	}
	if b.Stride != 24 {
		t.Errorf("buggy stride = %d, want 24 (packed)", b.Stride)
	}
	if b.Addr(1, 8) != b.Base+32 {
		t.Errorf("Addr(1,8) = %#x", b.Addr(1, 8))
	}
}

func TestStatsBlockFixedPadded(t *testing.T) {
	c, th := testCtx(t, false)
	b, err := NewStatsBlock(c, th, 24)
	if err != nil {
		t.Fatal(err)
	}
	if b.Stride != PaddedStride {
		t.Errorf("fixed stride = %d, want %d", b.Stride, PaddedStride)
	}
	// Larger slots round up to the multiple that still leaves a line of
	// slack: 200 + 64 bytes needs three pad units.
	b2, _ := NewStatsBlock(c, th, 200)
	if b2.Stride != 3*PaddedStride {
		t.Errorf("large slot stride = %d, want %d", b2.Stride, 3*PaddedStride)
	}
}

// TestCleanStrideLeavesALine pins the clean-layout rule: the stride is the
// smallest PaddedStride multiple with stride - slot >= line size, so the
// last word of one slot and the first of the next never fit in one line,
// whatever the base offset.
func TestCleanStrideLeavesALine(t *testing.T) {
	const line = cacheline.DefaultSize
	for slot := uint64(8); slot <= 1024; slot += 8 {
		stride := CleanStride(slot)
		if stride%PaddedStride != 0 || stride-slot < line || stride-PaddedStride >= slot+line {
			t.Fatalf("CleanStride(%d) = %d, want the smallest %d-multiple >= slot+%d", slot, stride, PaddedStride, line)
		}
	}
	if CleanStride(256) != 384 {
		t.Errorf("CleanStride(256) = %d, want 384 (pca's accumulator)", CleanStride(256))
	}
}

// abutting is a pca-shaped kernel: each thread adds into every word of its
// own 256-byte slot, laid out at the given stride from a line-aligned base.
type abutting struct{ stride uint64 }

func (abutting) Name() string          { return "abutting" }
func (abutting) Suite() string         { return "test" }
func (abutting) Description() string   { return "per-thread 256-byte accumulators" }
func (abutting) HasFalseSharing() bool { return false }

func (w abutting) Run(c *harness.Ctx) (uint64, error) {
	const slot = 256
	main := c.NewThread("main")
	base, err := main.AllocWithOffset(w.stride*uint64(c.Threads), 0)
	if err != nil {
		return 0, err
	}
	c.Parallel(c.Threads, "abutting", func(t *instr.Thread, id int) {
		for r := 0; r < 400; r++ {
			for off := uint64(0); off < slot; off += 8 {
				t.AddInt64(base+uint64(id)*w.stride+off, 1)
			}
		}
	})
	return main.Load64(base), nil
}

// TestAbuttingSlotsArePredicted: slots that fill their stride never share a
// physical line from a line-aligned base, yet PREDATOR predicts the
// different-alignment problem (paper §3.1) that the clean stride removes.
func TestAbuttingSlotsArePredicted(t *testing.T) {
	run := func(stride uint64, grain int) *harness.Result {
		cfg := core.Config{TrackingThreshold: 50, PredictionThreshold: 100, ReportThreshold: 200, Prediction: true}
		res, err := harness.Execute(abutting{stride: stride}, harness.Options{
			Mode: harness.ModePredict, Threads: 4, Runtime: &cfg,
			Deterministic: true, DeterministicGrain: grain,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, grain := range []int{4, 16, 64} {
		if res := run(256, grain); !res.FalseSharingFound() || !res.PredictedOnly() {
			t.Errorf("grain %d: abutting 256-byte slots not predicted-only:\n%s", grain, res.Report.String())
		}
		if res := run(CleanStride(256), grain); res.FalseSharingFound() {
			t.Errorf("grain %d: clean stride flagged:\n%s", grain, res.Report.String())
		}
	}
}

func TestStatsBlockForcedOffset(t *testing.T) {
	c, th := testCtx(t, true)
	c.Offset = 24
	b, err := NewStatsBlock(c, th, 64)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Heap.Geometry().Offset(b.Base); got != 24 {
		t.Errorf("base offset = %d, want 24", got)
	}
}
