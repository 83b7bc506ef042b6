package predict

import (
	"sync"
	"testing"
	"testing/quick"

	"predator/internal/cacheline"
	"predator/internal/detect"
)

var geom = cacheline.MustGeometry(64)

const base = uint64(0x400000000)

// mkTrack builds a track for the line with the given index and applies
// accesses: each spec is {thread, wordIndex, writes, reads}.
func mkTrack(lineIndex uint64, specs ...[4]int) *detect.Track {
	t := detect.NewTrack(base+lineIndex*64, geom, detect.Sampler{})
	for _, s := range specs {
		addr := base + lineIndex*64 + uint64(s[1]*8)
		for i := 0; i < s[2]; i++ {
			t.HandleAccess(s[0], addr, 8, true)
		}
		for i := 0; i < s[3]; i++ {
			t.HandleAccess(s[0], addr, 8, false)
		}
	}
	return t
}

func TestEstimateInvalidations(t *testing.T) {
	cases := []struct {
		x, y HotWord
		want uint64
	}{
		{HotWord{Reads: 10}, HotWord{Reads: 20}, 0},                     // no writes
		{HotWord{Writes: 10}, HotWord{Reads: 20}, 10},                   // one writer
		{HotWord{Writes: 5, Reads: 5}, HotWord{Writes: 30}, 20},         // both write: 2*min(10,30)
		{HotWord{Writes: 100}, HotWord{Writes: 100}, 200},               // symmetric writers
		{HotWord{Reads: 1000}, HotWord{Writes: 3}, 3},                   // tiny writer
		{HotWord{Writes: 0, Reads: 0}, HotWord{Writes: 0, Reads: 0}, 0}, // empty
		{HotWord{Writes: 1}, HotWord{Writes: 1}, 2},                     // minimal both-write
	}
	for i, c := range cases {
		if got := EstimateInvalidations(c.x, c.y); got != c.want {
			t.Errorf("case %d: estimate = %d, want %d", i, got, c.want)
		}
	}
}

func TestFindPairsAdjacentWriters(t *testing.T) {
	// Thread 1 writes the last word of line 0; thread 2 writes the first
	// word of line 1. This is the canonical latent false sharing: no
	// physical sharing, but any placement shift creates it.
	cur := mkTrack(0, [4]int{1, 7, 100, 0})
	adj := mkTrack(1, [4]int{2, 0, 100, 0})
	pairs := FindPairs(cur, adj, geom)
	if len(pairs) == 0 {
		t.Fatal("no pairs found for adjacent hot writers")
	}
	var alignment, doubled *HotPair
	for i := range pairs {
		switch pairs[i].Kind {
		case KindAlignment:
			alignment = &pairs[i]
		case KindDoubledLine:
			doubled = &pairs[i]
		}
	}
	if alignment == nil {
		t.Fatal("no alignment-change candidate")
	}
	if doubled == nil {
		t.Fatal("no doubled-line candidate (lines 0,1 must fuse)")
	}
	if alignment.X.Addr != base+56 || alignment.Y.Addr != base+64 {
		t.Errorf("pair = %#x,%#x", alignment.X.Addr, alignment.Y.Addr)
	}
	if !alignment.Span.Contains(alignment.X.Addr) || !alignment.Span.Contains(alignment.Y.Addr) {
		t.Error("span does not contain the pair")
	}
	if alignment.Estimate != 200 {
		t.Errorf("estimate = %d, want 200", alignment.Estimate)
	}
	if doubled.Span.Start != base || doubled.Span.Size() != 128 {
		t.Errorf("doubled span = %v", doubled.Span)
	}
}

func TestFindPairsOddEvenParity(t *testing.T) {
	// Lines 1 and 2 do NOT fuse under doubled line size (only 2i, 2i+1),
	// so only the alignment candidate should appear.
	cur := mkTrack(1, [4]int{1, 7, 100, 0})
	adj := mkTrack(2, [4]int{2, 0, 100, 0})
	pairs := FindPairs(cur, adj, geom)
	for _, p := range pairs {
		if p.Kind == KindDoubledLine {
			t.Errorf("lines 1,2 produced a doubled-line candidate: %+v", p)
		}
	}
	found := false
	for _, p := range pairs {
		if p.Kind == KindAlignment {
			found = true
		}
	}
	if !found {
		t.Error("alignment candidate missing")
	}
}

func TestFindPairsRequiresDifferentThreads(t *testing.T) {
	cur := mkTrack(0, [4]int{1, 7, 100, 0})
	adj := mkTrack(1, [4]int{1, 0, 100, 0}) // same thread
	if pairs := FindPairs(cur, adj, geom); len(pairs) != 0 {
		t.Errorf("same-thread pair predicted: %+v", pairs)
	}
}

func TestFindPairsRequiresAWrite(t *testing.T) {
	cur := mkTrack(0, [4]int{1, 7, 0, 100}) // reads only
	adj := mkTrack(1, [4]int{2, 0, 0, 100}) // reads only
	if pairs := FindPairs(cur, adj, geom); len(pairs) != 0 {
		t.Errorf("read-read pair predicted: %+v", pairs)
	}
}

func TestFindPairsIgnoresSharedWords(t *testing.T) {
	// The hot word in line 1 is accessed by two threads -> true sharing,
	// never a prediction candidate.
	cur := mkTrack(0, [4]int{1, 7, 100, 0})
	adj := mkTrack(1, [4]int{2, 0, 50, 0}, [4]int{3, 0, 50, 0})
	for _, p := range FindPairs(cur, adj, geom) {
		if p.Y.Addr == base+64 {
			t.Errorf("shared word paired: %+v", p)
		}
	}
}

func TestFindPairsColdWordsExcluded(t *testing.T) {
	// The line-1 word is cold relative to its line average (one access
	// among many elsewhere).
	cur := mkTrack(0, [4]int{1, 7, 100, 0})
	adj := mkTrack(1, [4]int{2, 0, 1, 0}, [4]int{2, 3, 100, 0}, [4]int{2, 4, 100, 0})
	for _, p := range FindPairs(cur, adj, geom) {
		if p.Y.Addr == base+64 {
			t.Errorf("cold word paired: %+v", p)
		}
	}
}

func TestFindPairsNonAdjacentRejected(t *testing.T) {
	cur := mkTrack(0, [4]int{1, 7, 100, 0})
	far := mkTrack(5, [4]int{2, 0, 100, 0})
	if pairs := FindPairs(cur, far, geom); pairs != nil {
		t.Errorf("non-adjacent lines paired: %+v", pairs)
	}
}

func TestFindPairsNilTracks(t *testing.T) {
	cur := mkTrack(0, [4]int{1, 7, 100, 0})
	if FindPairs(cur, nil, geom) != nil {
		t.Error("nil adjacent produced pairs")
	}
	if FindPairs(nil, cur, geom) != nil {
		t.Error("nil cur produced pairs")
	}
}

func TestFindPairsLowEstimateDropped(t *testing.T) {
	// Hot pair accesses are small while the line average is high, so the
	// estimate cannot exceed the threshold.
	cur := mkTrack(0,
		[4]int{1, 0, 1000, 0}, [4]int{1, 1, 1000, 0}, [4]int{1, 2, 1000, 0},
		[4]int{1, 3, 1000, 0}, [4]int{1, 4, 1000, 0}, [4]int{1, 5, 1000, 0},
		[4]int{1, 6, 1000, 0}, [4]int{1, 7, 1001, 0})
	adj := mkTrack(1, [4]int{2, 0, 10, 0})
	for _, p := range FindPairs(cur, adj, geom) {
		if p.Y.Accesses() == 10 {
			t.Errorf("low-estimate pair survived: %+v", p)
		}
	}
}

func TestVTrackVerification(t *testing.T) {
	r := NewRegistry(geom, detect.Sampler{})
	v := r.Add(HotPair{
		X:    HotWord{Addr: base + 56, Writes: 100, Thread: 1},
		Y:    HotWord{Addr: base + 64, Writes: 100, Thread: 2},
		Span: cacheline.NewVirtual(base+28, 64),
		Kind: KindAlignment,
	})
	// Interleaved writes inside the span invalidate.
	for i := 0; i < 10; i++ {
		r.Route(1, base+56, 8, true)
		r.Route(2, base+64, 8, true)
	}
	if v.Invalidations() != 19 {
		t.Errorf("invalidations = %d, want 19", v.Invalidations())
	}
	if v.Accesses() != 20 {
		t.Errorf("accesses = %d, want 20", v.Accesses())
	}
	// Accesses outside the span are ignored, also on a line the span
	// covers.
	before := v.Accesses()
	r.Route(3, base+500, 8, true)
	r.Route(3, base+16, 8, true)
	r.Route(3, base+92, 8, true)
	if v.Accesses() != before {
		t.Error("out-of-span access counted")
	}
}

func TestRegistryRouting(t *testing.T) {
	r := NewRegistry(geom, detect.Sampler{})
	pair := HotPair{
		X:    HotWord{Addr: base + 56, Writes: 10, Thread: 1},
		Y:    HotWord{Addr: base + 64, Writes: 10, Thread: 2},
		Span: cacheline.NewVirtual(base+28, 64), // spans lines 0 and 1
		Kind: KindAlignment,
	}
	v := r.Add(pair)
	if v == nil {
		t.Fatal("Add returned nil")
	}
	if r.Add(pair) != nil {
		t.Error("duplicate span re-registered")
	}
	r.Route(1, base+56, 8, true)
	r.Route(2, base+64, 8, true)
	r.Route(1, base+56, 8, true)
	if v.Invalidations() != 2 {
		t.Errorf("invalidations = %d, want 2", v.Invalidations())
	}
	// Route to an untracked line: no effect, no panic.
	r.Route(1, base+4096, 8, true)
	if len(r.Tracks()) != 1 {
		t.Errorf("Tracks() = %d, want 1", len(r.Tracks()))
	}
}

func TestRegistrySpanningAccessNotDoubleCounted(t *testing.T) {
	r := NewRegistry(geom, detect.Sampler{})
	pair := HotPair{
		X:    HotWord{Addr: base + 56, Writes: 10, Thread: 1},
		Y:    HotWord{Addr: base + 64, Writes: 10, Thread: 2},
		Span: cacheline.NewVirtual(base+28, 64),
	}
	v := r.Add(pair)
	// One access spanning the line 0/1 boundary hits both index buckets
	// but must be handled exactly once.
	r.Route(1, base+60, 8, true)
	if v.Accesses() != 1 {
		t.Errorf("accesses = %d, want 1 (double-handled)", v.Accesses())
	}
}

func TestKindString(t *testing.T) {
	if KindAlignment.String() == "" || KindDoubledLine.String() == "" || Kind(9).String() == "" {
		t.Error("Kind.String returned empty")
	}
}

// Property: every pair FindPairs returns satisfies the paper's conditions:
// same virtual line, >=1 write, different threads, estimate above average.
func TestPropPairsSatisfyPaperConditions(t *testing.T) {
	f := func(w1, w2 uint16, wordX, wordY uint8) bool {
		cur := mkTrack(0, [4]int{1, int(wordX % 8), int(w1%500) + 1, 0})
		adj := mkTrack(1, [4]int{2, int(wordY % 8), int(w2%500) + 1, 0})
		for _, p := range FindPairs(cur, adj, geom) {
			if !p.Span.Contains(p.X.Addr) || !p.Span.Contains(p.Y.Addr) {
				return false
			}
			if p.X.Writes == 0 && p.Y.Writes == 0 {
				return false
			}
			if p.X.Thread == p.Y.Thread {
				return false
			}
			if float64(p.Estimate) <= cur.AverageWordAccesses() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkRegistryRoute(b *testing.B) {
	r := NewRegistry(geom, detect.Sampler{})
	r.Add(HotPair{
		X:    HotWord{Addr: base + 56, Writes: 10, Thread: 1},
		Y:    HotWord{Addr: base + 64, Writes: 10, Thread: 2},
		Span: cacheline.NewVirtual(base+28, 64),
	})
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			r.Route(i&1, base+56, 8, true)
			i++
		}
	})
}

// Property: the invalidation estimate is monotone in both sides' traffic
// and zero iff neither side writes.
func TestPropEstimateMonotone(t *testing.T) {
	f := func(r1, w1, r2, w2, bump uint16) bool {
		x := HotWord{Reads: uint64(r1), Writes: uint64(w1), Thread: 1}
		y := HotWord{Reads: uint64(r2), Writes: uint64(w2), Thread: 2}
		base := EstimateInvalidations(x, y)
		if (x.Writes == 0 && y.Writes == 0) != (base == 0) {
			return false
		}
		xx := x
		xx.Reads += uint64(bump)
		yy := y
		yy.Writes += uint64(bump)
		return EstimateInvalidations(xx, y) >= base && EstimateInvalidations(x, yy) >= base
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: estimates are symmetric in their arguments.
func TestPropEstimateSymmetric(t *testing.T) {
	f := func(r1, w1, r2, w2 uint16) bool {
		x := HotWord{Reads: uint64(r1), Writes: uint64(w1), Thread: 1}
		y := HotWord{Reads: uint64(r2), Writes: uint64(w2), Thread: 2}
		return EstimateInvalidations(x, y) == EstimateInvalidations(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRegistryConcurrentRouting(t *testing.T) {
	r := NewRegistry(geom, detect.Sampler{})
	v := r.Add(HotPair{
		X:    HotWord{Addr: base + 56, Writes: 10, Thread: 1},
		Y:    HotWord{Addr: base + 64, Writes: 10, Thread: 2},
		Span: cacheline.NewVirtual(base+28, 64),
	})
	var wg sync.WaitGroup
	const workers, per = 4, 5000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Route(tid, base+56, 8, true)
			}
		}(w)
	}
	wg.Wait()
	if v.Accesses() != workers*per {
		t.Errorf("accesses = %d, want %d", v.Accesses(), workers*per)
	}
	if v.Invalidations() == 0 || v.Invalidations() > workers*per {
		t.Errorf("invalidations = %d out of range", v.Invalidations())
	}
}

// TestRegistryCopyOnWriteIndex runs Add against lock-free Route and
// SnapshotsOverlapping readers (run it under -race). An access spanning two
// physical lines into a virtual line registered under both is handled once
// per access however the index is republished meanwhile; a reader never
// sees a line twice or loses one it saw; and once the writers stop, a
// snapshot sees every registered line.
func TestRegistryCopyOnWriteIndex(t *testing.T) {
	r := NewRegistry(geom, detect.Sampler{})
	spanning := r.Add(HotPair{Span: cacheline.NewVirtual(base+28, 64)}) // lines 0 and 1
	const adds, routes = 200, 4000
	// Each added span covers two of lines 2..9, so index buckets are
	// appended to many times over.
	span := func(i int) cacheline.Virtual {
		return cacheline.NewVirtual(base+128+uint64(i%7)*64+uint64(i/7)*2+2, 64)
	}
	lo, hi := base, base+10*64

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < adds; i++ {
			if r.Add(HotPair{Span: span(i)}) == nil {
				t.Errorf("Add(%v) refused", span(i))
			}
		}
	}()
	for tid := 1; tid <= 2; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < routes; i++ {
				r.Route(tid, base+60, 8, true) // spans lines 0 and 1
				r.Route(tid, span(i%adds).Start, 8, i%2 == 0)
			}
		}(tid)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		prev := 0
		for i := 0; i < routes/10; i++ {
			snaps := r.SnapshotsOverlapping(lo, hi)
			seen := map[uint64]bool{}
			for _, s := range snaps {
				if seen[s.Start] {
					t.Errorf("snapshot lists %#x twice", s.Start)
				}
				seen[s.Start] = true
			}
			if len(snaps) < prev {
				t.Errorf("snapshot shrank from %d to %d lines", prev, len(snaps))
			}
			prev = len(snaps)
		}
	}()
	wg.Wait()

	if got := spanning.Accesses(); got != 2*routes {
		t.Errorf("spanning virtual line handled %d accesses, want %d", got, 2*routes)
	}
	snaps := r.SnapshotsOverlapping(lo, hi)
	if len(snaps) != adds+1 || len(r.Tracks()) != adds+1 {
		t.Errorf("snapshot sees %d lines, Tracks %d, want %d", len(snaps), len(r.Tracks()), adds+1)
	}
}
