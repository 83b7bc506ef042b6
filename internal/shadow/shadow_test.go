package shadow

import (
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"predator/internal/cacheline"
)

func testMapping(t testing.TB) Mapping {
	t.Helper()
	m, err := NewMapping(0x400000000, 1<<20, cacheline.MustGeometry(64))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewMappingValidation(t *testing.T) {
	g := cacheline.MustGeometry(64)
	if _, err := NewMapping(0x40000001, 1<<20, g); err == nil {
		t.Error("unaligned base accepted")
	}
	if _, err := NewMapping(0x40000000, 100, g); err == nil {
		t.Error("non-multiple size accepted")
	}
	if _, err := NewMapping(0x40000000, 0, g); err == nil {
		t.Error("zero size accepted")
	}
}

func TestMappingIndex(t *testing.T) {
	m := testMapping(t)
	if m.Lines() != (1<<20)/64 {
		t.Fatalf("Lines = %d", m.Lines())
	}
	cases := []struct {
		addr uint64
		idx  uint64
		ok   bool
	}{
		{0x400000000, 0, true},
		{0x40000003f, 0, true},
		{0x400000040, 1, true},
		{0x400000000 + 1<<20 - 1, (1<<20)/64 - 1, true},
		{0x400000000 + 1<<20, 0, false},
		{0x3ffffffff, 0, false},
	}
	for _, c := range cases {
		idx, ok := m.Index(c.addr)
		if ok != c.ok || (ok && idx != c.idx) {
			t.Errorf("Index(%#x) = (%d,%v), want (%d,%v)", c.addr, idx, ok, c.idx, c.ok)
		}
	}
}

func TestLineBaseRoundTrip(t *testing.T) {
	m := testMapping(t)
	for _, idx := range []uint64{0, 1, 17, m.Lines() - 1} {
		base := m.LineBase(idx)
		got, ok := m.Index(base)
		if !ok || got != idx {
			t.Errorf("Index(LineBase(%d)) = (%d,%v)", idx, got, ok)
		}
	}
}

type fakeTrack struct{ id int }

func TestWriteCounters(t *testing.T) {
	s := NewMemory[fakeTrack](testMapping(t))
	if s.Writes(5) != 0 {
		t.Fatal("fresh counter nonzero")
	}
	for i := 1; i <= 10; i++ {
		if got := s.IncWrites(5); got != uint64(i) {
			t.Fatalf("IncWrites -> %d, want %d", got, i)
		}
	}
	if s.Writes(4) != 0 || s.Writes(6) != 0 {
		t.Error("neighbouring counters disturbed")
	}
	s.ResetWrites(5)
	if s.Writes(5) != 0 {
		t.Error("ResetWrites did not zero")
	}
}

func TestInstallTrackFirstWins(t *testing.T) {
	s := NewMemory[fakeTrack](testMapping(t))
	a := &fakeTrack{id: 1}
	b := &fakeTrack{id: 2}
	if got := s.InstallTrack(3, a); got != a {
		t.Fatal("first install did not win")
	}
	if got := s.InstallTrack(3, b); got != a {
		t.Fatal("second install displaced the first")
	}
	if s.Track(3) != a {
		t.Fatal("Track returned wrong state")
	}
	if s.Track(2) != nil {
		t.Fatal("untracked line has state")
	}
}

func TestInstallTrackConcurrent(t *testing.T) {
	s := NewMemory[fakeTrack](testMapping(t))
	const workers = 16
	results := make([]*fakeTrack, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = s.InstallTrack(7, &fakeTrack{id: i})
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if results[i] != results[0] {
			t.Fatal("concurrent installs observed different winners")
		}
	}
}

func TestConcurrentIncWrites(t *testing.T) {
	s := NewMemory[fakeTrack](testMapping(t))
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				s.IncWrites(0)
			}
		}()
	}
	wg.Wait()
	if got := s.Writes(0); got != workers*per {
		t.Errorf("Writes = %d, want %d", got, workers*per)
	}
}

func TestForEachTrackedOrder(t *testing.T) {
	s := NewMemory[fakeTrack](testMapping(t))
	for _, line := range []uint64{9, 2, 5} {
		s.InstallTrack(line, &fakeTrack{id: int(line)})
	}
	var got []uint64
	s.ForEachTracked(func(line uint64, ft *fakeTrack) {
		if ft.id != int(line) {
			t.Errorf("line %d yielded track %d", line, ft.id)
		}
		got = append(got, line)
	})
	if want := []uint64{2, 5, 9}; !slices.Equal(got, want) {
		t.Fatalf("ForEachTracked lines = %v, want %v", got, want)
	}
}

// Property: Index is a bijection between in-range line-aligned addresses and
// [0, Lines): distinct lines map to distinct indices and round-trip.
func TestPropIndexBijection(t *testing.T) {
	m := testMapping(t)
	f := func(raw uint64) bool {
		idx := raw % m.Lines()
		base := m.LineBase(idx)
		got, ok := m.Index(base)
		if !ok || got != idx {
			return false
		}
		// All 64 addresses within the line map to the same index.
		gotLast, ok2 := m.Index(base + 63)
		return ok2 && gotLast == idx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkIncWrites(b *testing.B) {
	m, _ := NewMapping(0x400000000, 1<<24, cacheline.MustGeometry(64))
	s := NewMemory[fakeTrack](m)
	b.RunParallel(func(pb *testing.PB) {
		i := uint64(0)
		for pb.Next() {
			s.IncWrites(i % m.Lines())
			i += 64
		}
	})
}
