package core

import (
	"math"
	"sync"
	"testing"

	"predator/internal/obs"
)

// TestPerThreadCountersExact is the counter contract: accesses and writes
// counted in per-thread blocks add up exactly once the workers stop, for
// tids that wrap the block count, a negative tid and the largest tid; the
// registry agrees with Stats; and the self-profiler's per-thread sample
// still fires.
func TestPerThreadCountersExact(t *testing.T) {
	o := obs.New(obs.NewRegistry(), nil)
	o.EnableSelfProfile()
	cfg := testConfig()
	cfg.Observer = o
	rt, h := newRuntime(t, cfg)
	// One shared line of packed per-thread words (false sharing, so lines
	// are tracked and invalidations counted) and a read-only region.
	hot, err := h.AllocWithOffset(0, 64, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := h.Alloc(0, 4096, 0)
	if err != nil {
		t.Fatal(err)
	}

	tids := []int{-1, math.MaxInt}
	for tid := 0; tid < 2*counterShards; tid++ {
		tids = append(tids, tid)
	}
	const per = 2*obs.SyncBatch + 7 // every block crosses the batch trigger
	var wg sync.WaitGroup
	for _, tid := range tids {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			word := hot + uint64(tid&7)*8
			for i := 0; i < per; i++ {
				if i%3 == 0 {
					rt.HandleAccess(tid, word, 8, true)
				} else {
					rt.HandleAccess(tid, cold+uint64(i%512)*8, 8, false)
				}
			}
		}(tid)
	}
	wg.Wait()

	writesPer := uint64((per + 2) / 3)
	s := rt.Stats()
	if want := uint64(len(tids) * per); s.Accesses != want {
		t.Errorf("Stats().Accesses = %d, want %d", s.Accesses, want)
	}
	if want := uint64(len(tids)) * writesPer; s.Writes != want {
		t.Errorf("Stats().Writes = %d, want %d", s.Writes, want)
	}
	if s.Invalidations == 0 {
		t.Error("no invalidations on the shared line")
	}

	snap := o.Metrics().Snapshot()
	acc := snap["predator_accesses_total"]
	if acc != float64(s.Accesses) || snap["predator_events_delivered_total"] != acc {
		t.Errorf("accesses: registry %v, delivered %v, Stats %d",
			acc, snap["predator_events_delivered_total"], s.Accesses)
	}
	if got := snap["predator_writes_total"]; got != float64(s.Writes) {
		t.Errorf("predator_writes_total = %v, Stats().Writes = %d", got, s.Writes)
	}
	if got := snap["predator_invalidations_total"]; got != float64(s.Invalidations) {
		t.Errorf("predator_invalidations_total = %v, Stats().Invalidations = %d", got, s.Invalidations)
	}
	if snap["predator_self_track_seconds_count"] == 0 {
		t.Error("self-profiler timed no access")
	}
}
