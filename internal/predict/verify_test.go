package predict_test

import (
	"math/rand"
	"testing"

	"predator/internal/cacheline"
	"predator/internal/detect"
	"predator/internal/histtable"
	"predator/internal/predict"
)

// TestVirtualLineMatchesReference drives a seeded random 3-thread stream
// through Registry.Route over a span that starts 4 bytes past a word
// boundary, with sampling on, and after every access compares the virtual
// line's counters with a reference built here from a bare history table
// and the §2.4.3 sampling rule (n-1) mod Window < Burst.
func TestVirtualLineMatchesReference(t *testing.T) {
	sampler := detect.Sampler{Window: 64, Burst: 16}
	r := predict.NewRegistry(cacheline.MustGeometry(64), sampler)
	span := cacheline.NewVirtual(0x400000024, 64) // crosses lines 0 and 1
	v := r.Add(predict.HotPair{Span: span, Kind: predict.KindAlignment})
	var (
		hist                              histtable.Table
		accesses, recorded, invalidations uint64
	)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		tid := rng.Intn(3)
		addr := 0x400000000 + uint64(rng.Intn(160))
		size := uint64(1 + rng.Intn(16))
		isWrite := rng.Intn(3) == 0
		r.Route(tid, addr, size, isWrite)
		if span.Overlaps(addr, size) {
			accesses++
			if (accesses-1)%sampler.Window < sampler.Burst {
				recorded++
				if hist.Access(tid, isWrite) {
					invalidations++
				}
			}
		}
		if v.Accesses() != accesses || v.Recorded() != recorded || v.Invalidations() != invalidations {
			t.Fatalf("access %d (tid %d addr %#x size %d write %v): accesses/recorded/invalidations = %d/%d/%d, want %d/%d/%d",
				i, tid, addr, size, isWrite, v.Accesses(), v.Recorded(), v.Invalidations(),
				accesses, recorded, invalidations)
		}
	}
	if invalidations == 0 || recorded == accesses {
		t.Fatalf("stream too tame: %d invalidations, %d of %d recorded", invalidations, recorded, accesses)
	}
}
