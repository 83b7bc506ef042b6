package phoenix

import (
	"predator/internal/harness"
	"predator/internal/instr"
	"predator/internal/workloads/wlutil"
)

// kmeans reimplements the Phoenix kmeans kernel: one iteration of Lloyd's
// algorithm over 2-D points with per-thread partial sums. The paper's
// Table 1 lists no false sharing for kmeans, but Figure 7 shows it among
// the highest-overhead benchmarks — its per-thread partials are written on
// every point, generating enormous tracked write traffic. The partial
// blocks are padded in both variants (there is no bug to toggle), so the
// workload is "clean but expensive", matching the paper.
type kmeans struct{}

func init() { harness.Register(kmeans{}) }

func (kmeans) Name() string  { return "kmeans" }
func (kmeans) Suite() string { return "phoenix" }
func (kmeans) Description() string {
	return "one Lloyd iteration over 2-D points; clean (no Table 1 entry) but write-heavy, hence high tracking overhead"
}
func (kmeans) HasFalseSharing() bool { return false }

const kmK = 4 // clusters

func (kmeans) Run(c *harness.Ctx) (uint64, error) {
	main := c.NewThread("main")
	pointsPerThread := 4000 * c.Scale
	n := pointsPerThread * c.Threads

	points, err := main.Alloc(uint64(n) * 16) // (x, y) int64 pairs
	if err != nil {
		return 0, err
	}
	rng := c.Rand()
	for i := 0; i < n; i++ {
		main.StoreInt64(points+uint64(i)*16, int64(rng.Intn(4096)))
		main.StoreInt64(points+uint64(i)*16+8, int64(rng.Intn(4096)))
	}

	// Cluster centers: read-shared global.
	centers, err := c.Heap.DefineGlobal("kmeans_centers", kmK*16)
	if err != nil {
		return 0, err
	}
	for k := 0; k < kmK; k++ {
		main.StoreInt64(centers+uint64(k)*16, int64(k*1024))
		main.StoreInt64(centers+uint64(k)*16+8, int64(k*1024))
	}

	// Per-thread partials: kmK * (sumX, sumY, count) = kmK*24 bytes,
	// always padded a line apart (no false sharing bug here).
	const slot = kmK * 24
	partials := make([]uint64, c.Threads)
	for id := range partials {
		addr, err := main.Alloc(wlutil.CleanStride(slot))
		if err != nil {
			return 0, err
		}
		partials[id] = addr
	}

	c.Parallel(c.Threads, "kmeans", func(t *instr.Thread, id int) {
		base := partials[id]
		lo, hi := wlutil.Partition(n, c.Threads, id)
		for i := lo; i < hi; i++ {
			x := t.LoadInt64(points + uint64(i)*16)
			y := t.LoadInt64(points + uint64(i)*16 + 8)
			best, bestDist := 0, int64(1)<<62
			for k := 0; k < kmK; k++ {
				cx := t.LoadInt64(centers + uint64(k)*16)
				cy := t.LoadInt64(centers + uint64(k)*16 + 8)
				d := (x-cx)*(x-cx) + (y-cy)*(y-cy)
				if d < bestDist {
					best, bestDist = k, d
				}
			}
			off := uint64(best) * 24
			t.AddInt64(base+off, x)
			t.AddInt64(base+off+8, y)
			t.AddInt64(base+off+16, 1)
			c.MaybeYield(i)
		}
	})

	var sum uint64
	for id := 0; id < c.Threads; id++ {
		for k := 0; k < kmK; k++ {
			off := uint64(k) * 24
			sum = wlutil.Mix64(sum, uint64(main.LoadInt64(partials[id]+off)))
			sum = wlutil.Mix64(sum, uint64(main.LoadInt64(partials[id]+off+16)))
		}
	}
	return sum, nil
}
