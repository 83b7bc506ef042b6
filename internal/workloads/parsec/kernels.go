package parsec

import (
	"predator/internal/harness"
	"predator/internal/instr"
	"predator/internal/workloads/wlutil"
)

// The clean PARSEC kernels. None has a Table 1 entry; what the paper's
// Figure 7 distinguishes is their *overhead profile* — bodytrack, ferret and
// swaptions write enough distinct hot lines to push PREDATOR's tracking
// hard, while blackscholes and x264 are read-dominated and stay cheap.

// fixedQ16 is 16.16 fixed-point arithmetic used instead of floats where the
// original kernels use doubles; it keeps checksums exact across variants.
const fixedQ16 = 1 << 16

// clean is shared scaffolding for kernels without a buggy variant.
type clean struct {
	name, desc string
	run        func(c *harness.Ctx) (uint64, error)
}

func (k clean) Name() string                       { return k.name }
func (clean) Suite() string                        { return "parsec" }
func (k clean) Description() string                { return k.desc }
func (clean) HasFalseSharing() bool                { return false }
func (k clean) Run(c *harness.Ctx) (uint64, error) { return k.run(c) }

func init() {
	harness.Register(clean{name: "blackscholes", desc: "option pricing sweep; read-dominated, clean, low overhead", run: runBlackscholes})
	harness.Register(clean{name: "bodytrack", desc: "particle filter weight update; write-heavy private buffers, clean but high overhead", run: runBodytrack})
	harness.Register(clean{name: "dedup", desc: "content-chunking + rolling hash; clean", run: runDedup})
	harness.Register(clean{name: "ferret", desc: "feature-vector similarity ranking; write-heavy, clean but high overhead", run: runFerret})
	harness.Register(clean{name: "fluidanimate", desc: "grid-partitioned density relaxation; clean", run: runFluidanimate})
	harness.Register(clean{name: "swaptions", desc: "Monte-Carlo payoff simulation; tiny footprint, write-heavy, clean", run: runSwaptions})
	harness.Register(clean{name: "x264", desc: "block SAD motion search; read-dominated, clean, low overhead", run: runX264})
}

// runBlackscholes prices options with a fixed-point rational approximation;
// each thread writes one output word per option into its disjoint region.
func runBlackscholes(c *harness.Ctx) (uint64, error) {
	main := c.NewThread("main")
	optsPerThread := 8000 * c.Scale
	n := optsPerThread * c.Threads
	in, err := main.Alloc(uint64(n) * 16) // (spot, strike) Q16 pairs
	if err != nil {
		return 0, err
	}
	out, err := main.AllocWithOffset(uint64(n)*8, 0)
	if err != nil {
		return 0, err
	}
	rng := c.Rand()
	for i := 0; i < n; i++ {
		main.StoreInt64(in+uint64(i)*16, int64((50+rng.Intn(100))*fixedQ16))
		main.StoreInt64(in+uint64(i)*16+8, int64((50+rng.Intn(100))*fixedQ16))
	}
	c.Parallel(c.Threads, "bs", func(t *instr.Thread, id int) {
		lo, hi := wlutil.Partition(n, c.Threads, id)
		for i := lo; i < hi; i++ {
			spot := t.LoadInt64(in + uint64(i)*16)
			strike := t.LoadInt64(in + uint64(i)*16 + 8)
			// Rational payoff approximation in Q16.
			m := (spot * fixedQ16) / strike
			price := (m*m)/fixedQ16 + m/2
			t.StoreInt64(out+uint64(i)*8, price)
			c.MaybeYield(i)
		}
	})
	var sum uint64
	for i := 0; i < n; i += 97 {
		sum = wlutil.Mix64(sum, uint64(main.LoadInt64(out+uint64(i)*8)))
	}
	return sum, nil
}

// runBodytrack updates particle weights in place every generation: heavy
// repeated writes to per-thread particle blocks (padded apart).
func runBodytrack(c *harness.Ctx) (uint64, error) {
	main := c.NewThread("main")
	particles := 512 * c.Scale
	gens := 40
	stride := wlutil.CleanStride(uint64(particles * 8))
	block, err := main.AllocWithOffset(stride*uint64(c.Threads), 0)
	if err != nil {
		return 0, err
	}
	rng := c.Rand()
	for id := 0; id < c.Threads; id++ {
		for p := 0; p < particles; p++ {
			main.StoreInt64(block+uint64(id)*stride+uint64(p)*8, int64(rng.Intn(1000)+1))
		}
	}
	c.Parallel(c.Threads, "bt", func(t *instr.Thread, id int) {
		base := block + uint64(id)*stride
		for g := 0; g < gens; g++ {
			for p := 0; p < particles; p++ {
				w := t.LoadInt64(base + uint64(p)*8)
				w = (w*1103515245 + 12345) % 1000003
				if w < 0 {
					w = -w
				}
				t.StoreInt64(base+uint64(p)*8, w)
				c.MaybeYield(g*particles + p)
			}
		}
	})
	var sum uint64
	for id := 0; id < c.Threads; id++ {
		sum = wlutil.Mix64(sum, uint64(main.LoadInt64(block+uint64(id)*stride)))
	}
	return sum, nil
}

// runDedup chunks a buffer with a rolling hash and counts duplicate chunk
// signatures per thread.
func runDedup(c *harness.Ctx) (uint64, error) {
	main := c.NewThread("main")
	bytesPerThread := 32000 * c.Scale
	total := bytesPerThread * c.Threads
	data, err := main.Alloc(uint64(total))
	if err != nil {
		return 0, err
	}
	buf := make([]byte, total)
	rng := c.Rand()
	for i := range buf {
		buf[i] = byte(rng.Intn(16)) // low entropy: duplicates exist
	}
	main.WriteBytes(data, buf)
	stride := uint64(wlutil.PaddedStride)
	sigs, err := main.AllocWithOffset(stride*uint64(c.Threads), 0)
	if err != nil {
		return 0, err
	}
	c.Parallel(c.Threads, "dedup", func(t *instr.Thread, id int) {
		lo, hi := wlutil.Partition(total, c.Threads, id)
		var h, chunks, dups uint64
		var prev uint64
		for i := lo; i < hi; i++ {
			h = h*31 + uint64(t.Load8(data+uint64(i)))
			if h%512 == 0 { // chunk boundary
				chunks++
				if h == prev {
					dups++
				}
				prev = h
				h = 0
			}
			c.MaybeYield(i)
		}
		t.Store64(sigs+uint64(id)*stride, chunks)
		t.Store64(sigs+uint64(id)*stride+8, dups)
	})
	var sum uint64
	for id := 0; id < c.Threads; id++ {
		sum = wlutil.Mix64(sum, main.Load64(sigs+uint64(id)*stride))
		sum = wlutil.Mix64(sum, main.Load64(sigs+uint64(id)*stride+8))
	}
	return sum, nil
}

// runFerret ranks database vectors by L1 distance to per-thread queries,
// maintaining a small top-list per thread (hot rewrites).
func runFerret(c *harness.Ctx) (uint64, error) {
	main := c.NewThread("main")
	const dim = 8
	dbPerThread := 1500 * c.Scale
	db := dbPerThread * c.Threads
	vecs, err := main.Alloc(uint64(db*dim) * 8)
	if err != nil {
		return 0, err
	}
	rng := c.Rand()
	for i := 0; i < db*dim; i++ {
		main.StoreInt64(vecs+uint64(i)*8, int64(rng.Intn(256)))
	}
	const topK = 4
	stride := uint64(wlutil.PaddedStride)
	tops, err := main.AllocWithOffset(stride*uint64(c.Threads), 0)
	if err != nil {
		return 0, err
	}
	c.Parallel(c.Threads, "ferret", func(t *instr.Thread, id int) {
		base := tops + uint64(id)*stride
		for k := 0; k < topK; k++ {
			t.StoreInt64(base+uint64(k)*8, int64(1)<<40)
		}
		query := [dim]int64{}
		for d := 0; d < dim; d++ {
			query[d] = int64((id*37 + d*11) % 256)
		}
		lo, hi := wlutil.Partition(db, c.Threads, id)
		for i := lo; i < hi; i++ {
			var dist int64
			for d := 0; d < dim; d++ {
				v := t.LoadInt64(vecs + uint64(i*dim+d)*8)
				if v > query[d] {
					dist += v - query[d]
				} else {
					dist += query[d] - v
				}
			}
			// Bubble into the top list: repeated hot writes.
			for k := 0; k < topK; k++ {
				cur := t.LoadInt64(base + uint64(k)*8)
				if dist < cur {
					t.StoreInt64(base+uint64(k)*8, dist)
					dist = cur
				}
			}
			c.MaybeYield(i)
		}
	})
	var sum uint64
	for id := 0; id < c.Threads; id++ {
		for k := 0; k < topK; k++ {
			sum = wlutil.Mix64(sum, uint64(main.LoadInt64(tops+uint64(id)*stride+uint64(k)*8)))
		}
	}
	return sum, nil
}

// runFluidanimate relaxes densities over a 1-D cell grid, threads owning
// disjoint line-aligned cell blocks and reading neighbour cells from the
// previous pass (double-buffered).
func runFluidanimate(c *harness.Ctx) (uint64, error) {
	main := c.NewThread("main")
	cellsPerThread := 1024 * c.Scale // 8 KiB per thread: line-aligned blocks
	n := cellsPerThread * c.Threads
	cur, err := main.AllocWithOffset(uint64(n)*8, 0)
	if err != nil {
		return 0, err
	}
	next, err := main.AllocWithOffset(uint64(n)*8, 0)
	if err != nil {
		return 0, err
	}
	rng := c.Rand()
	for i := 0; i < n; i++ {
		main.StoreInt64(cur+uint64(i)*8, int64(rng.Intn(1000)))
	}
	passes := 6
	for p := 0; p < passes; p++ {
		src, dst := cur, next
		if p%2 == 1 {
			src, dst = next, cur
		}
		c.Parallel(c.Threads, "fluid", func(t *instr.Thread, id int) {
			lo, hi := wlutil.Partition(n, c.Threads, id)
			for i := lo; i < hi; i++ {
				left := i - 1
				if left < 0 {
					left = n - 1
				}
				right := (i + 1) % n
				v := (t.LoadInt64(src+uint64(left)*8) +
					2*t.LoadInt64(src+uint64(i)*8) +
					t.LoadInt64(src+uint64(right)*8)) / 4
				t.StoreInt64(dst+uint64(i)*8, v)
				c.MaybeYield(i)
			}
		})
	}
	var sum uint64
	final := cur
	if passes%2 == 1 {
		final = next
	}
	for i := 0; i < n; i += 61 {
		sum = wlutil.Mix64(sum, uint64(main.LoadInt64(final+uint64(i)*8)))
	}
	return sum, nil
}

// runSwaptions runs per-thread Monte-Carlo payoff paths over a tiny state
// block — the paper notes swaptions' footprint is sub-megabyte, which is
// why its relative memory overhead looked huge (Figure 9).
func runSwaptions(c *harness.Ctx) (uint64, error) {
	main := c.NewThread("main")
	paths := 20000 * c.Scale
	stride := uint64(wlutil.PaddedStride)
	state, err := main.AllocWithOffset(stride*uint64(c.Threads), 0)
	if err != nil {
		return 0, err
	}
	c.Parallel(c.Threads, "swap", func(t *instr.Thread, id int) {
		base := state + uint64(id)*stride
		t.StoreInt64(base, int64(id+1)*2654435761)
		for p := 0; p < paths; p++ {
			s := t.LoadInt64(base)
			s = s*6364136223846793005 + 1442695040888963407 // LCG step
			t.StoreInt64(base, s)
			payoff := (s >> 33) % 1000
			if payoff > 0 {
				t.AddInt64(base+8, payoff)
			}
			c.MaybeYield(p)
		}
	})
	var sum uint64
	for id := 0; id < c.Threads; id++ {
		sum = wlutil.Mix64(sum, uint64(main.LoadInt64(state+uint64(id)*stride+8)))
	}
	return sum, nil
}

// runX264 performs SAD block matching of a frame against a reference:
// almost pure reads with one output word per block.
func runX264(c *harness.Ctx) (uint64, error) {
	main := c.NewThread("main")
	const blockSize = 16
	blocksPerThread := 300 * c.Scale
	blocks := blocksPerThread * c.Threads
	frame, err := main.Alloc(uint64(blocks * blockSize))
	if err != nil {
		return 0, err
	}
	ref, err := main.Alloc(uint64(blocks * blockSize))
	if err != nil {
		return 0, err
	}
	rng := c.Rand()
	fb := make([]byte, blocks*blockSize)
	rb := make([]byte, blocks*blockSize)
	rng.Read(fb)
	rng.Read(rb)
	main.WriteBytes(frame, fb)
	main.WriteBytes(ref, rb)
	out, err := main.AllocWithOffset(uint64(blocks)*8, 0)
	if err != nil {
		return 0, err
	}
	c.Parallel(c.Threads, "x264", func(t *instr.Thread, id int) {
		lo, hi := wlutil.Partition(blocks, c.Threads, id)
		for b := lo; b < hi; b++ {
			bestSAD := int64(1) << 40
			// Search 4 candidate offsets.
			for cand := 0; cand < 4; cand++ {
				rbase := (b + cand) % blocks
				var sad int64
				for j := 0; j < blockSize; j++ {
					f := int64(t.Load8(frame + uint64(b*blockSize+j)))
					r := int64(t.Load8(ref + uint64(rbase*blockSize+j)))
					if f > r {
						sad += f - r
					} else {
						sad += r - f
					}
				}
				if sad < bestSAD {
					bestSAD = sad
				}
			}
			t.StoreInt64(out+uint64(b)*8, bestSAD)
			c.MaybeYield(b)
		}
	})
	var sum uint64
	for b := 0; b < blocks; b += 7 {
		sum = wlutil.Mix64(sum, uint64(main.LoadInt64(out+uint64(b)*8)))
	}
	return sum, nil
}
