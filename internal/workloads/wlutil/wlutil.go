// Package wlutil holds helpers shared by the workload reimplementations:
// range partitioning, checksum mixing, and per-thread state blocks whose
// stride is the knob every buggy/fixed workload pair turns. Packed stats
// blocks share cache lines — the paper's recurring bug. A clean stride
// (CleanStride) leaves at least one line of slack after every slot;
// without it neighbouring slots abut, and a block that lands off a line
// boundary puts two threads' words on one line (paper §3.1).
package wlutil

import (
	"predator/internal/cacheline"
	"predator/internal/harness"
	"predator/internal/instr"
)

// PaddedStride is the unit clean strides are rounded to: a multiple of
// both physical 64-byte lines and PREDATOR's doubled-line (128-byte)
// prediction.
const PaddedStride = 128

// CleanStride returns the smallest multiple of PaddedStride that leaves at
// least one cache line of slack after a slot-byte slot (stride − slot ≥ line
// size). A stride that only covers the slot lets neighbouring slots abut,
// so wherever the block starts off a line boundary the last words of one
// slot and the first of the next share a line.
func CleanStride(slot uint64) uint64 {
	stride := uint64(PaddedStride)
	for stride < slot+cacheline.DefaultSize {
		stride += PaddedStride
	}
	return stride
}

// Partition splits n items over workers; it returns worker id's [lo, hi).
// The first n%workers workers get one extra item.
func Partition(n, workers, id int) (lo, hi int) {
	base := n / workers
	extra := n % workers
	lo = id*base + min(id, extra)
	hi = lo + base
	if id < extra {
		hi++
	}
	return lo, hi
}

// Mix64 folds a value into a checksum with strong bit diffusion
// (splitmix64 finalizer), so tests comparing buggy/fixed variants detect
// any divergence in computed results.
func Mix64(h, v uint64) uint64 {
	h += v + 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// StatsBlock is a contiguous array of per-thread state slots inside the
// simulated heap. Buggy variants use the natural (packed) slot size so
// neighbouring threads share cache lines; fixed variants use CleanStride.
type StatsBlock struct {
	Base   uint64
	Stride uint64
	Slot   uint64 // payload bytes per thread (<= Stride)
}

// NewStatsBlock allocates per-thread slots for the context's thread count.
// slot is the payload size; when buggy the stride equals the packed slot
// size, otherwise CleanStride(slot).
func NewStatsBlock(c *harness.Ctx, t *instr.Thread, slot uint64) (StatsBlock, error) {
	stride := CleanStride(slot)
	if c.Buggy {
		stride = slot
	}
	total := stride * uint64(c.Threads)
	var base uint64
	var err error
	if c.Offset != harness.UseDefaultOffset {
		base, err = t.AllocWithOffset(total, c.Offset)
	} else {
		base, err = t.Alloc(total)
	}
	if err != nil {
		return StatsBlock{}, err
	}
	return StatsBlock{Base: base, Stride: stride, Slot: slot}, nil
}

// Addr returns the address of byte `off` inside thread id's slot.
func (b StatsBlock) Addr(id int, off uint64) uint64 {
	return b.Base + uint64(id)*b.Stride + off
}
