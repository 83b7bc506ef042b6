// Package shadow implements PREDATOR's shadow memory (paper §2.3.2 and
// §2.4.1): because the simulated heap has a predefined base and fixed size,
// per-cache-line metadata lives in dense arrays indexed by pure address
// arithmetic. Two structures are maintained:
//
//   - CacheWrites: an atomic write counter per line, incremented until the
//     TrackingThreshold is crossed (the cheap pre-tracking phase);
//   - CacheTracking: an atomic pointer per line to detailed tracking state,
//     CAS-installed exactly once when the threshold is crossed.
//
// A line's tracking state is never removed or replaced once installed (a
// freed line's state is reset in place), so per-line facts that must
// outlive recycling — such as whether the line's hot-pair search ran — can
// live on the tracking state itself.
//
// The element type of CacheTracking is a type parameter so the detect
// package can store its own Track structure without an import cycle.
package shadow

import (
	"fmt"
	"sync/atomic"

	"predator/internal/cacheline"
)

// Mapping translates heap addresses to dense line indices.
type Mapping struct {
	base  uint64
	size  uint64
	geom  cacheline.Geometry
	lines uint64
}

// NewMapping builds the address mapping for a heap [base, base+size) under
// the given line geometry. base must be line-aligned.
func NewMapping(base, size uint64, geom cacheline.Geometry) (Mapping, error) {
	if base%geom.Size() != 0 {
		return Mapping{}, fmt.Errorf("shadow: base %#x not aligned to line size %d", base, geom.Size())
	}
	if size == 0 || size%geom.Size() != 0 {
		return Mapping{}, fmt.Errorf("shadow: size %d not a positive multiple of line size %d", size, geom.Size())
	}
	return Mapping{base: base, size: size, geom: geom, lines: size / geom.Size()}, nil
}

// Lines returns the number of cache lines covered.
func (m Mapping) Lines() uint64 { return m.lines }

// Geometry returns the line geometry.
func (m Mapping) Geometry() cacheline.Geometry { return m.geom }

// Base returns the covered range's starting address.
func (m Mapping) Base() uint64 { return m.base }

// Index maps an address to its dense line index. The second result is false
// when the address is outside the mapped range.
func (m Mapping) Index(addr uint64) (uint64, bool) {
	if addr < m.base || addr >= m.base+m.size {
		return 0, false
	}
	return (addr - m.base) >> m.geom.Shift(), true
}

// LineBase returns the first address of the line with the given dense index.
func (m Mapping) LineBase(index uint64) uint64 {
	return m.base + (index << m.geom.Shift())
}

// Contains reports whether addr is in the mapped range.
func (m Mapping) Contains(addr uint64) bool {
	return addr >= m.base && addr < m.base+m.size
}

// Memory holds the two shadow arrays. T is the detailed per-line tracking
// state owned by the detection layer.
type Memory[T any] struct {
	mapping Mapping
	writes  []atomic.Uint64
	tracks  []atomic.Pointer[T]
}

// NewMemory allocates shadow arrays for the mapping. For a 256 MiB heap
// with 64-byte lines this is 4M counters (32 MiB) and 4M pointers (32 MiB),
// mirroring the paper's ~2x memory overhead envelope.
func NewMemory[T any](mapping Mapping) *Memory[T] {
	return &Memory[T]{
		mapping: mapping,
		writes:  make([]atomic.Uint64, mapping.Lines()),
		tracks:  make([]atomic.Pointer[T], mapping.Lines()),
	}
}

// Mapping returns the address mapping.
func (s *Memory[T]) Mapping() Mapping { return s.mapping }

// Writes returns the current write count of a line.
func (s *Memory[T]) Writes(line uint64) uint64 { return s.writes[line].Load() }

// IncWrites atomically increments a line's write counter and returns the new
// value. This is the fast-path operation of HandleAccess (paper Figure 1,
// ATOMIC_INCR).
func (s *Memory[T]) IncWrites(line uint64) uint64 { return s.writes[line].Add(1) }

// ResetWrites zeroes a line's write counter (used when an unflagged object
// is freed and its metadata must not leak to the next occupant).
func (s *Memory[T]) ResetWrites(line uint64) { s.writes[line].Store(0) }

// Track returns the detailed tracking state of a line, or nil if the line
// has not crossed the tracking threshold.
func (s *Memory[T]) Track(line uint64) *T { return s.tracks[line].Load() }

// InstallTrack CAS-installs detailed tracking state for a line (paper
// Figure 1, ATOMIC_CAS). It returns the state that is current after the
// call: the given one if the CAS won, or the previously installed one.
func (s *Memory[T]) InstallTrack(line uint64, t *T) *T {
	if s.tracks[line].CompareAndSwap(nil, t) {
		return t
	}
	return s.tracks[line].Load()
}

// ForEachTracked calls fn for every line with installed tracking state.
// Iteration order is ascending line index.
func (s *Memory[T]) ForEachTracked(fn func(line uint64, t *T)) {
	for i := range s.tracks {
		if t := s.tracks[i].Load(); t != nil {
			fn(uint64(i), t)
		}
	}
}
