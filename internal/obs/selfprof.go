package obs

import (
	"runtime"
	"sync"
	"time"
)

// SelfProfiler is the detector's self-accounting layer: it measures what the
// detector itself costs, per mechanism, while it runs. Three instruments:
//
//   - predator_self_track_seconds: a latency histogram over sampled
//     track-path invocations (the core runtime times one full HandleAccess
//     in every SyncBatch accesses of each thread's, so the histogram mean
//     approximates the per-access instrumented cost without perturbing the
//     other 255).
//   - An overhead meter: predator_self_raw_ns_per_access is a raw
//     (uninstrumented) store loop calibrated at attach time;
//     predator_self_instrumented_ns_per_access is the sampled track-path
//     mean; predator_self_overhead_ratio is their quotient — the live
//     analogue of the paper's Figure 7 overhead multiple.
//   - Go runtime health gauges (goroutines, heap bytes, GC cycles and pause
//     totals) folded into the same registry, so one scrape shows both what
//     the detector sees and what it costs the process.
//
// All methods are nil-safe, matching the rest of the package: a runtime
// whose observer has no self-profiler pays one nil check on the sampled
// branch and nothing anywhere else.
type SelfProfiler struct {
	trackH *Histogram
	rawNs  float64
}

// selfProfBounds bucket the sampled track-path latency from 10ns to 100µs.
var selfProfBounds = []float64{1e-8, 1e-7, 1e-6, 1e-5, 1e-4}

// NewSelfProfiler calibrates the raw-access baseline, registers the
// self-profiling instruments on reg, and returns the profiler. A nil
// registry yields a nil profiler.
func NewSelfProfiler(reg *Registry) *SelfProfiler {
	if reg == nil {
		return nil
	}
	sp := &SelfProfiler{rawNs: calibrateRawAccess()}
	sp.trackH = reg.Histogram("predator_self_track_seconds",
		"Sampled latency of one instrumented access through the track hot path.",
		selfProfBounds)
	reg.GaugeFunc("predator_self_raw_ns_per_access",
		"Calibrated cost of one raw (uninstrumented) memory access, in nanoseconds.",
		func() float64 { return sp.rawNs })
	reg.GaugeFunc("predator_self_instrumented_ns_per_access",
		"Mean sampled cost of one instrumented access, in nanoseconds.",
		sp.instrumentedNs)
	reg.GaugeFunc("predator_self_overhead_ratio",
		"Instrumented / raw per-access cost: the detector's live overhead multiple.",
		func() float64 {
			if sp.rawNs <= 0 {
				return 0
			}
			return sp.instrumentedNs() / sp.rawNs
		})
	RegisterGoRuntimeStats(reg)
	return sp
}

// ObserveTrack records one sampled track-path latency. Nil-safe.
func (sp *SelfProfiler) ObserveTrack(d time.Duration) {
	if sp != nil {
		sp.trackH.Observe(d.Seconds())
	}
}

// instrumentedNs returns the histogram's mean in nanoseconds (0 before any
// sample lands).
func (sp *SelfProfiler) instrumentedNs() float64 {
	n := sp.trackH.Count()
	if n == 0 {
		return 0
	}
	return sp.trackH.Sum() * 1e9 / float64(n)
}

// calibrateRawAccess times a tight uninstrumented store loop (best of three
// trials) — the "Original" side of the overhead meter. The buffer matches
// the hot-loop footprint the overhead tests use so both sides stay in cache.
func calibrateRawAccess() float64 {
	buf := make([]uint64, 8192)
	const n = 1 << 16
	best := 0.0
	for trial := 0; trial < 3; trial++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			buf[i&8191] = uint64(i)
		}
		ns := float64(time.Since(start).Nanoseconds()) / n
		if best == 0 || ns < best {
			best = ns
		}
	}
	runtime.KeepAlive(buf)
	return best
}

// goStatsMinInterval bounds how often the runtime-stats gauges re-read
// runtime.MemStats: ReadMemStats stops the world briefly, and one scrape
// evaluates several gauges, so reads within this interval share a snapshot.
const goStatsMinInterval = 250 * time.Millisecond

// RegisterGoRuntimeStats folds Go runtime health into the registry as gauge
// funcs evaluated at snapshot/scrape time: goroutine count, heap bytes, and
// GC activity (cycle count, cumulative pause seconds). Consecutive gauges
// within goStatsMinInterval share one MemStats read. Safe on a nil registry.
func RegisterGoRuntimeStats(reg *Registry) {
	if reg == nil {
		return
	}
	var mu sync.Mutex
	var last time.Time
	var ms runtime.MemStats
	read := func(f func(*runtime.MemStats) float64) func() float64 {
		return func() float64 {
			mu.Lock()
			defer mu.Unlock()
			if time.Since(last) > goStatsMinInterval {
				runtime.ReadMemStats(&ms)
				last = time.Now()
			}
			return f(&ms)
		}
	}
	reg.GaugeFunc("go_goroutines",
		"Goroutines currently alive in the process.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("go_heap_alloc_bytes",
		"Bytes of allocated Go heap objects.",
		read(func(m *runtime.MemStats) float64 { return float64(m.HeapAlloc) }))
	reg.GaugeFunc("go_heap_sys_bytes",
		"Bytes of Go heap obtained from the OS.",
		read(func(m *runtime.MemStats) float64 { return float64(m.HeapSys) }))
	reg.GaugeFunc("go_gc_cycles_total",
		"Completed GC cycles.",
		read(func(m *runtime.MemStats) float64 { return float64(m.NumGC) }))
	reg.GaugeFunc("go_gc_pause_seconds_total",
		"Cumulative GC stop-the-world pause time in seconds.",
		read(func(m *runtime.MemStats) float64 { return float64(m.PauseTotalNs) / 1e9 }))
}
