// Package obs is PREDATOR's observability subsystem: a low-overhead metrics
// registry (atomic counters, gauges, bucketed histograms), a typed lifecycle
// event tracing API, and exporters (JSON-lines events, Prometheus text-format
// snapshots, periodic heartbeats).
//
// The design constraint is the paper's own (§2.4: "significant performance
// overhead... avoided"): the uninstrumented fast path must pay nothing. Every
// instrument method is nil-safe — calling Inc on a nil *Counter, Emit on a
// nil *Observer, or Counter() on a nil *Registry is a no-op — so runtime
// packages hold instrument pointers unconditionally and only populate them
// when an Observer is attached. Hot paths additionally gate event
// construction on Observer.Tracing() so no Event struct is built when nobody
// listens.
package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one. Safe on a nil receiver (no-op).
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n. Safe on a nil receiver (no-op).
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// SyncBatch is the hot-path push granularity: instrumented code paths that
// already maintain their own atomic totals sync the registry counter only on
// every SyncBatch-th event (one predictable branch per event) and push exact
// totals at quiescent flush points via SyncCounter.
const SyncBatch = 256

// SyncCounter advances c so its value reaches cur, using pushed to remember
// how much was already pushed. The CAS loop adds each delta exactly once even
// under concurrent callers holding stale cur values. Nil-safe: a nil counter
// is a no-op.
func SyncCounter(c *Counter, cur uint64, pushed *atomic.Uint64) {
	if c == nil {
		return
	}
	for {
		old := pushed.Load()
		if cur <= old {
			return
		}
		if pushed.CompareAndSwap(old, cur) {
			c.Add(cur - old)
			return
		}
	}
}

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores v. Safe on a nil receiver (no-op).
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds delta (negative to decrease). Safe on a nil receiver (no-op).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket cumulative histogram. Bucket bounds are upper
// bounds in ascending order; an implicit +Inf bucket catches the rest.
//
//predlint:ignore padcheck count and sum are written together by every Observe call, so they bounce as a unit; separating them buys nothing
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1, last is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// Observe records one sample. Safe on a nil receiver (no-op).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of samples observed (0 on a nil receiver).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all samples (0 on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// snapshot returns cumulative bucket counts aligned with bounds plus +Inf.
func (h *Histogram) snapshot() []uint64 {
	out := make([]uint64, len(h.counts))
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	return out
}

// Kind discriminates metric types for the exporter.
type Kind int

// Metric kinds, mapping onto Prometheus types.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String names the kind in Prometheus TYPE syntax.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// metric is one registered instrument (or collector function).
type metric struct {
	name    string
	help    string
	kind    Kind
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64 // gauge collector; nil for direct instruments
	labels  string         // pre-rendered {k="v",...} for info gauges; "" otherwise
}

// validName matches the Prometheus metric name grammar.
var validName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// Registry holds named metrics in registration order. Registration is
// idempotent: asking for an existing name of the same kind returns the same
// instrument, so independent subsystems (or successive runs in one process)
// share and accumulate into one metric. A kind conflict panics — it is a
// wiring bug, not a runtime condition. All methods are safe on a nil
// receiver, returning nil instruments whose methods no-op.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	byName  map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

// lookup finds or creates a named metric slot. fill runs on the slot under
// r.mu, so an instrument created lazily on first registration is created
// once even when goroutines register the same name concurrently (tracks
// promoted at the same time do), and a collector or label set replaced by
// re-registration is never seen half-written by a scrape. Caller must not
// hold r.mu.
func (r *Registry) lookup(name, help string, kind Kind, fill func(*metric)) *metric {
	if !validName.MatchString(name) {
		panic("obs: invalid metric name " + name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.byName[name]
	if ok && m.kind != kind {
		panic(fmt.Sprintf("obs: metric %s re-registered as %v (was %v)", name, kind, m.kind))
	}
	if !ok {
		m = &metric{name: name, help: help, kind: kind}
		r.metrics = append(r.metrics, m)
		r.byName[name] = m
	}
	fill(m)
	return m
}

// copyMetrics returns a copy of every metric slot taken under r.mu, so a
// scrape reads each slot's collector and labels as one registration left
// them, never while a concurrent Info or GaugeFunc replaces them.
func (r *Registry) copyMetrics() []metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]metric, len(r.metrics))
	for i, m := range r.metrics {
		out[i] = *m
	}
	return out
}

// Counter registers (or fetches) a counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	m := r.lookup(name, help, KindCounter, func(m *metric) {
		if m.counter == nil {
			m.counter = &Counter{}
		}
	})
	return m.counter
}

// Gauge registers (or fetches) a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	m := r.lookup(name, help, KindGauge, func(m *metric) {
		if m.gauge == nil {
			m.gauge = &Gauge{}
		}
	})
	return m.gauge
}

// Histogram registers (or fetches) a histogram with the given upper bucket
// bounds (ascending; +Inf is implicit). Bounds are fixed at first
// registration; later fetches ignore the argument.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	m := r.lookup(name, help, KindHistogram, func(m *metric) {
		if m.hist == nil {
			b := append([]float64(nil), bounds...)
			sort.Float64s(b)
			m.hist = &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
		}
	})
	return m.hist
}

// Info registers an info-style gauge: a constant 1 carrying its payload in
// Prometheus labels (the `predator_build_info` idiom). Label values are
// escaped at registration; re-registering a name replaces the label set.
// Info metrics render as `name{k="v",...} 1` and appear in Snapshot as 1.
func (r *Registry) Info(name, help string, labels map[string]string) {
	if r == nil {
		return
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b []byte
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, k...)
		b = append(b, '=')
		b = strconv.AppendQuote(b, labels[k])
	}
	rendered := "{" + string(b) + "}"
	r.lookup(name, help, KindGauge, func(m *metric) {
		m.labels = rendered
		m.fn = func() float64 { return 1 }
	})
}

// GaugeFunc registers a gauge whose value is computed at snapshot time. The
// function must be safe to call concurrently and must not retain heavyweight
// state (it is held for the registry's lifetime). Re-registering a name
// replaces the function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	r.lookup(name, help, KindGauge, func(m *metric) { m.fn = fn })
}

// Snapshot returns the current value of every scalar metric (counters,
// gauges, gauge funcs) keyed by name. Histograms are summarized as
// name_count and name_sum entries.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	metrics := r.copyMetrics()
	out := make(map[string]float64, len(metrics))
	for _, m := range metrics {
		switch {
		case m.fn != nil:
			out[m.name] = m.fn()
		case m.kind == KindCounter:
			out[m.name] = float64(m.counter.Value())
		case m.kind == KindGauge:
			out[m.name] = float64(m.gauge.Value())
		case m.kind == KindHistogram:
			out[m.name+"_count"] = float64(m.hist.Count())
			out[m.name+"_sum"] = m.hist.Sum()
		}
	}
	return out
}
