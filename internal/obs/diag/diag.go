// Package diag is the detector's live diagnostics server: an embedded,
// opt-in HTTP endpoint that exposes the runtime's state while detection is
// running. It serves five surfaces:
//
//   - /metrics — the obs registry rendered in Prometheus text format, live.
//   - /hotlines?n=K — JSON snapshots of the K hottest tracked cache lines
//     (invalidation counts, per-word thread-ownership heatmaps,
//     sampling-window phase, degradation status, attached virtual lines).
//   - /findings — a provisional (side-effect-free) report of what the final
//     Report would currently contain.
//   - /timeline?line=K — the flight recorders rendered as Chrome
//     trace-event JSON (load in ui.perfetto.dev): per-thread access tracks,
//     invalidation marks, detector-phase spans. Omit line for the hottest
//     lines (?n= bounds how many).
//   - /debug/pprof/* — the Go profiler; detector phases and workload
//     goroutines carry pprof labels so CPU profiles split instrumentation,
//     prediction, and report cost.
//   - /healthz — build identity, uptime, and endpoint quarantine state.
//
// The server holds its Source (the runtime) behind an atomic swap so tools
// that run many successive runtimes (predbench) can re-point a live server
// between runs. Every handler is wrapped in a resilience.Guard: a panicking
// endpoint returns 500 and, past the panic budget, is quarantined to 503 —
// diagnostics can degrade, detection never stops.
package diag

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"predator/internal/core"
	"predator/internal/obs"
	"predator/internal/obs/spans"
	"predator/internal/obs/traceout"
	"predator/internal/report"
	"predator/internal/resilience"
)

// Source is the runtime surface the server scrapes. *core.Runtime
// implements it; tests substitute fakes.
type Source interface {
	// HotLines returns snapshots of the n hottest tracked lines (n <= 0
	// means all), hottest first.
	HotLines(n int) []core.LineSnapshot
	// Provisional builds a side-effect-free report of current findings.
	Provisional() *report.Report
	// Stats snapshots runtime counters.
	Stats() core.Stats
}

// TimelineSource is the optional Source extension behind /timeline.
// *core.Runtime implements it; sources that don't (test fakes, remote
// mirrors) make the endpoint answer 503 rather than breaking the interface.
type TimelineSource interface {
	// FlightDump snapshots the flight recorders: line >= 0 restricts to one
	// physical line, otherwise the n hottest lines (n <= 0 means all). Nil
	// when flight recording is disabled.
	FlightDump(n int, line int64) *core.FlightDump
}

// DefaultHotLines is how many lines /hotlines returns when ?n= is absent.
const DefaultHotLines = 10

// shutdownGrace bounds how long a context-cancelled server waits for
// in-flight scrapes before closing connections.
const shutdownGrace = 5 * time.Second

// sourceBox wraps a Source so atomic.Value always stores one concrete type.
type sourceBox struct{ src Source }

// Server is the diagnostics HTTP server. Construct with New, attach a
// runtime with SetSource (before or after Start), and serve with Start.
type Server struct {
	reg     *obs.Registry
	build   obs.BuildInfo
	tool    string
	mux     *http.ServeMux
	guards  map[string]*resilience.Guard
	source  atomic.Value // sourceBox
	tracer  atomic.Pointer[spans.Tracer]
	started time.Time

	srv  *http.Server
	done chan struct{}
}

// New builds a server over a metrics registry (may be nil: /metrics then
// renders an empty registry) identified by tool and build.
func New(reg *obs.Registry, tool string, build obs.BuildInfo) *Server {
	s := &Server{
		reg:     reg,
		build:   build,
		tool:    tool,
		mux:     http.NewServeMux(),
		guards:  map[string]*resilience.Guard{},
		started: time.Now(),
	}
	s.mux.HandleFunc("/healthz", s.guarded("/healthz", s.handleHealthz))
	s.mux.HandleFunc("/metrics", s.guarded("/metrics", s.handleMetrics))
	s.mux.HandleFunc("/hotlines", s.guarded("/hotlines", s.handleHotLines))
	s.mux.HandleFunc("/findings", s.guarded("/findings", s.handleFindings))
	s.mux.HandleFunc("/timeline", s.guarded("/timeline", s.handleTimeline))
	s.mux.HandleFunc("/spans", s.guarded("/spans", s.handleSpans))
	s.mux.HandleFunc("/debug/pprof/", s.guardRaw("/debug/pprof", httppprof.Index))
	s.mux.HandleFunc("/debug/pprof/cmdline", s.guardRaw("/debug/pprof/cmdline", httppprof.Cmdline))
	s.mux.HandleFunc("/debug/pprof/profile", s.guardRaw("/debug/pprof/profile", httppprof.Profile))
	s.mux.HandleFunc("/debug/pprof/symbol", s.guardRaw("/debug/pprof/symbol", httppprof.Symbol))
	s.mux.HandleFunc("/debug/pprof/trace", s.guardRaw("/debug/pprof/trace", httppprof.Trace))
	return s
}

// SetSource atomically attaches (or replaces) the runtime the server
// scrapes. Safe to call while the server is serving; nil detaches.
func (s *Server) SetSource(src Source) {
	s.source.Store(sourceBox{src: src})
}

// SetRuntime is SetSource for the concrete runtime type: its signature
// matches the OnRuntime hooks on harness.Options, trace.ReplayOptions, and
// eval.Config, so CLIs can pass the method value directly.
func (s *Server) SetRuntime(rt *core.Runtime) {
	if rt == nil {
		s.SetSource(nil)
		return
	}
	s.SetSource(rt)
}

// SetSpans attaches the pipeline span tracer behind /spans. Safe to call
// while serving; nil detaches (the endpoint answers 503).
func (s *Server) SetSpans(t *spans.Tracer) {
	s.tracer.Store(t)
}

// Src returns the currently attached source, or nil.
func (s *Server) Src() Source {
	if b, ok := s.source.Load().(sourceBox); ok {
		return b.src
	}
	return nil
}

// Handler returns the server's routing handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr (host:port; port 0 picks a free port) and serves
// until ctx is cancelled or Shutdown is called, then drains gracefully. It
// returns the bound address immediately; serving happens in background
// goroutines.
func (s *Server) Start(ctx context.Context, addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("diag: listen %s: %w", addr, err)
	}
	s.srv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln)
	}()
	if ctx != nil {
		go func() {
			<-ctx.Done()
			sctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
			defer cancel()
			_ = s.Shutdown(sctx)
		}()
	}
	return ln.Addr().String(), nil
}

// Shutdown gracefully stops a started server, waiting for in-flight
// requests up to ctx's deadline. No-op if Start was never called.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.srv == nil {
		return nil
	}
	err := s.srv.Shutdown(ctx)
	<-s.done
	return err
}

// httpError carries a status code out of a handler's render function.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

// guarded wraps a buffered render function in a panic guard. The body is
// rendered into a buffer inside the guard, so a panic mid-render yields a
// clean 500 (never a torn response body) and, past the panic budget, the
// endpoint is quarantined to 503 while the rest of the server keeps
// serving.
func (s *Server) guarded(name string, render func(r *http.Request, buf *bytes.Buffer) (contentType string, err error)) http.HandlerFunc {
	g := resilience.NewGuard("diag:"+name, resilience.DefaultPanicLimit, nil)
	s.guards[name] = g
	return func(w http.ResponseWriter, r *http.Request) {
		if g.Quarantined() {
			http.Error(w, name+": quarantined after repeated panics", http.StatusServiceUnavailable)
			return
		}
		var buf bytes.Buffer
		var ctype string
		var err error
		if !g.Run(func() { ctype, err = render(r, &buf) }) {
			http.Error(w, name+": handler panicked", http.StatusInternalServerError)
			return
		}
		if err != nil {
			code := http.StatusInternalServerError
			if he, ok := err.(*httpError); ok {
				code = he.code
			}
			http.Error(w, err.Error(), code)
			return
		}
		w.Header().Set("Content-Type", ctype)
		_, _ = w.Write(buf.Bytes())
	}
}

// guardRaw wraps an unbuffered handler (the streaming pprof endpoints) in
// the same panic guard. A panic after headers were sent cannot be unsent;
// the guard still counts it and eventually quarantines the endpoint.
func (s *Server) guardRaw(name string, h http.HandlerFunc) http.HandlerFunc {
	g := resilience.NewGuard("diag:"+name, resilience.DefaultPanicLimit, nil)
	s.guards[name] = g
	return func(w http.ResponseWriter, r *http.Request) {
		if g.Quarantined() {
			http.Error(w, name+": quarantined after repeated panics", http.StatusServiceUnavailable)
			return
		}
		if !g.Run(func() { h(w, r) }) {
			http.Error(w, name+": handler panicked", http.StatusInternalServerError)
		}
	}
}

// Health is the /healthz response schema.
type Health struct {
	Status        string   `json:"status"`
	Tool          string   `json:"tool"`
	Version       string   `json:"version"`
	Revision      string   `json:"revision,omitempty"`
	GoVersion     string   `json:"go_version"`
	UptimeSeconds float64  `json:"uptime_seconds"`
	SourceActive  bool     `json:"source_active"`
	Quarantined   []string `json:"quarantined,omitempty"`
}

func (s *Server) handleHealthz(_ *http.Request, buf *bytes.Buffer) (string, error) {
	h := Health{
		Status:        "ok",
		Tool:          s.tool,
		Version:       s.build.Version,
		Revision:      s.build.ShortRevision(),
		GoVersion:     s.build.GoVersion,
		UptimeSeconds: time.Since(s.started).Seconds(),
		SourceActive:  s.Src() != nil,
	}
	for name, g := range s.guards {
		if g.Quarantined() {
			h.Quarantined = append(h.Quarantined, name)
		}
	}
	sort.Strings(h.Quarantined)
	return writeJSON(buf, h)
}

func (s *Server) handleMetrics(_ *http.Request, buf *bytes.Buffer) (string, error) {
	if err := s.reg.WritePrometheus(buf); err != nil {
		return "", err
	}
	return "text/plain; version=0.0.4; charset=utf-8", nil
}

// StatsJSON is the /hotlines counter block: the runtime's core.Stats plus
// the front-end's elided count.
type StatsJSON struct {
	core.Stats
	Elided uint64 `json:"elided,omitempty"` // accesses skipped by the static elision fast path
}

// HotLinesResponse is the /hotlines response schema.
type HotLinesResponse struct {
	Tool      string              `json:"tool"`
	UnixMilli int64               `json:"unix_ms"`
	Requested int                 `json:"requested"`
	Count     int                 `json:"count"`
	Stats     StatsJSON           `json:"stats"`
	Lines     []core.LineSnapshot `json:"lines"`
}

func (s *Server) handleHotLines(r *http.Request, buf *bytes.Buffer) (string, error) {
	src := s.Src()
	if src == nil {
		return "", &httpError{http.StatusServiceUnavailable, "no runtime attached"}
	}
	n := DefaultHotLines
	if raw := r.URL.Query().Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil {
			return "", &httpError{http.StatusBadRequest, "invalid n: " + raw}
		}
		n = v
	}
	lines := src.HotLines(n)
	if lines == nil {
		lines = []core.LineSnapshot{}
	}
	resp := HotLinesResponse{
		Tool:      s.tool,
		UnixMilli: time.Now().UnixMilli(),
		Requested: n,
		Count:     len(lines),
		// The elided counter lives in the instrumentation front-end, not
		// core.Stats; read it from the metrics registry by name.
		Stats: StatsJSON{Stats: src.Stats(), Elided: s.elidedCount()},
		Lines: lines,
	}
	return writeJSON(buf, resp)
}

// elidedCount reads the static-elision counter from the registry (zero when
// no elision manifest is installed or no observer wiring exists).
func (s *Server) elidedCount() uint64 {
	if s.reg == nil {
		return 0
	}
	return uint64(s.reg.Snapshot()["predator_events_elided_total"])
}

// FindingsResponse is the /findings response schema: finding tallies plus
// the provisional report in the same JSON shape predator -json emits.
type FindingsResponse struct {
	Tool      string            `json:"tool"`
	UnixMilli int64             `json:"unix_ms"`
	Counts    report.Counts     `json:"counts"`
	Report    report.JSONReport `json:"report"`
}

func (s *Server) handleFindings(_ *http.Request, buf *bytes.Buffer) (string, error) {
	src := s.Src()
	if src == nil {
		return "", &httpError{http.StatusServiceUnavailable, "no runtime attached"}
	}
	rep := src.Provisional()
	resp := FindingsResponse{
		Tool:      s.tool,
		UnixMilli: time.Now().UnixMilli(),
		Counts:    rep.Counts(),
		Report:    rep.ToJSON(),
	}
	return writeJSON(buf, resp)
}

func (s *Server) handleTimeline(r *http.Request, buf *bytes.Buffer) (string, error) {
	src := s.Src()
	if src == nil {
		return "", &httpError{http.StatusServiceUnavailable, "no runtime attached"}
	}
	ts, ok := src.(TimelineSource)
	if !ok {
		return "", &httpError{http.StatusServiceUnavailable, "attached source does not support timelines"}
	}
	line := int64(-1)
	if raw := r.URL.Query().Get("line"); raw != "" {
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || v < 0 {
			return "", &httpError{http.StatusBadRequest, "invalid line: " + raw}
		}
		line = v
	}
	n := DefaultHotLines
	if raw := r.URL.Query().Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil {
			return "", &httpError{http.StatusBadRequest, "invalid n: " + raw}
		}
		n = v
	}
	d := ts.FlightDump(n, line)
	if d == nil {
		return "", &httpError{http.StatusServiceUnavailable, "flight recording disabled"}
	}
	if err := traceout.WriteTimeline(buf, d, nil); err != nil {
		return "", err
	}
	return "application/json; charset=utf-8", nil
}

// handleSpans serves the tracer's finished pipeline spans as OTLP/JSON —
// the same document -spans-out writes, but live: scrape mid-run to see which
// phases have completed so far.
func (s *Server) handleSpans(_ *http.Request, buf *bytes.Buffer) (string, error) {
	t := s.tracer.Load()
	if t == nil {
		return "", &httpError{http.StatusServiceUnavailable, "span tracing not enabled"}
	}
	if err := spans.WriteOTLP(buf, s.tool, t.Snapshot()); err != nil {
		return "", err
	}
	return "application/json; charset=utf-8", nil
}

// writeJSON renders v into buf and returns the JSON content type.
func writeJSON(buf *bytes.Buffer, v any) (string, error) {
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return "", err
	}
	return "application/json; charset=utf-8", nil
}
