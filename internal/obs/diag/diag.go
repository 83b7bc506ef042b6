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
// between runs. Every handler runs behind an httpsrv guard: a panicking
// endpoint returns 500 and, past the panic budget, is quarantined to 503 —
// diagnostics can degrade, detection never stops.
package diag

import (
	"bytes"
	"net/http"
	httppprof "net/http/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"predator/internal/core"
	"predator/internal/httpsrv"
	"predator/internal/obs"
	"predator/internal/obs/spans"
	"predator/internal/obs/traceout"
	"predator/internal/report"
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

// sourceBox wraps a Source so atomic.Value always stores one concrete type.
type sourceBox struct{ src Source }

// Server is the diagnostics HTTP server. Construct with New, attach a
// runtime with SetSource (before or after Start), and serve with Start.
type Server struct {
	*httpsrv.Server // guarded endpoints, Start, Shutdown, Handler

	// source and tracer are re-pointed while scrapes read them; the
	// read-only identity fields between them keep the two on separate
	// cache lines.
	source  atomic.Value // sourceBox
	reg     *obs.Registry
	build   obs.BuildInfo
	tool    string
	started time.Time
	tracer  atomic.Pointer[spans.Tracer]
}

// New builds a server over a metrics registry (may be nil: /metrics then
// renders an empty registry) identified by tool and build.
func New(reg *obs.Registry, tool string, build obs.BuildInfo) *Server {
	s := &Server{
		Server:  httpsrv.New("diag"),
		reg:     reg,
		build:   build,
		tool:    tool,
		started: time.Now(),
	}
	s.Handle("/healthz", s.handleHealthz)
	s.Handle("/metrics", httpsrv.Metrics(reg))
	s.Handle("/hotlines", s.handleHotLines)
	s.Handle("/findings", s.handleFindings)
	s.Handle("/timeline", s.handleTimeline)
	s.Handle("/spans", s.handleSpans)
	s.HandleRaw("/debug/pprof/", "/debug/pprof", httppprof.Index)
	s.HandleRaw("/debug/pprof/cmdline", "/debug/pprof/cmdline", httppprof.Cmdline)
	s.HandleRaw("/debug/pprof/profile", "/debug/pprof/profile", httppprof.Profile)
	s.HandleRaw("/debug/pprof/symbol", "/debug/pprof/symbol", httppprof.Symbol)
	s.HandleRaw("/debug/pprof/trace", "/debug/pprof/trace", httppprof.Trace)
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

// Health is the /healthz response schema.
type Health struct {
	httpsrv.Health
	SourceActive bool     `json:"source_active"`
	Quarantined  []string `json:"quarantined,omitempty"`
}

func (s *Server) handleHealthz(_ *http.Request, buf *bytes.Buffer) (string, error) {
	return httpsrv.JSON(buf, Health{
		Health:       httpsrv.NewHealth(s.tool, s.build, time.Since(s.started)),
		SourceActive: s.Src() != nil,
		Quarantined:  s.Quarantined(),
	})
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
		return "", httpsrv.NewError(http.StatusServiceUnavailable, "no runtime attached")
	}
	n, err := httpsrv.IntParam(r, "n", DefaultHotLines)
	if err != nil {
		return "", err
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
	return httpsrv.JSON(buf, resp)
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
		return "", httpsrv.NewError(http.StatusServiceUnavailable, "no runtime attached")
	}
	rep := src.Provisional()
	resp := FindingsResponse{
		Tool:      s.tool,
		UnixMilli: time.Now().UnixMilli(),
		Counts:    rep.Counts(),
		Report:    rep.ToJSON(),
	}
	return httpsrv.JSON(buf, resp)
}

func (s *Server) handleTimeline(r *http.Request, buf *bytes.Buffer) (string, error) {
	src := s.Src()
	if src == nil {
		return "", httpsrv.NewError(http.StatusServiceUnavailable, "no runtime attached")
	}
	ts, ok := src.(TimelineSource)
	if !ok {
		return "", httpsrv.NewError(http.StatusServiceUnavailable, "attached source does not support timelines")
	}
	line := int64(-1)
	if raw := r.URL.Query().Get("line"); raw != "" {
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || v < 0 {
			return "", httpsrv.NewError(http.StatusBadRequest, "invalid line: "+raw)
		}
		line = v
	}
	n, err := httpsrv.IntParam(r, "n", DefaultHotLines)
	if err != nil {
		return "", err
	}
	d := ts.FlightDump(n, line)
	if d == nil {
		return "", httpsrv.NewError(http.StatusServiceUnavailable, "flight recording disabled")
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
		return "", httpsrv.NewError(http.StatusServiceUnavailable, "span tracing not enabled")
	}
	if err := spans.WriteOTLP(buf, s.tool, t.Snapshot()); err != nil {
		return "", err
	}
	return "application/json; charset=utf-8", nil
}
