// Package session owns the run wiring the agent CLIs (predator, predreplay,
// predbench) share around a detection run or sweep: the exporter, elision,
// diagnostics and fleet flags; the observer, event sink, span tracer,
// diagnostics server, heartbeat, fleet client and interrupt flush those
// flags switch on; and the teardown that writes every requested output file.
//
// A CLI calls Parse, validates its own flags, calls Flags.Start, wires
// Session.Observer, Session.Span, Session.OnRuntime and Flags.Elide into its
// run, prints its report, and ends with Session.Finish. Start and Finish
// return an error naming the path of any requested output file that could
// not be created or written; the CLIs exit 1 on it.
package session

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"predator/internal/core"
	"predator/internal/elide"
	"predator/internal/eval"
	"predator/internal/fleet"
	"predator/internal/obs"
	"predator/internal/obs/diag"
	"predator/internal/obs/fleetclient"
	"predator/internal/obs/spans"
	"predator/internal/obs/traceout"
	"predator/internal/report"
	"predator/internal/resilience"
)

// fleetHotLines is how many of the hottest lines each fleet metrics
// snapshot carries.
const fleetHotLines = 10

// Flags holds the flags every agent CLI shares.
type Flags struct {
	tool        string
	metricsOut  *string
	eventsOut   *string
	spansOut    *string
	timelineOut *string
	diag        *diag.Flags
	fleet       *fleetclient.Flags

	// Elide is the loaded -elide manifest; nil when none was given.
	Elide *elide.Manifest
}

// Parse registers the shared flags on flag.CommandLine beside the tool's
// own, parses the command line, and handles the flags that end the process
// before any run: -version prints the build and exits 0, an unreadable
// -elide manifest exits 2.
func Parse(tool string) *Flags {
	f := &Flags{
		tool:        tool,
		metricsOut:  flag.String("metrics-out", "", "write runtime metrics (aggregated over every run) in Prometheus text format to this file"),
		eventsOut:   flag.String("events-out", "", "stream lifecycle trace events as JSON lines to this file"),
		spansOut:    flag.String("spans-out", "", "write the pipeline span trace as OTLP/JSON to this file"),
		timelineOut: flag.String("timeline-out", "", "write the last detection run's flight-recorder timeline as Perfetto/Chrome trace-event JSON to this file"),
	}
	elidePath := flag.String("elide", "", "predlint elision manifest (-elide-out): skip provably-safe objects in every detection run")
	version := flag.Bool("version", false, "print build version and exit")
	f.diag = diag.RegisterFlags(flag.CommandLine)
	f.fleet = fleetclient.RegisterFlags(flag.CommandLine)
	flag.Parse()

	if *version {
		fmt.Println(tool + " " + obs.GetBuildInfo().String())
		os.Exit(0)
	}
	if *elidePath != "" {
		m, err := elide.Load(*elidePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: -elide: %v\n", tool, err)
			os.Exit(2)
		}
		f.Elide = m
	}
	return f
}

// Config carries the settings that differ between the CLIs.
type Config struct {
	// Heartbeat is the periodic metrics-snapshot interval (0 = off).
	Heartbeat time.Duration
	// Deterministic mints span IDs from a fixed seed, so repeated runs
	// produce the same span tree.
	Deterministic bool
}

// Session is the shared wiring of one CLI invocation, from Start to Finish.
type Session struct {
	// Observer collects the metrics and events of every run; nil when no
	// exporter, diagnostics server or fleet needs one.
	Observer *obs.Observer
	// Span is the "cli.run" root every pipeline span nests under, labelled
	// with the tool; nil when span tracing is off. Callers add their own
	// labels.
	Span *spans.Span

	f       *Flags
	evFile  *os.File
	evSink  *obs.JSONLines
	tracer  *spans.Tracer
	diagSrv *diag.Server
	hb      *obs.Heartbeat
	stopInt func()
	fc      *fleetclient.Client
	runID   string
	stopRep func()

	// keepRuntime is set when the timeline, diagnostics server or fleet
	// reads the runtime; otherwise OnRuntime keeps no reference, so a sweep
	// never holds a finished run's runtime alive.
	keepRuntime bool
	rt          atomic.Pointer[core.Runtime]
}

// Start builds what the parsed flags ask for: the observer (only when some
// exporter needs it) with a guarded JSON-lines sink, the span tracer and its
// root span, the diagnostics server, the fleet client and its live
// reporter, the heartbeat, and the interrupt handler that flushes the
// output files.
func (f *Flags) Start(cfg Config) (*Session, error) {
	traced := *f.spansOut != "" || f.diag.Enabled() || f.fleet.Enabled()
	s := &Session{
		f:           f,
		keepRuntime: *f.timelineOut != "" || f.diag.Enabled() || f.fleet.Enabled(),
	}
	if traced || *f.metricsOut != "" || *f.eventsOut != "" {
		var sink obs.Sink
		if *f.eventsOut != "" {
			ef, err := os.Create(*f.eventsOut)
			if err != nil {
				return nil, err
			}
			s.evFile = ef
			s.evSink = obs.NewJSONLines(ef)
			// The sink writes to user-controlled storage: quarantine it
			// rather than let an export failure kill the run.
			sink = resilience.GuardSink("events-jsonl", s.evSink, 0, nil)
		}
		s.Observer = obs.New(obs.NewRegistry(), sink)
	}
	if traced {
		s.tracer = spans.New(spans.Config{Deterministic: cfg.Deterministic})
		s.Observer.SetSpans(s.tracer)
		s.Span = s.tracer.Start("cli.run", nil)
		s.Span.SetLabel("tool", f.tool)
	}
	if f.diag.Enabled() {
		s.Observer.EnableSelfProfile()
		build := obs.RegisterBuildInfo(s.Observer.Metrics(), f.tool)
		srv := diag.New(s.Observer.Metrics(), f.tool, build)
		srv.SetSpans(s.tracer)
		bound, err := srv.Start(context.Background(), *f.diag.Addr)
		if err != nil {
			s.abort()
			return nil, err
		}
		s.diagSrv = srv
		logf("diagnostics: http://%s (metrics, hotlines, findings, timeline, spans, debug/pprof)", bound)
	}
	if f.fleet.Enabled() {
		fc, runID, err := f.fleet.Client(f.tool)
		if err != nil {
			s.abort()
			return nil, err
		}
		s.fc, s.runID = fc, runID
		s.stopRep = fc.StartReporter(f.fleet.ReportInterval(), s.fleetSnapshot)
	}
	s.hb = obs.StartHeartbeat(s.Observer, cfg.Heartbeat, *f.metricsOut)
	// An interrupted run still leaves valid output files: flush the event
	// sink and a final metrics snapshot before exiting with 130/143.
	s.stopInt = obs.FlushOnInterrupt(func() {
		if *f.metricsOut != "" {
			_ = s.Observer.Metrics().WriteSnapshotFile(*f.metricsOut)
		}
		if s.evSink != nil {
			_ = s.evSink.Flush()
		}
	}, nil)
	return s, nil
}

// abort releases what a failed Start already acquired.
func (s *Session) abort() {
	if s.diagSrv != nil {
		_ = s.diagSrv.Shutdown(context.Background())
	}
	if s.evFile != nil {
		s.evFile.Close()
	}
}

// OnRuntime is the run's runtime hook (harness.Options, eval.Config and
// trace.ReplayOptions all take it): it keeps the newest runtime for the
// timeline and the fleet, and points the diagnostics server at it.
func (s *Session) OnRuntime(rt *core.Runtime) {
	if !s.keepRuntime {
		return
	}
	s.rt.Store(rt)
	if s.diagSrv != nil {
		s.diagSrv.SetRuntime(rt)
	}
}

// Fleet reports whether the run ships its findings to a predfleet service.
func (s *Session) Fleet() bool { return s.fc != nil }

// Outcome is what a finished run hands to Finish.
type Outcome struct {
	// ThreadNames labels the timeline's per-thread tracks; nil falls back
	// to "thread N".
	ThreadNames map[int]string
	// Workload, Mode, Threads and Duration describe the run to the fleet.
	Workload string
	Mode     string
	Threads  int
	Duration time.Duration
	// Reports are the findings shipped to the fleet, keyed by workload;
	// nil ships no findings payload.
	Reports map[string]report.JSONReport
	// Bench is the benchmark document shipped beside the findings, if any.
	Bench *eval.BenchDoc
}

// Finish tears the session down in one fixed order: end the root span; stop
// the heartbeat and the interrupt handler; write the metrics; flush and
// close the events file; write the OTLP spans; write the timeline of the
// last runtime; ship findings, metrics and spans to the fleet and drain the
// client; then linger for the diagnostics server and shut it down. A failed
// output file does not stop the teardown; every failure is returned, each
// naming its path.
func (s *Session) Finish(out Outcome) error {
	s.Span.End()
	s.hb.Stop()
	s.stopInt()

	var errs []error
	if p := *s.f.metricsOut; p != "" {
		if err := s.Observer.Metrics().WriteSnapshotFile(p); err != nil {
			errs = append(errs, fmt.Errorf("writing %s: %w", p, err))
		}
	}
	if s.evFile != nil {
		err := s.evSink.Flush()
		if cerr := s.evFile.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("writing %s: %w", *s.f.eventsOut, err))
		}
	}
	if p := *s.f.spansOut; p != "" {
		if err := spans.WriteOTLPFile(p, s.f.tool, s.tracer.Snapshot()); err != nil {
			errs = append(errs, fmt.Errorf("writing %s: %w", p, err))
		} else {
			logf("spans: %s (OTLP/JSON, trace %s)", p, s.tracer.TraceID())
		}
	}
	if p := *s.f.timelineOut; p != "" {
		if err := s.writeTimeline(p, out.ThreadNames); err != nil {
			errs = append(errs, err)
		} else {
			logf("timeline: %s (load in ui.perfetto.dev)", p)
		}
	}
	s.ship(out)
	s.f.diag.ShutdownAfterLinger(s.diagSrv, logf)
	return errors.Join(errs...)
}

// writeTimeline dumps the last runtime's flight recorders to path.
func (s *Session) writeTimeline(path string, threadNames map[int]string) error {
	rt := s.rt.Load()
	switch {
	case rt == nil:
		return errors.New("-timeline-out: no instrumented runtime was constructed (native mode has no timeline)")
	case !rt.FlightEnabled():
		return errors.New("-timeline-out: flight recording is disabled (-flight-depth -1)")
	}
	if err := traceout.WriteTimelineFile(path, rt.FlightDump(0, -1), threadNames); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// ship sends the run to the fleet, then drains the exporter. Send errors
// are not the run's failure: the client retries, and spools what it cannot
// deliver when -fleet-spool is set.
func (s *Session) ship(out Outcome) {
	if s.fc == nil {
		return
	}
	s.stopRep()
	if out.Reports != nil {
		meta := s.fc.RunMeta(s.runID, time.Now())
		meta.Workload, meta.Mode, meta.Threads = out.Workload, out.Mode, out.Threads
		meta.DurationNs = out.Duration.Nanoseconds()
		_ = s.fc.SendFindings(&fleet.FindingsPayload{Run: meta, Reports: out.Reports, Bench: out.Bench})
	}
	if mp := s.fleetSnapshot(); mp != nil {
		_ = s.fc.SendMetrics(mp)
	}
	_ = s.fc.SendSpans(&fleet.SpansPayload{
		Run:     s.runID,
		TraceID: s.tracer.TraceID().String(),
		Spans:   s.tracer.Snapshot(),
	})
	if err := s.fc.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", s.f.tool, err)
		return
	}
	st := s.fc.Stats()
	logf("fleet: run %s -> %s (sent=%d spooled=%d)", s.runID, *s.f.fleet.Addr, st.Sent, st.Spooled)
}

// fleetSnapshot is the hot-line metrics payload of the newest runtime, or
// nil before the first one exists.
func (s *Session) fleetSnapshot() *fleet.MetricsPayload {
	rt := s.rt.Load()
	if rt == nil {
		return nil
	}
	mp := fleetclient.SnapshotRuntime(rt, fleetHotLines, s.Observer.Metrics().Snapshot())
	if mp != nil {
		mp.Run = s.runID
	}
	return mp
}

// logf prints a session status line on stderr, keeping stdout for the
// tool's report.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}
