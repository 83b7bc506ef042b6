// Package httpsrv is the guarded HTTP skeleton the diagnostics server and
// predfleet are built on. It owns how an endpoint is guarded, rendered,
// mapped to a status code and listed in /healthz, and how the server starts
// and drains:
//
//   - every endpoint runs inside a resilience.Guard, so a panicking handler
//     answers 500 and, past the panic budget, is quarantined to 503 while
//     its siblings keep serving;
//   - buffered endpoints render into a buffer inside the guard, so a panic
//     mid-render never leaves a torn body on the wire;
//   - a render function chooses its status code by returning an *Error.
package httpsrv

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"predator/internal/obs"
	"predator/internal/resilience"
)

// ShutdownGrace bounds how long a draining server waits for in-flight
// requests before closing connections.
const ShutdownGrace = 5 * time.Second

// Render writes one response body into buf and returns its content type.
// A non-nil error answers with Status(err) and the error text instead.
type Render func(r *http.Request, buf *bytes.Buffer) (contentType string, err error)

// Server is a mux whose endpoints each run behind a named panic guard.
// Register endpoints before Start; the guard table is not locked.
type Server struct {
	prefix string // guard-name and listen-error prefix ("diag", "fleet")
	mux    *http.ServeMux
	guards map[string]*resilience.Guard

	srv    *http.Server
	done   chan struct{}
	closed atomic.Bool
}

// New returns an empty server whose guards are named prefix+":"+name.
func New(prefix string) *Server {
	return &Server{prefix: prefix, mux: http.NewServeMux(), guards: map[string]*resilience.Guard{}}
}

// Handler returns the routing handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr (host:port; port 0 picks a free port) and serves
// until ctx is cancelled or Shutdown is called, then drains gracefully. It
// returns the bound address immediately; serving happens in background
// goroutines.
func (s *Server) Start(ctx context.Context, addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("%s: listen %s: %w", s.prefix, addr, err)
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
			sctx, cancel := context.WithTimeout(context.Background(), ShutdownGrace)
			defer cancel()
			_ = s.Shutdown(sctx)
		}()
	}
	return ln.Addr().String(), nil
}

// Shutdown gracefully stops a started server, waiting for in-flight
// requests up to ctx's deadline. It is a no-op before Start and after the
// first call.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.srv == nil || !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := s.srv.Shutdown(ctx)
	<-s.done
	return err
}

// guard registers a panic guard under name and returns the runner that
// applies it: the runner answers 503 while the endpoint is quarantined and
// 500 when fn panics, and reports whether fn ran to completion.
func (s *Server) guard(name string) func(w http.ResponseWriter, fn func()) bool {
	g := resilience.NewGuard(s.prefix+":"+name, resilience.DefaultPanicLimit, nil)
	s.guards[name] = g
	return func(w http.ResponseWriter, fn func()) bool {
		if g.Quarantined() {
			http.Error(w, name+": quarantined after repeated panics", http.StatusServiceUnavailable)
			return false
		}
		if !g.Run(fn) {
			http.Error(w, name+": handler panicked", http.StatusInternalServerError)
			return false
		}
		return true
	}
}

// Handle serves pattern with a buffered render function guarded under the
// pattern's name.
func (s *Server) Handle(pattern string, render Render) {
	run := s.guard(pattern)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		var buf bytes.Buffer
		var ctype string
		var err error
		if !run(w, func() { ctype, err = render(r, &buf) }) {
			return
		}
		if err != nil {
			http.Error(w, err.Error(), Status(err))
			return
		}
		w.Header().Set("Content-Type", ctype)
		_, _ = w.Write(buf.Bytes())
	})
}

// HandleRaw serves pattern with an unbuffered handler that writes its own
// response (the streaming pprof endpoints, fleet's ingest ack), guarded
// under name. A panic after headers were sent cannot be unsent; the guard
// still counts it and eventually quarantines the endpoint.
func (s *Server) HandleRaw(pattern, name string, h http.HandlerFunc) {
	run := s.guard(name)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		run(w, func() { h(w, r) })
	})
}

// Quarantined lists the quarantined endpoint names, sorted (nil when none).
func (s *Server) Quarantined() []string {
	var out []string
	for name, g := range s.guards {
		if g.Quarantined() {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Error carries an HTTP status code out of a render function.
type Error struct {
	Code int
	Msg  string
}

func (e *Error) Error() string { return e.Msg }

// NewError returns an *Error answering code with msg.
func NewError(code int, msg string) error { return &Error{Code: code, Msg: msg} }

// Status maps err to its response code: the Code of the first *Error in
// its chain, otherwise 500.
func Status(err error) int {
	var he *Error
	if errors.As(err, &he) {
		return he.Code
	}
	return http.StatusInternalServerError
}

// JSON renders v as indented JSON into buf and returns its content type.
func JSON(buf *bytes.Buffer, v any) (string, error) {
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return "", err
	}
	return "application/json; charset=utf-8", nil
}

// Metrics renders reg in Prometheus text format (a nil registry renders
// empty).
func Metrics(reg *obs.Registry) Render {
	return func(_ *http.Request, buf *bytes.Buffer) (string, error) {
		if err := reg.WritePrometheus(buf); err != nil {
			return "", err
		}
		return "text/plain; version=0.0.4; charset=utf-8", nil
	}
}

// IntParam parses the integer query parameter key, returning def when it is
// absent and a 400 *Error when it is not an integer.
func IntParam(r *http.Request, key string, def int) (int, error) {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, NewError(http.StatusBadRequest, "invalid "+key+": "+raw)
	}
	return v, nil
}

// Health is the /healthz identity block both servers embed ahead of their
// own fields.
type Health struct {
	Status        string  `json:"status"`
	Tool          string  `json:"tool"`
	Version       string  `json:"version"`
	Revision      string  `json:"revision,omitempty"`
	GoVersion     string  `json:"go_version"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// NewHealth fills the identity block for a healthy server.
func NewHealth(tool string, build obs.BuildInfo, uptime time.Duration) Health {
	return Health{
		Status:        "ok",
		Tool:          tool,
		Version:       build.Version,
		Revision:      build.ShortRevision(),
		GoVersion:     build.GoVersion,
		UptimeSeconds: uptime.Seconds(),
	}
}
