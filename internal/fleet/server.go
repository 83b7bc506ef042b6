package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"predator/internal/fleet/tsdb"
	"predator/internal/httpsrv"
	"predator/internal/obs"
	"predator/internal/trace"
)

// DefaultMaxBody bounds ingestion request bodies (8 MiB).
const DefaultMaxBody = 8 << 20

// ServerConfig configures NewServer.
type ServerConfig struct {
	// Store is the persistent findings store (required).
	Store *Store
	// Tokens maps bearer token -> tenant name. Empty means every request is
	// rejected 401 except when AllowAnonymous names a tenant.
	Tokens map[string]string
	// AllowAnonymous, when non-empty, admits unauthenticated requests as
	// this tenant — local development only.
	AllowAnonymous string
	// Rate/Burst parameterize the per-tenant ingestion token bucket
	// (<= 0 means DefaultRate / DefaultBurst).
	Rate  float64
	Burst int
	// MaxBody bounds ingestion bodies in bytes (0 = DefaultMaxBody).
	MaxBody int64
	// Registry receives predfleet_* metrics (nil = metrics still served,
	// registry created internally).
	Registry *obs.Registry
	// Build identifies the server in /healthz.
	Build obs.BuildInfo
	// Clock substitutes time.Now (tests). Nil means time.Now.
	Clock func() time.Time
	// TSDB, when non-nil, serves /api/v1/series and the dashboard
	// sparklines. Wire the same DB behind the store's Observer so it fills.
	TSDB *tsdb.DB
	// Alerts configures the alert engine (zero values take the defaults);
	// the engine itself is always built from the store.
	Alerts AlertConfig
}

// Server is the predfleet HTTP service: token-authenticated multi-tenant
// ingestion with per-tenant rate limiting, fleet-wide query endpoints, and
// its own health/metrics surfaces. Every endpoint runs behind an httpsrv
// guard: a panicking endpoint answers 500 and is eventually quarantined to
// 503, but ingestion of other tenants keeps flowing.
type Server struct {
	*httpsrv.Server // guarded endpoints, Start, Shutdown, Handler

	cfg     ServerConfig
	store   *Store
	limiter *RateLimiter
	reg     *obs.Registry
	started time.Time
	tsdb    *tsdb.DB // nil: series/dash sparklines disabled
	alerter *Alerter

	mIngest      *obs.Counter // predfleet_ingest_total
	mIngestErr   *obs.Counter
	mRateLimited *obs.Counter
	mDuplicates  *obs.Counter
	mBytes       *obs.Counter
}

// NewServer wires the service; Start serves it.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("fleet: server needs a store")
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = DefaultMaxBody
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	s := &Server{
		Server:  httpsrv.New("fleet"),
		cfg:     cfg,
		store:   cfg.Store,
		limiter: NewRateLimiter(cfg.Rate, cfg.Burst, cfg.Clock),
		reg:     cfg.Registry,
		started: cfg.Clock(),
		tsdb:    cfg.TSDB,
	}
	if cfg.Alerts.Clock == nil {
		cfg.Alerts.Clock = cfg.Clock
	}
	s.alerter = NewAlerter(cfg.Store, cfg.Alerts)
	s.mIngest = s.reg.Counter("predfleet_ingest_total", "Ingestion requests accepted (findings, metrics, trace).")
	s.mIngestErr = s.reg.Counter("predfleet_ingest_errors_total", "Ingestion requests rejected (bad payloads, store faults).")
	s.mRateLimited = s.reg.Counter("predfleet_rate_limited_total", "Ingestion requests shed with 429.")
	s.mDuplicates = s.reg.Counter("predfleet_duplicate_runs_total", "Replayed run IDs acknowledged idempotently.")
	s.mBytes = s.reg.Counter("predfleet_ingest_bytes_total", "Ingestion payload bytes accepted.")
	s.reg.GaugeFunc("predfleet_store_appends", "Envelopes durably appended by this process.",
		func() float64 { return float64(s.store.Appends()) })
	s.reg.GaugeFunc("predfleet_store_recovered_records", "Records recovered from segments at startup.",
		func() float64 { return float64(s.store.Recovery().Records) })
	s.reg.GaugeFunc("predfleet_store_corrupt_lines", "Corrupt segment lines skipped by the startup salvage scan.",
		func() float64 { return float64(s.store.Recovery().CorruptLines) })
	s.reg.GaugeFunc("predfleet_store_pruned_segments", "Fully-acked segments pruned by -retain-segments.",
		func() float64 { return float64(s.store.PrunedSegments()) })
	for _, rule := range []string{RuleFindingDrift, RuleSlowdownRegression, RuleAgentSilent} {
		rule := rule
		s.reg.GaugeFunc("predfleet_alerts_"+rule, "Active "+rule+" alerts across every tenant.",
			func() float64 { return float64(s.alerter.CountByRule()[rule]) })
	}
	if s.tsdb != nil {
		s.reg.GaugeFunc("predfleet_tsdb_appends", "Samples appended to the time-series rings.",
			func() float64 { return float64(s.tsdb.Appends()) })
	}

	s.Handle("/healthz", s.handleHealthz)
	s.Handle("/metrics", httpsrv.Metrics(s.reg))
	for _, typ := range []string{TypeFindings, TypeMetrics, TypeTrace, TypeSpans} {
		s.ingest(typ)
	}
	s.query("/api/v1/traces", s.handleTraces)
	s.query("/api/v1/projects", s.handleProjects)
	s.query("/api/v1/runs", s.handleRuns)
	s.query("/api/v1/findings", s.handleFindings)
	s.query("/api/v1/diff", s.handleDiff)
	s.query("/api/v1/hotlines", s.handleHotLines)
	s.query("/api/v1/series", s.handleSeries)
	s.query("/api/v1/alerts", s.handleAlerts)
	s.query("/dash", s.handleDashIndex)
	s.query("/dash/", s.handleDashProject)
	return s, nil
}

// tenantOf authenticates a request: Authorization: Bearer <token> (or the
// X-Predfleet-Token header, or ?token= for the browser-loaded dashboard
// pages, which cannot set headers) resolved through the token table.
func (s *Server) tenantOf(r *http.Request) (string, error) {
	tok := r.Header.Get("X-Predfleet-Token")
	if h := r.Header.Get("Authorization"); tok == "" && strings.HasPrefix(h, "Bearer ") {
		tok = strings.TrimPrefix(h, "Bearer ")
	}
	if tok == "" {
		tok = r.URL.Query().Get("token")
	}
	if tok == "" {
		if s.cfg.AllowAnonymous != "" {
			return s.cfg.AllowAnonymous, nil
		}
		return "", httpsrv.NewError(http.StatusUnauthorized, "missing bearer token")
	}
	tenant, ok := s.cfg.Tokens[tok]
	if !ok {
		return "", httpsrv.NewError(http.StatusUnauthorized, "unknown token")
	}
	return tenant, nil
}

// query serves a tenant-scoped read endpoint: auth, then guarded render.
func (s *Server) query(pattern string, render func(tenant string, r *http.Request, buf *bytes.Buffer) (string, error)) {
	s.Handle(pattern, func(r *http.Request, buf *bytes.Buffer) (string, error) {
		tenant, err := s.tenantOf(r)
		if err != nil {
			return "", err
		}
		return render(tenant, r, buf)
	})
}

// ingestAck is the ingestion response body.
type ingestAck struct {
	Status    string `json:"status"` // "ok" | "duplicate"
	Run       string `json:"run,omitempty"`
	Duplicate bool   `json:"duplicate,omitempty"`
	Events    uint64 `json:"events,omitempty"`  // trace: events salvaged
	Corrupt   uint64 `json:"corrupt,omitempty"` // trace: corrupt regions
}

// ingest serves one POST /api/v1/ingest/{type} endpoint: method check,
// auth, per-tenant rate limit (429 + Retry-After), body cap (413), then
// type-specific decode and durable append. Acknowledgment (2xx) is sent
// only after the store accepted the record. The handler writes its own
// status and ack, so it is served unbuffered.
func (s *Server) ingest(typ string) {
	pattern := "/api/v1/ingest/" + typ
	s.HandleRaw(pattern, pattern, func(w http.ResponseWriter, r *http.Request) {
		served := false
		defer func() {
			if !served { // a panic unwinding to the guard: count the rejection
				s.mIngestErr.Inc()
			}
		}()
		code, ack, herr := s.serveIngest(typ, r)
		served = true
		var he *httpsrv.Error
		if errors.As(herr, &he) && he.Code == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", he.Msg)
			http.Error(w, "rate limited", he.Code)
			return
		}
		if herr != nil {
			http.Error(w, herr.Error(), httpsrv.Status(herr))
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.WriteHeader(code)
		_ = json.NewEncoder(w).Encode(ack)
	})
}

// serveIngest performs one ingestion request, returning the HTTP status and
// ack body, or an error carrying the failure status.
func (s *Server) serveIngest(typ string, r *http.Request) (int, ingestAck, error) {
	if r.Method != http.MethodPost {
		return 0, ingestAck{}, httpsrv.NewError(http.StatusMethodNotAllowed, "POST only")
	}
	tenant, err := s.tenantOf(r)
	if err != nil {
		return 0, ingestAck{}, err
	}
	if ok, retry := s.limiter.Allow(tenant); !ok {
		s.mRateLimited.Inc()
		secs := int(retry / time.Second)
		if retry%time.Second != 0 {
			secs++
		}
		if secs < 1 {
			secs = 1
		}
		return 0, ingestAck{}, httpsrv.NewError(http.StatusTooManyRequests, strconv.Itoa(secs))
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.MaxBody+1))
	if err != nil {
		s.mIngestErr.Inc()
		return 0, ingestAck{}, httpsrv.NewError(http.StatusBadRequest, "reading body: "+err.Error())
	}
	if int64(len(body)) > s.cfg.MaxBody {
		s.mIngestErr.Inc()
		return 0, ingestAck{}, httpsrv.NewError(http.StatusRequestEntityTooLarge,
			fmt.Sprintf("payload exceeds %d bytes", s.cfg.MaxBody))
	}
	switch typ {
	case TypeFindings:
		var fp FindingsPayload
		if err := strictUnmarshal(body, &fp); err != nil {
			s.mIngestErr.Inc()
			return 0, ingestAck{}, httpsrv.NewError(http.StatusBadRequest, "bad findings payload: "+err.Error())
		}
		if fp.Run.Project == "" {
			fp.Run.Project = r.URL.Query().Get("project")
		}
		if fp.Run.ID == "" || fp.Run.Project == "" {
			s.mIngestErr.Inc()
			return 0, ingestAck{}, httpsrv.NewError(http.StatusBadRequest, "findings payload needs run.id and run.project")
		}
		entry, err := s.store.AppendFindings(tenant, &fp)
		switch {
		case errors.Is(err, ErrDuplicateRun):
			s.mDuplicates.Inc()
			return http.StatusOK, ingestAck{Status: "duplicate", Run: entry.Meta.ID, Duplicate: true}, nil
		case err != nil:
			s.mIngestErr.Inc()
			return 0, ingestAck{}, httpsrv.NewError(http.StatusServiceUnavailable, "store: "+err.Error())
		}
		s.mIngest.Inc()
		s.mBytes.Add(uint64(len(body)))
		return http.StatusCreated, ingestAck{Status: "ok", Run: entry.Meta.ID}, nil
	case TypeMetrics:
		var mp MetricsPayload
		if err := strictUnmarshal(body, &mp); err != nil {
			s.mIngestErr.Inc()
			return 0, ingestAck{}, httpsrv.NewError(http.StatusBadRequest, "bad metrics payload: "+err.Error())
		}
		if mp.Project == "" {
			mp.Project = r.URL.Query().Get("project")
		}
		if mp.Project == "" {
			s.mIngestErr.Inc()
			return 0, ingestAck{}, httpsrv.NewError(http.StatusBadRequest, "metrics payload needs a project")
		}
		if err := s.store.AppendMetrics(tenant, &mp); err != nil {
			s.mIngestErr.Inc()
			return 0, ingestAck{}, httpsrv.NewError(http.StatusServiceUnavailable, "store: "+err.Error())
		}
		s.mIngest.Inc()
		s.mBytes.Add(uint64(len(body)))
		return http.StatusOK, ingestAck{Status: "ok"}, nil
	case TypeTrace:
		q := r.URL.Query()
		meta := TraceMeta{
			Project: q.Get("project"),
			Run:     q.Get("run"),
			Agent:   q.Get("agent"),
			Bytes:   int64(len(body)),
		}
		if meta.Project == "" {
			s.mIngestErr.Inc()
			return 0, ingestAck{}, httpsrv.NewError(http.StatusBadRequest, "trace ingestion needs ?project=")
		}
		// The segment is untrusted: run the trace salvage reader over it at
		// the door, so the stored accounting reflects what is actually
		// decodable and a garbage upload is visible immediately.
		if rd, err := trace.NewSalvageReader(bytes.NewReader(body)); err == nil {
			for {
				if _, err := rd.Next(); err != nil {
					break
				}
			}
			st := rd.Stats()
			meta.Events = st.Events
			meta.CorruptRegions = st.CorruptRegions
			meta.TruncatedTail = st.TruncatedTail
		}
		if err := s.store.AppendTrace(tenant, &TracePayload{Meta: meta, Data: body}); err != nil {
			s.mIngestErr.Inc()
			return 0, ingestAck{}, httpsrv.NewError(http.StatusServiceUnavailable, "store: "+err.Error())
		}
		s.mIngest.Inc()
		s.mBytes.Add(uint64(len(body)))
		return http.StatusOK, ingestAck{Status: "ok", Run: meta.Run, Events: meta.Events, Corrupt: meta.CorruptRegions}, nil
	case TypeSpans:
		var sp SpansPayload
		if err := strictUnmarshal(body, &sp); err != nil {
			s.mIngestErr.Inc()
			return 0, ingestAck{}, httpsrv.NewError(http.StatusBadRequest, "bad spans payload: "+err.Error())
		}
		if sp.Project == "" {
			sp.Project = r.URL.Query().Get("project")
		}
		if sp.Project == "" {
			s.mIngestErr.Inc()
			return 0, ingestAck{}, httpsrv.NewError(http.StatusBadRequest, "spans payload needs a project")
		}
		if err := sp.Validate(); err != nil {
			s.mIngestErr.Inc()
			return 0, ingestAck{}, httpsrv.NewError(http.StatusBadRequest, err.Error())
		}
		if err := s.store.AppendSpans(tenant, &sp); err != nil {
			s.mIngestErr.Inc()
			return 0, ingestAck{}, httpsrv.NewError(http.StatusServiceUnavailable, "store: "+err.Error())
		}
		s.mIngest.Inc()
		s.mBytes.Add(uint64(len(body)))
		return http.StatusOK, ingestAck{Status: "ok", Run: sp.Run}, nil
	default:
		return 0, ingestAck{}, httpsrv.NewError(http.StatusNotFound, "unknown ingest type")
	}
}

// strictUnmarshal decodes JSON rejecting trailing garbage (a truncated or
// concatenated body must not half-parse into an empty payload).
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON value")
	}
	return nil
}

// Health is the /healthz response schema.
type Health struct {
	httpsrv.Health
	Recovery    RecoveryStats `json:"recovery"`
	Appends     uint64        `json:"appends"`
	RateDenied  uint64        `json:"rate_denied"`
	Quarantined []string      `json:"quarantined,omitempty"`
}

func (s *Server) handleHealthz(_ *http.Request, buf *bytes.Buffer) (string, error) {
	return httpsrv.JSON(buf, Health{
		Health:      httpsrv.NewHealth("predfleet", s.cfg.Build, s.cfg.Clock().Sub(s.started)),
		Recovery:    s.store.Recovery(),
		Appends:     s.store.Appends(),
		RateDenied:  s.limiter.Denied(),
		Quarantined: s.Quarantined(),
	})
}

// ProjectsResponse is the /api/v1/projects schema.
type ProjectsResponse struct {
	Tenant   string        `json:"tenant"`
	Count    int           `json:"count"`
	Projects []ProjectInfo `json:"projects"`
}

func (s *Server) handleProjects(tenant string, _ *http.Request, buf *bytes.Buffer) (string, error) {
	projects := s.store.Projects(tenant)
	if projects == nil {
		projects = []ProjectInfo{}
	}
	return httpsrv.JSON(buf, ProjectsResponse{Tenant: tenant, Count: len(projects), Projects: projects})
}

// RunsResponse is the /api/v1/runs schema.
type RunsResponse struct {
	Tenant  string    `json:"tenant"`
	Project string    `json:"project"`
	Count   int       `json:"count"`
	Runs    []RunInfo `json:"runs"`
}

func (s *Server) handleRuns(tenant string, r *http.Request, buf *bytes.Buffer) (string, error) {
	q := r.URL.Query()
	project := q.Get("project")
	if project == "" {
		return "", httpsrv.NewError(http.StatusBadRequest, "missing ?project=")
	}
	n, err := httpsrv.IntParam(r, "n", 0)
	if err != nil {
		return "", err
	}
	runs := s.store.Runs(tenant, project, n)
	if runs == nil {
		runs = []RunInfo{}
	}
	return httpsrv.JSON(buf, RunsResponse{Tenant: tenant, Project: project, Count: len(runs), Runs: runs})
}

// FindingsResponse is the /api/v1/findings schema.
type FindingsResponse struct {
	Tenant   string           `json:"tenant"`
	Project  string           `json:"project"`
	SinceMs  int64            `json:"since_unix_ms,omitempty"`
	Count    int              `json:"count"`
	Findings []ProjectFinding `json:"findings"`
}

func (s *Server) handleFindings(tenant string, r *http.Request, buf *bytes.Buffer) (string, error) {
	q := r.URL.Query()
	project := q.Get("project")
	if project == "" {
		return "", httpsrv.NewError(http.StatusBadRequest, "missing ?project=")
	}
	var since int64
	if raw := q.Get("since"); raw != "" {
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			return "", httpsrv.NewError(http.StatusBadRequest, "invalid since (want unix ms): "+raw)
		}
		since = v
	}
	fs := s.store.Findings(tenant, project, since)
	if fs == nil {
		fs = []ProjectFinding{}
	}
	return httpsrv.JSON(buf, FindingsResponse{
		Tenant: tenant, Project: project, SinceMs: since, Count: len(fs), Findings: fs,
	})
}

func (s *Server) handleDiff(tenant string, r *http.Request, buf *bytes.Buffer) (string, error) {
	q := r.URL.Query()
	project, baseID, headID := q.Get("project"), q.Get("base"), q.Get("head")
	if project == "" || baseID == "" || headID == "" {
		return "", httpsrv.NewError(http.StatusBadRequest, "need ?project=&base=&head= (run IDs from /api/v1/runs)")
	}
	tol := 0.0
	if raw := q.Get("tolerance"); raw != "" {
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil || v < 0 {
			return "", httpsrv.NewError(http.StatusBadRequest, "invalid tolerance: "+raw)
		}
		tol = v
	}
	base, err := s.store.Run(tenant, project, baseID)
	if err != nil {
		return "", httpsrv.NewError(http.StatusNotFound, "base run "+baseID+" not found")
	}
	head, err := s.store.Run(tenant, project, headID)
	if err != nil {
		return "", httpsrv.NewError(http.StatusNotFound, "head run "+headID+" not found")
	}
	delta, err := DiffRuns(project, base, head, tol)
	if err != nil {
		return "", err
	}
	if delta.New == nil {
		delta.New = []FindingRef{}
	}
	if delta.Resolved == nil {
		delta.Resolved = []FindingRef{}
	}
	return httpsrv.JSON(buf, delta)
}

// HotLinesResponse is the /api/v1/hotlines schema: the fleet-wide hottest
// lines aggregated across every agent's latest metrics snapshot, tagged
// with their origin. Field names line up with the per-process diagnostics
// server so predtop's shared topview client renders both.
type HotLinesResponse struct {
	Tool      string        `json:"tool"`
	UnixMilli int64         `json:"unix_ms"`
	Requested int           `json:"requested"`
	Count     int           `json:"count"`
	Agents    int           `json:"agents"`
	Stats     StatsSnapshot `json:"stats"`
	Lines     []HotLine     `json:"lines"`
	// Alerts are the tenant's active anomalies pre-rendered one per line
	// (severity-first) — predtop's ALERT row.
	Alerts []string `json:"alerts,omitempty"`
}

// DefaultHotLines is how many lines /api/v1/hotlines returns without ?n=.
const DefaultHotLines = 10

func (s *Server) handleHotLines(tenant string, r *http.Request, buf *bytes.Buffer) (string, error) {
	q := r.URL.Query()
	n, err := httpsrv.IntParam(r, "n", DefaultHotLines)
	if err != nil {
		return "", err
	}
	// Agents whose metrics stream went silent past the TTL stop
	// contributing: a dead agent's last snapshot must not pin its lines into
	// the fleet view forever.
	snaps := s.store.FreshAgentMetrics(tenant, q.Get("project"), s.cfg.Clock(), s.alerter.AgentTTL())
	resp := HotLinesResponse{
		Tool:      "predfleet",
		UnixMilli: s.cfg.Clock().UnixMilli(),
		Requested: n,
		Agents:    len(snaps),
		Lines:     []HotLine{},
	}
	for _, al := range s.alerter.Alerts(tenant, q.Get("project")) {
		resp.Alerts = append(resp.Alerts, al.String())
	}
	for _, mp := range snaps {
		resp.Stats.Accesses += mp.Stats.Accesses
		resp.Stats.Writes += mp.Stats.Writes
		resp.Stats.TrackedLines += mp.Stats.TrackedLines
		resp.Stats.VirtualLines += mp.Stats.VirtualLines
		resp.Stats.Invalidations += mp.Stats.Invalidations
		resp.Stats.DegradedLines += mp.Stats.DegradedLines
		resp.Stats.Degraded = resp.Stats.Degraded || mp.Stats.Degraded
		resp.Stats.Elided += mp.Stats.Elided
		traceID := ""
		if mp.Run != "" {
			traceID = s.store.TraceIDForRun(tenant, mp.Project, mp.Run)
		}
		for _, ln := range mp.HotLines {
			ln.Project = mp.Project
			ln.Agent = mp.Agent
			ln.Trace = traceID
			resp.Lines = append(resp.Lines, ln)
		}
	}
	sort.Slice(resp.Lines, func(i, j int) bool {
		if resp.Lines[i].Invalidations != resp.Lines[j].Invalidations {
			return resp.Lines[i].Invalidations > resp.Lines[j].Invalidations
		}
		if resp.Lines[i].Agent != resp.Lines[j].Agent {
			return resp.Lines[i].Agent < resp.Lines[j].Agent
		}
		return resp.Lines[i].Addr < resp.Lines[j].Addr
	})
	if n > 0 && len(resp.Lines) > n {
		resp.Lines = resp.Lines[:n]
	}
	resp.Count = len(resp.Lines)
	return httpsrv.JSON(buf, resp)
}

// SeriesResponse is the /api/v1/series schema. Without ?name= it lists the
// project's series names; with one it returns that series' buckets at the
// requested resolution (raw | 1m | 1h).
type SeriesResponse struct {
	Tenant     string        `json:"tenant"`
	Project    string        `json:"project"`
	Series     string        `json:"series,omitempty"`
	Resolution string        `json:"resolution,omitempty"`
	SinceMs    int64         `json:"since_unix_ms,omitempty"`
	Names      []string      `json:"names,omitempty"`
	Count      int           `json:"count"`
	Points     []tsdb.Bucket `json:"points,omitempty"`
}

func (s *Server) handleSeries(tenant string, r *http.Request, buf *bytes.Buffer) (string, error) {
	if s.tsdb == nil {
		return "", httpsrv.NewError(http.StatusServiceUnavailable, "time-series engine disabled")
	}
	q := r.URL.Query()
	project := q.Get("project")
	if project == "" {
		return "", httpsrv.NewError(http.StatusBadRequest, "missing ?project=")
	}
	scope := ScopeKey(tenant, project)
	name := q.Get("name")
	if name == "" {
		names := s.tsdb.Series(scope)
		if names == nil {
			names = []string{}
		}
		return httpsrv.JSON(buf, SeriesResponse{
			Tenant: tenant, Project: project, Names: names, Count: len(names),
		})
	}
	res := q.Get("res")
	if res == "" {
		res = tsdb.ResRaw
	}
	switch res {
	case tsdb.ResRaw, tsdb.Res1m, tsdb.Res1h:
	default:
		return "", httpsrv.NewError(http.StatusBadRequest, "invalid res (want raw|1m|1h): "+res)
	}
	var since int64
	if raw := q.Get("since"); raw != "" {
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			return "", httpsrv.NewError(http.StatusBadRequest, "invalid since (want unix ms): "+raw)
		}
		since = v
	}
	points := s.tsdb.Query(scope, name, res, since)
	if points == nil {
		points = []tsdb.Bucket{}
	}
	return httpsrv.JSON(buf, SeriesResponse{
		Tenant: tenant, Project: project, Series: name, Resolution: res,
		SinceMs: since, Count: len(points), Points: points,
	})
}

// TracesResponse is the /api/v1/traces schema. Without ?id= it lists the
// project's ingested span snapshots; with one (a trace ID or a run ID) it
// returns that trace's full span set for the waterfall view.
type TracesResponse struct {
	Tenant  string        `json:"tenant"`
	Project string        `json:"project"`
	Count   int           `json:"count"`
	Traces  []TraceInfo   `json:"traces,omitempty"`
	Trace   *SpansPayload `json:"trace,omitempty"`
}

func (s *Server) handleTraces(tenant string, r *http.Request, buf *bytes.Buffer) (string, error) {
	q := r.URL.Query()
	project := q.Get("project")
	if project == "" {
		return "", httpsrv.NewError(http.StatusBadRequest, "missing ?project=")
	}
	if id := q.Get("id"); id != "" {
		sp, err := s.store.TraceSpans(tenant, project, id)
		if err != nil {
			return "", httpsrv.NewError(http.StatusNotFound, "trace "+id+" not found")
		}
		return httpsrv.JSON(buf, TracesResponse{
			Tenant: tenant, Project: project, Count: len(sp.Spans), Trace: sp,
		})
	}
	n, err := httpsrv.IntParam(r, "n", 0)
	if err != nil {
		return "", err
	}
	traces := s.store.Traces(tenant, project, n)
	if traces == nil {
		traces = []TraceInfo{}
	}
	return httpsrv.JSON(buf, TracesResponse{
		Tenant: tenant, Project: project, Count: len(traces), Traces: traces,
	})
}

// AlertsResponse is the /api/v1/alerts schema.
type AlertsResponse struct {
	Tenant  string  `json:"tenant"`
	Project string  `json:"project,omitempty"`
	Count   int     `json:"count"`
	Alerts  []Alert `json:"alerts"`
}

func (s *Server) handleAlerts(tenant string, r *http.Request, buf *bytes.Buffer) (string, error) {
	project := r.URL.Query().Get("project")
	alerts := s.alerter.Alerts(tenant, project)
	if alerts == nil {
		alerts = []Alert{}
	}
	return httpsrv.JSON(buf, AlertsResponse{
		Tenant: tenant, Project: project, Count: len(alerts), Alerts: alerts,
	})
}
