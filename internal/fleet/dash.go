package fleet

import (
	"bytes"
	"fmt"
	"html"
	"math"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"

	"predator/internal/fleet/tsdb"
	"predator/internal/httpsrv"
	"predator/internal/obs/spans"
)

// The embedded dashboard: server-rendered HTML with inline SVG sparklines,
// zero external assets (no JavaScript, no CDN, nothing to fetch) so it works
// inside air-gapped CI networks and curl | browser alike. /dash lists the
// tenant's projects; /dash/{project} renders run history, series sparklines,
// active alerts, and the hottest-lines heatmap.

// dashSeries is the fixed card layout of a project page: which series to
// sparkline, in which order, with human titles.
var dashSeries = []struct{ name, title string }{
	{SeriesFindings, "findings per run"},
	{SeriesFalseSharing, "false sharing per run"},
	{SeriesSlowdown, "bench slowdown ratio"},
	{SeriesInvalRate, "invalidations/sec"},
	{SeriesAccessRate, "accesses/sec"},
	{SeriesElideRate, "elided accesses/sec"},
	{SeriesTrackedLines, "tracked lines"},
	{SeriesDegradedLines, "degraded lines"},
}

// dashHeatmapRuns / dashHeatmapRows bound the hottest-lines heatmap.
const (
	dashHeatmapRuns = 12
	dashHeatmapRows = 10
)

// dashStyle is the whole stylesheet, inlined into every page.
const dashStyle = `
body { font: 14px/1.5 monospace; background: #0e1116; color: #d7dde4; margin: 2em; }
a { color: #6cb6ff; text-decoration: none; }
h1, h2 { font-weight: normal; color: #fff; }
table { border-collapse: collapse; margin: 1em 0; }
th, td { padding: 2px 10px; border-bottom: 1px solid #2a3038; text-align: left; }
th { color: #8b949e; }
.cards { display: flex; flex-wrap: wrap; gap: 12px; }
.card { border: 1px solid #2a3038; border-radius: 6px; padding: 8px 12px; }
.card .t { color: #8b949e; }
.card .v { font-size: 18px; color: #fff; }
.alert { padding: 3px 8px; margin: 2px 0; border-left: 4px solid; }
.alert.crit { border-color: #f85149; background: #30171a; }
.alert.warn { border-color: #d29922; background: #2d2410; }
.ok { color: #3fb950; }
.heat td.c { text-align: center; min-width: 2.2em; color: #0e1116; }
.muted { color: #8b949e; }
`

// handleDashIndex renders /dash: one row per project with its vitals and an
// active-alert count, linking into the per-project page.
func (s *Server) handleDashIndex(tenant string, r *http.Request, buf *bytes.Buffer) (string, error) {
	if r.URL.Path != "/dash" {
		return "", httpsrv.NewError(http.StatusNotFound, "not found (project pages live at /dash/{project})")
	}
	tok := r.URL.Query().Get("token")
	dashHead(buf, "predfleet — "+tenant)
	fmt.Fprintf(buf, "<h1>predfleet fleet dashboard <span class=muted>tenant %s</span></h1>\n", html.EscapeString(tenant))
	projects := s.store.Projects(tenant)
	if len(projects) == 0 {
		fmt.Fprintln(buf, "<p class=muted>no projects ingested yet</p></body></html>")
		return "text/html; charset=utf-8", nil
	}
	fmt.Fprintln(buf, "<table><tr><th>project</th><th>runs</th><th>findings</th><th>agents</th><th>alerts</th><th>last ingest</th></tr>")
	for _, p := range projects {
		alerts := s.alerter.Alerts(tenant, p.Project)
		cell := "<span class=ok>0</span>"
		if n := len(alerts); n > 0 {
			cls := "warn"
			for _, a := range alerts {
				if a.Severity == SeverityCrit {
					cls = "crit"
					break
				}
			}
			cell = fmt.Sprintf("<span class=\"alert %s\">%d</span>", cls, n)
		}
		fmt.Fprintf(buf, "<tr><td><a href=\"%s\">%s</a></td><td>%d</td><td>%d</td><td>%d</td><td>%s</td><td>%s</td></tr>\n",
			dashLink("/dash/"+url.PathEscape(p.Project), tok), html.EscapeString(p.Project),
			p.Runs, p.Findings, p.Agents, cell, dashTime(p.LastUnixMs))
	}
	fmt.Fprintln(buf, "</table></body></html>")
	return "text/html; charset=utf-8", nil
}

// handleDashProject renders /dash/{project}: alerts, series sparklines, run
// history, and the hottest-lines heatmap. Trace waterfalls live one level
// down at /dash/{project}/trace/{id} ({id} a trace ID or run ID).
func (s *Server) handleDashProject(tenant string, r *http.Request, buf *bytes.Buffer) (string, error) {
	raw := strings.TrimPrefix(r.URL.Path, "/dash/")
	if parts := strings.Split(raw, "/"); len(parts) == 3 && parts[1] == "trace" {
		project, perr := url.PathUnescape(parts[0])
		id, ierr := url.PathUnescape(parts[2])
		if perr != nil || ierr != nil || project == "" || id == "" {
			return "", httpsrv.NewError(http.StatusNotFound, "unknown dashboard page")
		}
		return s.dashTrace(tenant, project, id, r.URL.Query().Get("token"), buf)
	}
	project, err := url.PathUnescape(raw)
	if err != nil || project == "" || strings.Contains(project, "/") {
		return "", httpsrv.NewError(http.StatusNotFound, "unknown dashboard page")
	}
	runs := s.store.RunHistory(tenant, project)
	if runs == nil && s.store.AgentMetrics(tenant, project) == nil {
		return "", httpsrv.NewError(http.StatusNotFound, "project "+project+" has no ingested data")
	}
	tok := r.URL.Query().Get("token")
	scope := ScopeKey(tenant, project)

	dashHead(buf, "predfleet — "+project)
	fmt.Fprintf(buf, "<h1><a href=\"%s\">predfleet</a> / %s</h1>\n",
		dashLink("/dash", tok), html.EscapeString(project))

	// Active alerts, severity-first (the same order the API serves).
	alerts := s.alerter.Alerts(tenant, project)
	fmt.Fprintln(buf, "<h2>alerts</h2>")
	if len(alerts) == 0 {
		fmt.Fprintln(buf, "<p class=ok>no active alerts</p>")
	}
	for _, a := range alerts {
		fmt.Fprintf(buf, "<div class=\"alert %s\">[%s] %s — %s</div>\n",
			a.Severity, a.Severity, a.Rule, html.EscapeString(a.Message))
	}

	// Series sparkline cards.
	if s.tsdb != nil {
		fmt.Fprintln(buf, "<h2>series</h2><div class=cards>")
		for _, sp := range dashSeries {
			points := s.tsdb.Query(scope, sp.name, tsdb.ResRaw, 0)
			if len(points) == 0 {
				continue
			}
			last := points[len(points)-1]
			fmt.Fprintf(buf, "<div class=card><div class=t>%s</div><div class=v>%s</div>%s</div>\n",
				html.EscapeString(sp.title), dashNum(last.Mean()), svgSparkline(points, 220, 44))
		}
		fmt.Fprintln(buf, "</div>")
	}

	// Run history, newest last so the sparkline reading order matches.
	if len(runs) > 0 {
		fmt.Fprintln(buf, "<h2>run history</h2>")
		fmt.Fprintln(buf, "<table><tr><th>run</th><th>tool</th><th>workload</th><th>findings</th><th>false sharing</th><th>slowdown</th><th>ingested</th></tr>")
		for _, e := range runs {
			sd := "-"
			if v, ok := BenchSlowdown(e.Bench); ok {
				sd = fmt.Sprintf("%.2fx", v)
			}
			fmt.Fprintf(buf, "<tr><td>%s</td><td>%s</td><td>%s</td><td>%d</td><td>%d</td><td>%s</td><td>%s</td></tr>\n",
				html.EscapeString(e.Meta.ID), html.EscapeString(e.Meta.Tool), html.EscapeString(e.Meta.Workload),
				e.Counts.Findings, e.Counts.FalseSharing, sd, dashTime(e.IngestMs))
		}
		fmt.Fprintln(buf, "</table>")
		dashHeatmap(buf, runs)
	}

	// Span traces: one row per ingested snapshot, linking to the waterfall.
	if traces := s.store.Traces(tenant, project, dashHeatmapRuns); len(traces) > 0 {
		fmt.Fprintln(buf, "<h2>traces</h2>")
		fmt.Fprintln(buf, "<table><tr><th>trace</th><th>run</th><th>agent</th><th>tool</th><th>root</th><th>spans</th><th>duration</th></tr>")
		for _, ti := range traces {
			fmt.Fprintf(buf, "<tr><td><a href=\"%s\">%s</a></td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%d</td><td>%s</td></tr>\n",
				dashLink("/dash/"+url.PathEscape(project)+"/trace/"+url.PathEscape(ti.TraceID), tok),
				html.EscapeString(ti.TraceID), html.EscapeString(ti.Run),
				html.EscapeString(ti.Agent), html.EscapeString(ti.Tool),
				html.EscapeString(ti.Root), ti.Spans, dashDuration(ti.DurationNs))
		}
		fmt.Fprintln(buf, "</table>")
	}
	fmt.Fprintln(buf, "</body></html>")
	return "text/html; charset=utf-8", nil
}

// Waterfall layout constants: row height and label gutter in SVG units.
const (
	wfRowH   = 22
	wfGutter = 260
	wfWidth  = 900
	wfMax    = 200 // rows rendered before the view truncates
)

// wfPalette colors waterfall bars by phase family (the prefix before the
// first dot), so every predict.search bar reads the same at a glance.
var wfPalette = map[string]string{
	"harness": "#2b6cb0",
	"eval":    "#6cb6ff",
	"elide":   "#8957e5",
	"sched":   "#8b949e",
	"predict": "#d29922",
	"report":  "#3fb950",
	"replay":  "#f0883e",
}

// dashTrace renders /dash/{project}/trace/{id}: the span waterfall — one bar
// per span positioned on the run's monotonic timeline, nested depth-first
// with children indented under parents in logical-clock order, and each
// span's attribute counters (the overhead attribution) in the label column.
func (s *Server) dashTrace(tenant, project, id, tok string, buf *bytes.Buffer) (string, error) {
	sp, err := s.store.TraceSpans(tenant, project, id)
	if err != nil {
		return "", httpsrv.NewError(http.StatusNotFound, "trace "+id+" not found in project "+project)
	}
	dashHead(buf, "predfleet — trace "+sp.TraceID)
	fmt.Fprintf(buf, "<h1><a href=\"%s\">predfleet</a> / <a href=\"%s\">%s</a> / trace</h1>\n",
		dashLink("/dash", tok), dashLink("/dash/"+url.PathEscape(project), tok), html.EscapeString(project))
	fmt.Fprintf(buf, "<div class=cards><div class=card><div class=t>trace</div><div class=v>%s</div></div>"+
		"<div class=card><div class=t>run</div><div class=v>%s</div></div>"+
		"<div class=card><div class=t>agent</div><div class=v>%s</div></div>"+
		"<div class=card><div class=t>spans</div><div class=v>%d</div></div></div>\n",
		html.EscapeString(sp.TraceID), html.EscapeString(sp.Run),
		html.EscapeString(sp.Agent), len(sp.Spans))
	wfRender(buf, sp.Spans)
	fmt.Fprintln(buf, "</body></html>")
	return "text/html; charset=utf-8", nil
}

// wfRow is one laid-out waterfall row.
type wfRow struct {
	d     *spans.Data
	depth int
}

// wfRender lays out and draws the waterfall SVG.
func wfRender(buf *bytes.Buffer, data []spans.Data) {
	if len(data) == 0 {
		fmt.Fprintln(buf, "<p class=muted>trace has no spans</p>")
		return
	}
	// Build the tree: children grouped by parent, ordered by start tick (the
	// wire order already is, but re-sorting keeps damaged uploads renderable).
	children := map[string][]*spans.Data{}
	byID := map[string]bool{}
	for i := range data {
		byID[data[i].SpanID] = true
	}
	var roots []*spans.Data
	for i := range data {
		d := &data[i]
		if d.Parent != "" && byID[d.Parent] {
			children[d.Parent] = append(children[d.Parent], d)
		} else {
			roots = append(roots, d)
		}
	}
	less := func(a, b *spans.Data) bool {
		if a.StartTick != b.StartTick {
			return a.StartTick < b.StartTick
		}
		return a.SpanID < b.SpanID
	}
	sort.Slice(roots, func(i, j int) bool { return less(roots[i], roots[j]) })
	for _, kids := range children {
		sort.Slice(kids, func(i, j int) bool { return less(kids[i], kids[j]) })
	}
	var rows []wfRow
	var walk func(d *spans.Data, depth int)
	walk = func(d *spans.Data, depth int) {
		rows = append(rows, wfRow{d: d, depth: depth})
		for _, c := range children[d.SpanID] {
			walk(c, depth+1)
		}
	}
	for _, rt := range roots {
		walk(rt, 0)
	}
	truncated := 0
	if len(rows) > wfMax {
		truncated = len(rows) - wfMax
		rows = rows[:wfMax]
	}
	// Timeline bounds over the rendered rows.
	t0, t1 := rows[0].d.StartMonoNano, rows[0].d.EndMonoNano
	for _, rw := range rows {
		if rw.d.StartMonoNano < t0 {
			t0 = rw.d.StartMonoNano
		}
		if rw.d.EndMonoNano > t1 {
			t1 = rw.d.EndMonoNano
		}
	}
	span := float64(t1 - t0)
	if span <= 0 {
		span = 1
	}
	laneW := float64(wfWidth - wfGutter)
	x := func(ns int64) float64 { return float64(wfGutter) + float64(ns-t0)/span*laneW }
	h := len(rows)*wfRowH + 8
	fmt.Fprintln(buf, "<h2>waterfall</h2>")
	fmt.Fprintf(buf, `<svg width="%d" height="%d" viewBox="0 0 %d %d" xmlns="http://www.w3.org/2000/svg" font-family="monospace" font-size="12">`+"\n",
		wfWidth, h, wfWidth, h)
	for i, rw := range rows {
		d := rw.d
		y := float64(i*wfRowH + 4)
		color, ok := wfPalette[wfFamily(d.Name)]
		if !ok {
			color = "#6e7681"
		}
		bx0, bx1 := x(d.StartMonoNano), x(d.EndMonoNano)
		if bx1-bx0 < 2 {
			bx1 = bx0 + 2 // a zero-width bar still has to be visible
		}
		fmt.Fprintf(buf, `<rect x="%.1f" y="%.1f" width="%.1f" height="%d" rx="2" fill="%s"><title>%s</title></rect>`+"\n",
			bx0, y, bx1-bx0, wfRowH-8, color, html.EscapeString(wfTitle(d)))
		label := strings.Repeat(" ", rw.depth*2) + d.Name
		fmt.Fprintf(buf, `<text x="4" y="%.1f" fill="#d7dde4">%s</text>`+"\n",
			y+float64(wfRowH)/2, html.EscapeString(label))
		fmt.Fprintf(buf, `<text x="%.1f" y="%.1f" fill="#8b949e">%s</text>`+"\n",
			bx1+4, y+float64(wfRowH)/2, html.EscapeString(dashDuration(d.Duration().Nanoseconds())))
	}
	fmt.Fprintln(buf, "</svg>")
	if truncated > 0 {
		fmt.Fprintf(buf, "<p class=muted>%d more spans not shown</p>\n", truncated)
	}
	// Attribute table: the per-span overhead attribution counters.
	fmt.Fprintln(buf, "<h2>span attributes</h2>")
	fmt.Fprintln(buf, "<table><tr><th>span</th><th>labels</th><th>counters</th><th>duration</th></tr>")
	for _, rw := range rows {
		d := rw.d
		fmt.Fprintf(buf, "<tr><td>%s%s</td><td>%s</td><td>%s</td><td>%s</td></tr>\n",
			strings.Repeat(" ", rw.depth*2), html.EscapeString(d.Name),
			html.EscapeString(wfKVString(d.Labels)), html.EscapeString(wfCounterString(d.Attrs)),
			dashDuration(d.Duration().Nanoseconds()))
	}
	fmt.Fprintln(buf, "</table>")
}

// wfFamily extracts the span name's phase family ("predict.search" → "predict").
func wfFamily(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// wfTitle renders a bar's hover tooltip.
func wfTitle(d *spans.Data) string {
	parts := []string{d.Name, dashDuration(d.Duration().Nanoseconds())}
	if s := wfKVString(d.Labels); s != "" {
		parts = append(parts, s)
	}
	if s := wfCounterString(d.Attrs); s != "" {
		parts = append(parts, s)
	}
	return strings.Join(parts, " | ")
}

// wfKVString renders string labels "k=v" sorted by key.
func wfKVString(m map[string]string) string {
	if len(m) == 0 {
		return ""
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, k+"="+m[k])
	}
	return strings.Join(parts, " ")
}

// wfCounterString renders counter attrs "k=v" sorted by key.
func wfCounterString(m map[string]uint64) string {
	if len(m) == 0 {
		return ""
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, m[k]))
	}
	return strings.Join(parts, " ")
}

// dashDuration renders nanoseconds human-readably.
func dashDuration(ns int64) string {
	if ns <= 0 {
		return "-"
	}
	return time.Duration(ns).Round(time.Microsecond).String()
}

// dashHeatmap renders the hottest-lines table: rows are finding keys, one
// column per recent run, cell shade scaled by that run's invalidation count
// for the key — the at-a-glance "which line is hot, and since when" view.
func dashHeatmap(buf *bytes.Buffer, runs []*RunEntry) {
	if len(runs) > dashHeatmapRuns {
		runs = runs[len(runs)-dashHeatmapRuns:]
	}
	// Collect invalidations per (finding key, run column).
	type row struct {
		key   string
		total uint64
		cells []uint64
	}
	byKey := map[string]*row{}
	var max uint64
	for col, e := range runs {
		for workload, rep := range e.Reports {
			for i := range rep.Findings {
				f := &rep.Findings[i]
				k := FindingKey(workload, f)
				rw := byKey[k]
				if rw == nil {
					rw = &row{key: k, cells: make([]uint64, len(runs))}
					byKey[k] = rw
				}
				if f.Invalidations > rw.cells[col] {
					rw.cells[col] = f.Invalidations
				}
				rw.total += f.Invalidations
				if f.Invalidations > max {
					max = f.Invalidations
				}
			}
		}
	}
	if len(byKey) == 0 {
		return
	}
	rows := make([]*row, 0, len(byKey))
	for _, rw := range byKey {
		rows = append(rows, rw)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].total != rows[j].total {
			return rows[i].total > rows[j].total
		}
		return rows[i].key < rows[j].key
	})
	if len(rows) > dashHeatmapRows {
		rows = rows[:dashHeatmapRows]
	}
	fmt.Fprintln(buf, "<h2>hottest lines over run history</h2>")
	fmt.Fprintln(buf, "<table class=heat><tr><th>finding</th>")
	for _, e := range runs {
		fmt.Fprintf(buf, "<th>%s</th>", html.EscapeString(e.Meta.ID))
	}
	fmt.Fprintln(buf, "</tr>")
	for _, rw := range rows {
		fmt.Fprintf(buf, "<tr><td>%s</td>", html.EscapeString(rw.key))
		for _, v := range rw.cells {
			if v == 0 {
				fmt.Fprint(buf, "<td class=c>·</td>")
				continue
			}
			fmt.Fprintf(buf, "<td class=c style=\"background:%s\">%s</td>", heatColor(v, max), dashCount(v))
		}
		fmt.Fprintln(buf, "</tr>")
	}
	fmt.Fprintln(buf, "</table>")
}

// heatColor maps an invalidation count onto a cold-to-hot ramp, log-scaled
// so a 10x hotter line reads one step hotter, not off the chart.
func heatColor(v, max uint64) string {
	frac := 1.0
	if max > 1 {
		frac = math.Log1p(float64(v)) / math.Log1p(float64(max))
	}
	// Ramp #2b6cb0 (cool blue) → #f85149 (hot red).
	lerp := func(a, b int) int { return a + int(frac*float64(b-a)) }
	return fmt.Sprintf("#%02x%02x%02x", lerp(0x2b, 0xf8), lerp(0x6c, 0x51), lerp(0xb0, 0x49))
}

// svgSparkline renders one series as an inline SVG polyline, scaled to fit,
// with a dot on the newest point. Single-point series render the dot alone.
func svgSparkline(points []tsdb.Bucket, w, h int) string {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, b := range points {
		v := b.Mean()
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	span := hi - lo
	if span == 0 {
		span = 1 // flat series draws a midline
	}
	pad := 3.0
	x := func(i int) float64 {
		if len(points) == 1 {
			return float64(w) - pad
		}
		return pad + float64(i)/float64(len(points)-1)*(float64(w)-2*pad)
	}
	y := func(v float64) float64 {
		return float64(h) - pad - (v-lo)/span*(float64(h)-2*pad)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg class=spark width="%d" height="%d" viewBox="0 0 %d %d" xmlns="http://www.w3.org/2000/svg">`, w, h, w, h)
	if len(points) > 1 {
		sb.WriteString(`<polyline fill="none" stroke="#6cb6ff" stroke-width="1.5" points="`)
		for i, b := range points {
			if i > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%.1f,%.1f", x(i), y(b.Mean()))
		}
		sb.WriteString(`"/>`)
	}
	lastV := points[len(points)-1].Mean()
	fmt.Fprintf(&sb, `<circle cx="%.1f" cy="%.1f" r="2.5" fill="#f0883e"/>`, x(len(points)-1), y(lastV))
	sb.WriteString(`</svg>`)
	return sb.String()
}

// dashHead opens an HTML document with the inline stylesheet.
func dashHead(buf *bytes.Buffer, title string) {
	fmt.Fprintf(buf, "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>%s</title><style>%s</style></head><body>\n",
		html.EscapeString(title), dashStyle)
}

// dashLink appends the browser's ?token= so navigation stays authenticated.
func dashLink(path, token string) string {
	if token == "" {
		return path
	}
	return path + "?token=" + url.QueryEscape(token)
}

// dashTime renders a unix-ms stamp, "-" when absent.
func dashTime(ms int64) string {
	if ms == 0 {
		return "-"
	}
	return time.UnixMilli(ms).UTC().Format("2006-01-02 15:04:05")
}

// dashNum renders a float trimmed of noise digits.
func dashNum(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e12 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.2f", v)
}

// dashCount compresses a counter for a heatmap cell (1.2k, 3.4M).
func dashCount(v uint64) string {
	switch {
	case v >= 1_000_000:
		return fmt.Sprintf("%.1fM", float64(v)/1e6)
	case v >= 1_000:
		return fmt.Sprintf("%.1fk", float64(v)/1e3)
	default:
		return fmt.Sprintf("%d", v)
	}
}
