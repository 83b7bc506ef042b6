package topview

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"predator/internal/core"
	"predator/internal/detect"
	"predator/internal/obs/diag"
)

func TestHeatmap(t *testing.T) {
	ln := core.LineSnapshot{Words: []core.WordHeat{
		{Index: 0, Owner: 0},
		{Index: 1, Owner: 1},
		{Index: 3, Owner: detect.OwnerShared},
		{Index: 5, Owner: 12}, // thread ids render mod 10
	}}
	if got := Heatmap(ln); got != "01.S.2" {
		t.Fatalf("Heatmap = %q, want %q", got, "01.S.2")
	}
	if got := Heatmap(core.LineSnapshot{}); got != "" {
		t.Fatalf("Heatmap of empty line = %q, want empty", got)
	}
}

func diagFrame() *Frame {
	return &Frame{
		Tool: "predator", UnixMilli: 1754600000000, Requested: 10, Count: 1,
		Stats: diag.StatsJSON{Stats: core.Stats{Accesses: 1000, Writes: 400, TrackedLines: 3, Invalidations: 70}},
		Lines: []Line{{LineSnapshot: core.LineSnapshot{
			Addr: 0x1040, Accesses: 800, Writes: 300, Recorded: 640, Invalidations: 70,
			ReportWorthy: true, WindowPos: 3, WindowLen: 20, Recording: true,
			Words: []core.WordHeat{{Index: 0, Owner: 0}, {Index: 1, Owner: 1}},
		}}},
	}
}

func TestRenderDiagShape(t *testing.T) {
	var buf bytes.Buffer
	Render(&buf, diagFrame(), false)
	out := buf.String()
	for _, want := range []string{
		"predtop — predator",
		"accesses=1000 writes=400 tracked=3 virtual=0 invalidations=70",
		"WORD OWNERS",
		"0x1040",
		"3/20 rec", // sampling-window phase
		"01",       // heatmap computed from raw words
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "ORIGIN") {
		t.Fatalf("diag render grew an ORIGIN column:\n%s", out)
	}
	// The R flag marks report-worthy lines.
	if !strings.Contains(out, " R ") && !strings.Contains(out, " R\t") && !strings.Contains(out, "R    ") {
		t.Fatalf("report-worthy flag missing:\n%s", out)
	}
}

func TestRenderFleetShape(t *testing.T) {
	fr := &Frame{
		Tool: "predfleet", UnixMilli: 1754600000000, Requested: 10, Count: 2, Agents: 2,
		Stats: diag.StatsJSON{Stats: core.Stats{Accesses: 150, Invalidations: 290, Degraded: true, DegradedLines: 1}},
		Lines: []Line{
			{LineSnapshot: core.LineSnapshot{Addr: 0x80, Invalidations: 200},
				Owners: "SS..", Project: "web", Agent: "agent-2"},
			{LineSnapshot: core.LineSnapshot{Addr: 0x40, Invalidations: 70},
				Owners: "01..", Project: "db", Agent: "agent-1"},
		},
	}
	var buf bytes.Buffer
	Render(&buf, fr, true)
	out := buf.String()
	for _, want := range []string{
		"predtop — predfleet",
		"agents=2",
		"DEGRADED(lines=1",
		"ORIGIN",
		"web/agent-2",
		"db/agent-1",
		"SS..", // fleet lines carry pre-rendered heatmaps
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("fleet render missing %q:\n%s", want, out)
		}
	}
}

func TestRenderEmptyFrame(t *testing.T) {
	var buf bytes.Buffer
	Render(&buf, &Frame{Tool: "predator"}, false)
	if !strings.Contains(buf.String(), "(no tracked lines yet)") {
		t.Fatalf("empty frame render:\n%s", buf.String())
	}
}

func TestPollDecodesAndAuthenticates(t *testing.T) {
	var gotAuth string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotAuth = r.Header.Get("Authorization")
		json.NewEncoder(w).Encode(diagFrame())
	}))
	defer ts.Close()

	c := &Client{URL: ts.URL + "/hotlines?n=10", Token: "s3cret"}
	fr, err := c.Poll()
	if err != nil {
		t.Fatalf("Poll: %v", err)
	}
	if gotAuth != "Bearer s3cret" {
		t.Fatalf("Authorization = %q", gotAuth)
	}
	if fr.Tool != "predator" || fr.Count != 1 || fr.Lines[0].Addr != 0x1040 {
		t.Fatalf("frame = %+v", fr)
	}
}

func TestPollErrorsSurfaceStatus(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "token?", http.StatusUnauthorized)
	}))
	defer ts.Close()
	c := &Client{URL: ts.URL}
	if _, err := c.Poll(); err == nil || !strings.Contains(err.Error(), "401") {
		t.Fatalf("Poll error = %v, want a 401 mention", err)
	}
}

func TestLoopOnceAndFirstPollFailure(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(diagFrame())
	}))
	defer ts.Close()

	var buf bytes.Buffer
	err := Loop(&Client{URL: ts.URL}, LoopOptions{Once: true, Out: &buf})
	if err != nil {
		t.Fatalf("Loop once: %v", err)
	}
	if !strings.Contains(buf.String(), "predtop — predator") {
		t.Fatalf("loop rendered nothing:\n%s", buf.String())
	}
	if strings.Contains(buf.String(), "\033[2J") {
		t.Fatal("once mode must not clear the screen")
	}

	// A dead server on the first poll is an error the CLI reports.
	dead := httptest.NewServer(nil)
	dead.Close()
	if err := Loop(&Client{URL: dead.URL}, LoopOptions{Once: true, Out: &buf}); err == nil {
		t.Fatal("Loop against a dead server returned nil")
	}
}

func TestRenderAlertRows(t *testing.T) {
	fr := diagFrame()
	fr.Alerts = []string{
		"[crit] slowdown_regression db: 1 slowdown regression(s), worst 2.00x",
		"[warn] agent_silent db: agent a1 silent for 45s",
		"[warn] agent_silent db: agent a2 silent for 50s",
		"[warn] agent_silent db: agent a3 silent for 60s",
	}
	var buf bytes.Buffer
	RenderWith(&buf, fr, RenderOptions{})
	out := buf.String()
	if !strings.Contains(out, "ALERT [crit] slowdown_regression") {
		t.Fatalf("crit alert row missing:\n%s", out)
	}
	// Only DefaultMaxAlerts rows render; the rest collapse to a marker.
	if strings.Contains(out, "agent a3") {
		t.Fatalf("fourth alert rendered past the cap:\n%s", out)
	}
	if !strings.Contains(out, "ALERT … +1 more") {
		t.Fatalf("overflow marker missing:\n%s", out)
	}
	// The table still follows the alert block.
	if !strings.Contains(out, "WORD OWNERS") {
		t.Fatalf("table lost below alerts:\n%s", out)
	}
}

func TestRenderNarrowWidthClipsLines(t *testing.T) {
	fr := diagFrame()
	fr.Alerts = []string{"[crit] slowdown_regression db: a very long message that cannot fit forty columns"}
	var buf bytes.Buffer
	RenderWith(&buf, fr, RenderOptions{Width: 40})
	for i, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		if n := len([]rune(line)); n > 40 {
			t.Fatalf("line %d is %d cells wide: %q", i, n, line)
		}
	}
	out := buf.String()
	// The stats header and the table row are both wider than 40 cells, so
	// clipped lines must carry the truncation marker.
	if !strings.Contains(out, "…") {
		t.Fatalf("no truncation markers at width 40:\n%s", out)
	}
	// The ALERT prefix survives clipping.
	if !strings.Contains(out, "ALERT [crit]") {
		t.Fatalf("alert row lost at narrow width:\n%s", out)
	}
}

func TestRenderWidthZeroIsUnlimited(t *testing.T) {
	var narrow, full bytes.Buffer
	RenderWith(&full, diagFrame(), RenderOptions{})
	RenderWith(&narrow, diagFrame(), RenderOptions{Width: 10_000})
	if full.String() != narrow.String() {
		t.Fatalf("huge width changed output:\nfull:\n%s\nwide:\n%s", full.String(), narrow.String())
	}
}

func TestClipLine(t *testing.T) {
	for _, tc := range []struct {
		in    string
		width int
		want  string
	}{
		{"short", 40, "short"},
		{"exactly10!", 10, "exactly10!"},
		{"elevenchars", 10, "elevencha…"},
		{"héllo wörld wide", 8, "héllo w…"}, // rune-aware, not byte-aware
		{"xy", 1, "…"},
	} {
		if got := clipLine(tc.in, tc.width); got != tc.want {
			t.Fatalf("clipLine(%q, %d) = %q, want %q", tc.in, tc.width, got, tc.want)
		}
	}
}
