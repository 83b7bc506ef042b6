package report

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"predator/internal/detect"
)

// JSON-facing mirror structures with stable field names, so external tools
// (CI gates, dashboards) can consume reports without parsing the
// human-readable format.

// JSONReport is the machine-readable form of a Report.
type JSONReport struct {
	LineSize uint64        `json:"line_size"`
	Degraded bool          `json:"degraded,omitempty"`
	Findings []JSONFinding `json:"findings"`
	Problems []JSONProblem `json:"problems"`
}

// JSONFinding mirrors Finding.
type JSONFinding struct {
	Source        string     `json:"source"`
	Sharing       string     `json:"sharing"`
	SpanStart     uint64     `json:"span_start"`
	SpanEnd       uint64     `json:"span_end"`
	Accesses      uint64     `json:"accesses"`
	Reads         uint64     `json:"reads"`
	Writes        uint64     `json:"writes"`
	Invalidations uint64     `json:"invalidations"`
	Estimate      uint64     `json:"estimate,omitempty"`
	Degraded      bool       `json:"degraded,omitempty"`
	Object        *JSONObj   `json:"object,omitempty"`
	Words         []JSONWord `json:"words,omitempty"`

	// Provenance is always present on runtime-produced reports (its chain
	// is never empty); the pointer is nil only for reports built by hand.
	Provenance *JSONProvenance `json:"provenance,omitempty"`
}

// JSONProvenance mirrors Provenance.
type JSONProvenance struct {
	FlaggedClock uint64   `json:"flagged_clock,omitempty"`
	Window       uint64   `json:"window,omitempty"`
	Digest       string   `json:"digest,omitempty"`
	Threads      []int    `json:"threads,omitempty"`
	Switches     int      `json:"switches,omitempty"`
	Records      int      `json:"records,omitempty"`
	Salvaged     bool     `json:"salvaged,omitempty"`
	SpanID       string   `json:"span_id,omitempty"`
	Chain        []string `json:"chain"`
}

// JSONObj mirrors the primary object of a finding.
type JSONObj struct {
	Start    uint64 `json:"start"`
	Size     uint64 `json:"size"`
	Global   bool   `json:"global,omitempty"`
	Label    string `json:"label,omitempty"`
	Callsite string `json:"callsite,omitempty"`
}

// JSONWord mirrors one touched word's detail.
type JSONWord struct {
	Addr   uint64 `json:"addr"`
	Reads  uint64 `json:"reads"`
	Writes uint64 `json:"writes"`
	Owner  string `json:"owner"` // thread id, "shared", or "none"
}

// JSONProblem mirrors a per-object problem group.
type JSONProblem struct {
	Summary            string   `json:"summary"`
	Sharing            string   `json:"sharing"`
	Sources            []string `json:"sources"`
	TotalInvalidations uint64   `json:"total_invalidations"`
	Findings           int      `json:"findings"`
	PredictedOnly      bool     `json:"predicted_only"`
	Object             *JSONObj `json:"object,omitempty"`
}

// ToJSON converts the report into its machine-readable mirror.
func (r *Report) ToJSON() JSONReport {
	out := JSONReport{LineSize: r.Geometry.Size(), Degraded: r.Degraded}
	for _, f := range r.Findings {
		jf := JSONFinding{
			Source:        f.Source.String(),
			Sharing:       f.Sharing.String(),
			SpanStart:     f.Span.Start,
			SpanEnd:       f.Span.End,
			Accesses:      f.Accesses,
			Reads:         f.Reads,
			Writes:        f.Writes,
			Invalidations: f.Invalidations,
			Estimate:      f.Estimate,
			Degraded:      f.Degraded,
		}
		if p := f.Provenance; p != nil {
			jf.Provenance = &JSONProvenance{
				FlaggedClock: p.FlaggedClock,
				Window:       p.Window,
				Digest:       p.Digest,
				Threads:      p.Threads,
				Switches:     p.Switches,
				Records:      p.Records,
				Salvaged:     p.Salvaged,
				SpanID:       p.SpanID,
				Chain:        p.Chain,
			}
		}
		if obj, ok := f.PrimaryObject(); ok {
			jo := JSONObj{Start: obj.Start, Size: obj.Size, Global: obj.Global, Label: obj.Label}
			if !obj.Callsite.IsZero() {
				jo.Callsite = obj.Callsite.Leaf().String()
			}
			jf.Object = &jo
		}
		for _, w := range f.Words {
			if w.Reads == 0 && w.Writes == 0 {
				continue
			}
			owner := "none"
			switch {
			case w.Owner == detect.OwnerShared:
				owner = "shared"
			case w.Owner >= 0:
				owner = strconv.Itoa(w.Owner)
			}
			jf.Words = append(jf.Words, JSONWord{Addr: w.Addr, Reads: w.Reads, Writes: w.Writes, Owner: owner})
		}
		out.Findings = append(out.Findings, jf)
	}
	for _, p := range r.Problems() {
		jp := JSONProblem{
			Summary:            p.Summary(),
			Sharing:            p.Sharing.String(),
			TotalInvalidations: p.TotalInvalidations,
			Findings:           len(p.Findings),
			PredictedOnly:      p.PredictedOnly(),
		}
		for _, s := range p.Sources {
			jp.Sources = append(jp.Sources, s.String())
		}
		if p.HasObject {
			jp.Object = &JSONObj{Start: p.Object.Start, Size: p.Object.Size,
				Global: p.Object.Global, Label: p.Object.Label}
		}
		out.Problems = append(out.Problems, jp)
	}
	return out
}

// MarshalIndentJSON renders the report as pretty-printed JSON.
func (r *Report) MarshalIndentJSON() ([]byte, error) {
	return json.MarshalIndent(r.ToJSON(), "", "  ")
}

// LoadJSON reads a machine-readable report back from a file, the ingestion
// half of the schema: what the CLIs write with MarshalIndentJSON, the
// static cross-check (predlint -report) consumes here.
func LoadJSON(path string) (*JSONReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep JSONReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("report: parsing %s: %v", path, err)
	}
	return &rep, nil
}
