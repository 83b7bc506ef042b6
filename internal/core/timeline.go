package core

// Flight-recorder introspection: FlightDump exposes the runtime's recorded
// access tails, detector phases, and flagging instants in one
// JSON-shaped structure. It is the data source for the Perfetto exporter
// (internal/obs/traceout), the diagnostics server's /timeline endpoint, and
// the CLIs' -timeline-out flag, the same way introspect.go's LineSnapshot
// feeds /hotlines. collectReport's Provenance blocks are built from the same
// per-track state, so a timeline and a report from one run agree.

import (
	"fmt"
	"sort"

	"predator/internal/detect"
	"predator/internal/obs/flight"
	"predator/internal/predict"
	"predator/internal/report"
)

// FlightLine is one tracked physical line's flight-recorder state.
type FlightLine struct {
	Line          uint64          `json:"line"` // line index within the heap
	Base          uint64          `json:"base"` // first address of the line
	Accesses      uint64          `json:"accesses"`
	Recorded      uint64          `json:"recorded"`
	Invalidations uint64          `json:"invalidations"`
	Degraded      bool            `json:"degraded,omitempty"`
	Salvaged      bool            `json:"salvaged,omitempty"` // records frozen at degradation time
	FlaggedClock  uint64          `json:"flagged_clock,omitempty"`
	Window        uint64          `json:"window,omitempty"` // sampling window of the flagging access
	Records       []flight.Record `json:"records"`
}

// FlightVLine is one virtual (predicted) line's flight-recorder state.
type FlightVLine struct {
	Start         uint64          `json:"start"`
	End           uint64          `json:"end"`
	Kind          string          `json:"kind"`
	RegClock      uint64          `json:"reg_clock,omitempty"` // registration tick
	FlaggedClock  uint64          `json:"flagged_clock,omitempty"`
	Invalidations uint64          `json:"invalidations"`
	Records       []flight.Record `json:"records"`
}

// FlightDump is a point-in-time copy of everything the flight recorders
// know: the current access clock, the detector phases (built from the
// tracks' search ticks and the report tick), and the recorded tails of
// tracked and virtual lines.
type FlightDump struct {
	Clock    uint64             `json:"clock"`     // current access-clock tick
	LineSize uint64             `json:"line_size"` // physical cache-line size
	Depth    int                `json:"depth"`     // per-line ring depth
	Phases   []flight.PhaseSpan `json:"phases"`
	Lines    []FlightLine       `json:"lines"`
	Virtual  []FlightVLine      `json:"virtual,omitempty"`
}

// FlightEnabled reports whether flight recording is armed on this runtime.
func (rt *Runtime) FlightEnabled() bool { return rt.fclock != nil }

// FlightDump snapshots the flight recorders. line >= 0 restricts the dump to
// that physical line (virtual lines overlapping it included); otherwise the
// n hottest lines by invalidations are dumped (n <= 0 means all). Returns
// nil when flight recording is disabled. Safe during a live run: every
// record read is one atomic load.
func (rt *Runtime) FlightDump(n int, line int64) *FlightDump {
	if rt.fclock == nil {
		return nil
	}
	d := &FlightDump{
		Clock:    rt.fclock.Now(),
		LineSize: rt.geom.Size(),
		Depth:    rt.fdepth,
		Phases:   rt.phaseSpans(),
	}
	rt.sh.ForEachTracked(func(l uint64, t *detect.Track) {
		if line >= 0 && l != uint64(line) {
			return
		}
		recs, salvaged := t.FlightRecords()
		fl := FlightLine{
			Line:          l,
			Base:          t.LineBase(),
			Accesses:      t.Accesses(),
			Recorded:      t.Recorded(),
			Invalidations: t.Invalidations(),
			Degraded:      t.Degraded(),
			Salvaged:      salvaged,
			Records:       recs,
		}
		fl.FlaggedClock, fl.Window, _ = t.FlagInfo()
		d.Lines = append(d.Lines, fl)
	})
	sort.Slice(d.Lines, func(i, j int) bool {
		a, b := &d.Lines[i], &d.Lines[j]
		if a.Invalidations != b.Invalidations {
			return a.Invalidations > b.Invalidations
		}
		return a.Line < b.Line
	})
	if line < 0 && n > 0 && len(d.Lines) > n {
		d.Lines = d.Lines[:n]
	}
	for _, v := range rt.vreg.Tracks() {
		span := v.Span()
		if line >= 0 {
			base := rt.mapping.LineBase(uint64(line))
			if !span.Overlaps(base, rt.geom.Size()) {
				continue
			}
		}
		vl := FlightVLine{
			Start:         span.Start,
			End:           span.End,
			Kind:          v.Pair.Kind.String(),
			RegClock:      v.RegClock,
			Invalidations: v.Invalidations(),
		}
		vl.Records, _ = v.FlightRecords()
		vl.FlaggedClock, _, _ = v.FlagInfo()
		d.Virtual = append(d.Virtual, vl)
	}
	return d
}

// trackProvenance starts a finding's causal record from its track's flight
// state: the recorded tail's interleaving digest and the flagging instant.
// The flagging access's sampling window is returned apart, because only
// observed findings report it.
func trackProvenance(t *detect.Track) (p *report.Provenance, window uint64, flagged bool) {
	recs, salvaged := t.FlightRecords()
	dg := flight.Digest(recs)
	clock, window, flagged := t.FlagInfo()
	return &report.Provenance{
		FlaggedClock: clock,
		Digest:       dg.Hash,
		Threads:      dg.Threads,
		Switches:     dg.Switches,
		Records:      dg.Records,
		Salvaged:     salvaged,
	}, window, flagged
}

// observedProvenance builds the causal record of an observed finding.
func (rt *Runtime) observedProvenance(t *detect.Track) *report.Provenance {
	p, window, flagged := trackProvenance(t)
	p.Window = window
	clock := p.FlaggedClock
	p.Chain = append(p.Chain, fmt.Sprintf(
		"line promoted to detailed tracking: write count reached TrackingThreshold %d",
		rt.cfg.TrackingThreshold))
	switch {
	case flagged && clock > 0:
		p.Chain = append(p.Chain, fmt.Sprintf(
			"flagged at access-clock %d in sampling window %d: invalidations reached ReportThreshold %d",
			clock, window, rt.cfg.ReportThreshold))
	case flagged:
		p.Chain = append(p.Chain, fmt.Sprintf(
			"flagged in sampling window %d: invalidations reached ReportThreshold %d",
			window, rt.cfg.ReportThreshold))
	default:
		p.Chain = append(p.Chain, fmt.Sprintf(
			"invalidations %d at or above ReportThreshold %d at report time",
			t.Invalidations(), rt.cfg.ReportThreshold))
	}
	if t.Degraded() {
		p.Chain = append(p.Chain,
			"degraded to invalidation-counting-only by the resource governor; recorded tail salvaged at degradation time")
	}
	return p
}

// predictedProvenance builds the causal record of a predicted finding: the
// §3 verification chain from hot-pair estimate through virtual-line
// registration to verification.
func (rt *Runtime) predictedProvenance(v *predict.VTrack) *report.Provenance {
	p, _, flagged := trackProvenance(v.Track)
	clock := p.FlaggedClock
	p.Chain = append(p.Chain, fmt.Sprintf(
		"hot pair (threads %d and %d) estimated %d interleaved invalidations",
		v.Pair.X.Thread, v.Pair.Y.Thread, v.Pair.Estimate))
	if rc := v.RegClock; rc > 0 {
		p.Chain = append(p.Chain, fmt.Sprintf(
			"virtual line registered at access-clock %d (%s)", rc, v.Pair.Kind))
	} else {
		p.Chain = append(p.Chain, fmt.Sprintf(
			"virtual line registered (%s)", v.Pair.Kind))
	}
	if flagged && clock > 0 {
		p.Chain = append(p.Chain, fmt.Sprintf(
			"verified at access-clock %d: invalidations reached ReportThreshold %d",
			clock, rt.cfg.ReportThreshold))
	} else {
		p.Chain = append(p.Chain, fmt.Sprintf(
			"verified: %d invalidations at or above ReportThreshold %d",
			v.Invalidations(), rt.cfg.ReportThreshold))
	}
	return p
}
