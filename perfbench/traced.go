package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"predator/internal/core"
	"predator/internal/harness"
	"predator/internal/mem"
	"predator/internal/report"
	"predator/internal/trace"
)

// The traced run drives the same workloads through a ladder of rungs, each
// adding one layer, and records the benchmark's own spans around every call
// into a layer. Rungs rotate until --seconds have passed and every per-rung
// figure is a median over its iterations.
//
//	live:   native → instr (no-op sink) → NP, flight off → NP → PREDATOR
//	replay: decode only → NP → PREDATOR (plus native/instr rungs of the
//	        recorded program, so the front-end cost is still reported)
//
// Detection rungs run on a caller-built heap and runtime through
// harness.ExecuteSimOnHeap, with timedSink sampling Runtime.HandleAccess.
// Each rotation also runs one untraced PREDATOR iteration; the difference
// in verdict time is the tracing overhead.

// maxTIDs bounds the per-thread slots of the counting and timing sinks.
// Workloads mint a few threads per parallel phase; accesses from thread IDs
// beyond the bound are delivered but not counted per slot.
const maxTIDs = 256

// timeEvery is the sampling period of timedSink: one HandleAccess call in
// timeEvery per thread is timed.
const timeEvery = 64

// maxTimedSamples caps each thread's retained timings.
const maxTimedSamples = 1 << 15

// countSink is the instr rung's sink: it counts accesses and does nothing
// else. Each instrumented thread is driven by one goroutine at a time, so a
// per-thread slot needs no synchronization.
type countSink struct {
	slots [maxTIDs]struct {
		n uint64
		_ [56]byte
	}
}

func (c *countSink) HandleAccess(tid int, _, _ uint64, _ bool) {
	if uint(tid) < maxTIDs {
		c.slots[tid].n++
	}
}

func (c *countSink) total() uint64 {
	var n uint64
	for i := range c.slots {
		n += c.slots[i].n
	}
	return n
}

// timedSink forwards every access to a runtime and times one call in
// timeEvery per thread.
type timedSink struct {
	rt    *core.Runtime
	slots [maxTIDs]struct {
		calls   uint64
		samples []time.Duration
		_       [32]byte
	}
}

func (s *timedSink) HandleAccess(tid int, addr, size uint64, isWrite bool) {
	if uint(tid) < maxTIDs {
		sl := &s.slots[tid]
		sl.calls++
		if sl.calls%timeEvery == 0 && len(sl.samples) < maxTimedSamples {
			t := time.Now()
			s.rt.HandleAccess(tid, addr, size, isWrite)
			sl.samples = append(sl.samples, time.Since(t))
			return
		}
	}
	s.rt.HandleAccess(tid, addr, size, isWrite)
}

// handleNS returns every timed call in nanoseconds, and the busy time
// estimated per thread as its mean timed call times its call count.
func (s *timedSink) handleNS() (ns []float64, busy time.Duration) {
	for i := range s.slots {
		sl := &s.slots[i]
		if len(sl.samples) == 0 {
			continue
		}
		var sum time.Duration
		for _, d := range sl.samples {
			ns = append(ns, float64(d.Nanoseconds()))
			sum += d
		}
		busy += time.Duration(float64(sum) / float64(len(sl.samples)) * float64(sl.calls))
	}
	return ns, busy
}

// spanRec is one span of the benchmark's own trace. Times are nanoseconds
// since the run started; every span of a run carries its run ID.
type spanRec struct {
	RunID  string `json:"run_id"`
	ID     int    `json:"span_id"`
	Parent int    `json:"parent_id"` // 0: root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the run's spans in memory. The benchmark calls into the
// program from one goroutine, so spans need no locking.
type tracer struct {
	runID string
	t0    time.Time
	spans []spanRec
}

func (t *tracer) start(name string, parent int) int {
	t.spans = append(t.spans, spanRec{RunID: t.runID, ID: len(t.spans) + 1, Parent: parent,
		Name: name, Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) end(id int) time.Duration {
	sp := &t.spans[id-1]
	sp.End = time.Since(t.t0).Nanoseconds()
	return time.Duration(sp.End - sp.Start)
}

// layerRow aggregates the spans of one name.
type layerRow struct {
	name        string
	count       int
	total, self time.Duration
}

// layers totals each span name's duration and self time: its duration
// minus what its children cover. Spans of one run are sequential, so the
// children of a span never overlap.
func (t *tracer) layers() []layerRow {
	child := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += time.Duration(s.End - s.Start)
	}
	rows := map[string]*layerRow{}
	var order []string
	for _, s := range t.spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{name: s.Name}
			rows[s.Name] = r
			order = append(order, s.Name)
		}
		d := time.Duration(s.End - s.Start)
		r.count++
		r.total += d
		r.self += d - child[s.ID]
	}
	out := make([]layerRow, len(order))
	for i, n := range order {
		out[i] = *rows[n]
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// detection is one traced detection iteration's measurements.
type detection struct {
	heapSetup, rtSetup time.Duration
	work, collect      time.Duration
	handleNS           []float64
	busy               time.Duration
	stats              core.Stats
	rep                *report.Report
	allocMB            float64
	gcCycles           uint32
}

// ladder accumulates the traced run's per-rung samples.
type ladder struct {
	native, instr, decode       []float64 // seconds per iteration
	npNoFlight, np, pred        []float64 // workload-phase seconds
	tracedVerdict, untracedVerd []float64
	untracedWork                []float64
	instrAccesses, events       uint64
	heapSetup, rtSetup          []float64
	preds                       []detection
}

// tracedRun runs the rung ladder and returns the per-layer metrics.
func (b *bench) tracedRun(st stamp) (map[string]metric, error) {
	t := &tracer{runID: fmt.Sprintf("%s-seed%d-%x", b.spec.name, b.rc.seed, time.Now().UnixNano()), t0: time.Now()}
	root := t.start("bench.run", 0)
	var l ladder

	// The live workloads' decode rung decodes a trace of their own access
	// stream, recorded once, with the workload's options, before the ladder.
	data := b.data
	if data == nil {
		sp := t.start("bench.record", root)
		var err error
		data, _, err = recordTrace(b.w, liveOptions(b.spec, b.rc.seed, b.threads, harness.ModeNative))
		t.end(sp)
		if err != nil {
			return nil, fmt.Errorf("recording trace: %w", err)
		}
	}

	deadline := time.Now().Add(time.Duration(b.rc.seconds * float64(time.Second)))
	for rot := 0; rot < minIterations || time.Now().Before(deadline); rot++ {
		if err := b.rotation(t, root, &l, data); err != nil {
			return nil, err
		}
	}
	t.end(root)
	if len(l.preds) == 0 {
		return nil, fmt.Errorf("no traced detection run succeeded (%d attempted)", b.ck.attempts)
	}

	m := b.layerMetrics(&l)
	b.printLayers(t, m)
	path, err := writeSpans(b.rc.outDir, t, st)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(b.out, "spans %d written to %s\n", len(t.spans), path)
	return m, nil
}

// rotation runs every rung of the ladder once.
func (b *bench) rotation(t *tracer, root int, l *ladder, data []byte) error {
	liveOpts := liveOptions(b.spec, b.rc.seed, b.threads, harness.ModeNative)

	// Native and instr rungs: for replay_stream these run the recorded
	// program with the options it was recorded with.
	runtime.GC()
	sp := t.start("rung.native", root)
	res, err := harness.Execute(b.w, liveOpts)
	t.end(sp)
	if err != nil {
		return fmt.Errorf("native rung: %w", err)
	}
	l.native = append(l.native, res.Duration.Seconds())

	runtime.GC()
	sink := &countSink{}
	sp = t.start("rung.instr", root)
	res, err = harness.ExecuteSim(b.w, liveOpts, sink)
	t.end(sp)
	if err != nil {
		return fmt.Errorf("instr rung: %w", err)
	}
	l.instr = append(l.instr, res.Duration.Seconds())
	l.instrAccesses = sink.total()

	runtime.GC()
	sp = t.start("rung.decode", root)
	d0 := time.Now()
	n, err := countEvents(data)
	l.decode = append(l.decode, time.Since(d0).Seconds())
	t.end(sp)
	if err != nil {
		return err
	}
	l.events = n

	np := detectConfig(false)
	noFlight := np
	noFlight.FlightDepth = core.FlightDisabled
	for _, r := range []struct {
		name string
		cfg  core.Config
		dst  *[]float64
	}{
		{"rung.np_noflight", noFlight, &l.npNoFlight},
		{"rung.np", np, &l.np},
		{"rung.predator", detectConfig(true), &l.pred},
	} {
		runtime.GC()
		d, ok := b.tracedDetection(t, root, r.name, r.cfg, data)
		if !ok {
			continue
		}
		*r.dst = append(*r.dst, d.work.Seconds())
		l.heapSetup = append(l.heapSetup, d.heapSetup.Seconds())
		l.rtSetup = append(l.rtSetup, d.rtSetup.Seconds())
		if r.cfg.Prediction {
			l.preds = append(l.preds, d)
			l.tracedVerdict = append(l.tracedVerdict, (d.work + d.collect).Seconds())
		}
	}

	runtime.GC()
	sp = t.start("rung.untraced", root)
	smp, ok := b.timed()
	t.end(sp)
	if ok {
		l.untracedVerd = append(l.untracedVerd, smp.verdict.Seconds())
		l.untracedWork = append(l.untracedWork, smp.work.Seconds())
	}
	return nil
}

// tracedDetection runs one detection iteration on a runtime the benchmark
// builds itself, wrapped in timedSink, and checks it like a timed run.
func (b *bench) tracedDetection(t *tracer, root int, name string, cfg core.Config, data []byte) (detection, bool) {
	var d detection
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	sp := t.start(name, root)
	defer t.end(sp)

	hdr := trace.Header{HeapBase: mem.DefaultBase, HeapSize: heapSize, LineSize: 64}
	var tr *trace.Reader
	if b.spec.replay {
		s := t.start("trace.NewReader", sp)
		var err error
		tr, err = trace.NewReader(bytes.NewReader(data))
		t.end(s)
		if err != nil {
			b.ck.checkReplay(err, nil, cfg.Prediction)
			return d, false
		}
		hdr = tr.Header()
	}
	s := t.start("mem.NewHeap", sp)
	h, err := mem.NewHeap(mem.Config{Base: hdr.HeapBase, Size: hdr.HeapSize, LineSize: int(hdr.LineSize)})
	d.heapSetup = t.end(s)
	if err != nil {
		b.ck.check(err, 0, nil, false)
		return d, false
	}
	s = t.start("core.NewRuntime", sp)
	rt, err := core.NewRuntime(h, cfg)
	d.rtSetup = t.end(s)
	if err != nil {
		b.ck.check(err, 0, nil, false)
		return d, false
	}
	sink := &timedSink{rt: rt}

	var checksum uint64
	var events uint64
	if b.spec.replay {
		s = t.start("replay.events", sp)
		events, err = replayEvents(tr, h, sink)
		d.work = t.end(s)
	} else {
		s = t.start("harness.ExecuteSimOnHeap", sp)
		var res *harness.Result
		res, err = harness.ExecuteSimOnHeap(b.w, liveOptions(b.spec, b.rc.seed, b.threads, harness.ModePredict), h, sink)
		d.work = t.end(s)
		if err == nil {
			checksum = res.Checksum
		}
	}
	if err != nil {
		if b.spec.replay {
			b.ck.checkReplay(err, nil, cfg.Prediction)
		} else {
			b.ck.check(err, 0, nil, cfg.Prediction)
		}
		return d, false
	}

	s = t.start("core.Report", sp)
	d.rep = rt.Report()
	d.collect = t.end(s)
	d.stats = rt.Stats()
	d.handleNS, d.busy = sink.handleNS()
	runtime.ReadMemStats(&ms1)
	d.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	d.gcCycles = ms1.NumGC - ms0.NumGC

	if b.spec.replay {
		// A traced replay must reproduce the public replay's counts exactly.
		b.ck.checkReplay(nil, &trace.ReplayResult{Events: events, Report: d.rep, Stats: d.stats}, cfg.Prediction)
	} else {
		b.ck.check(nil, checksum, d.rep, cfg.Prediction)
	}
	return d, true
}

// replayEvents streams a trace's events into the runtime behind sink,
// rebuilding the recorded heap's object table as trace.ReplayWithOptions
// does.
func replayEvents(tr *trace.Reader, h *mem.Heap, sink *timedSink) (uint64, error) {
	var n uint64
	for {
		e, err := tr.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n++
		switch e.Op {
		case trace.OpRead:
			sink.HandleAccess(int(e.TID), e.Addr, e.Size, false)
		case trace.OpWrite:
			sink.HandleAccess(int(e.TID), e.Addr, e.Size, true)
		case trace.OpAlloc:
			err = h.ImportObject(mem.Object{Start: e.Addr, Size: e.Size, Thread: int(e.TID)})
		case trace.OpFree:
			err = h.Free(e.Addr)
		case trace.OpGlobal:
			err = h.ImportObject(mem.Object{Start: e.Addr, Size: e.Size, Thread: -1, Label: e.Name, Global: true})
		}
		if err != nil {
			return n, fmt.Errorf("event %d: %w", n-1, err)
		}
	}
}

// countEvents is the decode-only rung: it decodes every event of the trace
// and does nothing with them.
func countEvents(data []byte) (uint64, error) {
	tr, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		return 0, fmt.Errorf("decoding trace: %w", err)
	}
	var n uint64
	for {
		if _, err := tr.Next(); err == io.EOF {
			return n, nil
		} else if err != nil {
			return n, fmt.Errorf("decoding trace: %w", err)
		}
		n++
	}
}

// layerMetrics turns the ladder's samples into the per-layer metrics. Rung
// differences are per access the PREDATOR rung analysed.
func (b *bench) layerMetrics(l *ladder) map[string]metric {
	var handle, busy, tracked, invs, sampled, vlines, vinvs, verified, collect, findings, fs, allocMB, gcs []float64
	var accesses, writes []float64
	for _, d := range l.preds {
		handle = append(handle, d.handleNS...)
		busy = append(busy, d.busy.Seconds())
		accesses = append(accesses, float64(d.stats.Accesses))
		writes = append(writes, float64(d.stats.Writes))
		tracked = append(tracked, float64(d.stats.TrackedLines))
		invs = append(invs, float64(d.stats.Invalidations))
		sampled = append(sampled, float64(d.stats.SampledAccesses))
		vlines = append(vlines, float64(d.stats.VirtualLines))
		vinvs = append(vinvs, float64(d.stats.VirtualInvalidations))
		verified = append(verified, ratio(float64(predictedFindings(d.rep)), float64(d.stats.VirtualLines)))
		collect = append(collect, d.collect.Seconds())
		findings = append(findings, float64(len(d.rep.Findings)))
		fs = append(fs, float64(len(d.rep.FalseSharing())))
		allocMB = append(allocMB, d.allocMB)
		gcs = append(gcs, float64(d.gcCycles))
	}
	acc := median(accesses)
	perAccess := func(hi, lo []float64) float64 { return ratio(median(hi)-median(lo), acc) * 1e9 }
	native, decode := median(l.native), median(l.decode)
	return map[string]metric{
		"instr.accesses":                {float64(l.instrAccesses), "count"},
		"instr.ns_per_access":           {ratio(median(l.instr)-native, float64(l.instrAccesses)) * 1e9, "ns"},
		"core.accesses":                 {acc, "count"},
		"core.writes":                   {median(writes), "count"},
		"core.handle_ns":                {median(handle), "ns"},
		"core.busy_s":                   {median(busy), "s"},
		"detect.tracked_lines":          {median(tracked), "count"},
		"detect.invalidations":          {median(invs), "count"},
		"detect.sampled_accesses":       {median(sampled), "count"},
		"detect.tracked_share":          {ratio(median(sampled), acc), "ratio"},
		"flight.ns_per_access":          {perAccess(l.np, l.npNoFlight), "ns"},
		"predict.virtual_lines":         {median(vlines), "count"},
		"predict.virtual_invalidations": {median(vinvs), "count"},
		"predict.verified_ratio":        {median(verified), "ratio"},
		"predict.ns_per_access":         {perAccess(l.pred, l.np), "ns"},
		"report.collect_s":              {median(collect), "s"},
		"report.findings":               {median(findings), "count"},
		"report.false_sharing":          {median(fs), "count"},
		"trace.events":                  {float64(l.events), "count"},
		"trace.decode_s":                {decode, "s"},
		"trace.decode_ns_per_event":     {ratio(decode, float64(l.events)) * 1e9, "ns"},
		"mem.heap_setup_s":              {median(l.heapSetup), "s"},
		"core.runtime_setup_s":          {median(l.rtSetup), "s"},
		"go.alloc_mb":                   {median(allocMB), "MB"},
		"go.gc_cycles":                  {median(gcs), "count"},
		"harness.native_s":              {native, "s"},
		"harness.overhead_x":            {ratio(median(l.untracedWork), native), "x"},
		"bench.trace_overhead_s":        {median(l.tracedVerdict) - median(l.untracedVerd), "s"},
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// predictedFindings counts findings that came from verified virtual lines.
func predictedFindings(rep *report.Report) int {
	n := 0
	for _, f := range rep.Findings {
		if f.Source != report.SourceObserved {
			n++
		}
	}
	return n
}

// printLayers prints the span self-time table and the per-layer metrics.
func (b *bench) printLayers(t *tracer, m map[string]metric) {
	fmt.Fprintf(b.out, "%-28s %6s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, r := range t.layers() {
		fmt.Fprintf(b.out, "%-28s %6d %12.6f %12.6f\n", r.name, r.count, r.total.Seconds(), r.self.Seconds())
	}
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(b.out, "%-32s %16.6f %s\n", n, m[n].Value, m[n].Unit)
	}
	fmt.Fprintf(b.out, "tracing overhead %.6f s (traced - untraced verdict_s)\n", m["bench.trace_overhead_s"].Value)
}

// writeSpans writes the run's spans, with its stamp, as one JSON document.
func writeSpans(dir string, t *tracer, st stamp) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", st.Workload, st.Seed))
	doc, err := json.MarshalIndent(struct {
		RunID string    `json:"run_id"`
		Stamp stamp     `json:"stamp"`
		Spans []spanRec `json:"spans"`
	}{t.runID, st, t.spans}, "", " ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	return path, nil
}
