package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): # HELP / # TYPE comments followed by samples, with
// histograms expanded into cumulative _bucket series plus _sum and _count.
// A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	metrics := r.copyMetrics()
	bw := bufio.NewWriter(w)
	for _, m := range metrics {
		if m.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", m.name, m.help)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", m.name, m.kind)
		switch {
		case m.fn != nil:
			fmt.Fprintf(bw, "%s%s %s\n", m.name, m.labels, formatFloat(m.fn()))
		case m.kind == KindCounter:
			fmt.Fprintf(bw, "%s %d\n", m.name, m.counter.Value())
		case m.kind == KindGauge:
			fmt.Fprintf(bw, "%s %d\n", m.name, m.gauge.Value())
		case m.kind == KindHistogram:
			cum := m.hist.snapshot()
			for i, bound := range m.hist.bounds {
				fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", m.name, formatFloat(bound), cum[i])
			}
			fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", m.name, cum[len(cum)-1])
			fmt.Fprintf(bw, "%s_sum %s\n", m.name, formatFloat(m.hist.Sum()))
			fmt.Fprintf(bw, "%s_count %d\n", m.name, m.hist.Count())
		}
	}
	return bw.Flush()
}

// formatFloat renders a float the way Prometheus clients do.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteSnapshotFile atomically replaces path with the registry's current
// Prometheus rendering (write to a temp file in the same directory, then
// rename), so scrapers never read a torn snapshot.
func (r *Registry) WriteSnapshotFile(path string) error {
	if r == nil {
		return nil
	}
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".predator-metrics-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := r.WritePrometheus(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
