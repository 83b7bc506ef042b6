package predator

import (
	"fmt"
	"strings"
	"testing"
)

func TestEndToEndObservedFalseSharing(t *testing.T) {
	cfg := DefaultRuntimeConfig()
	cfg.TrackingThreshold = 10
	cfg.PredictionThreshold = 20
	cfg.ReportThreshold = 50
	cfg.SampleWindow = 0
	d, err := New(Options{HeapSize: 4 << 20, Runtime: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	t1 := d.Thread("alice")
	t2 := d.Thread("bob")
	addr, err := t1.AllocWithOffset(64, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		t1.Store64(addr, uint64(i))
		t2.Store64(addr+8, uint64(i))
	}
	rep := d.Report()
	fs := rep.FalseSharing()
	if len(fs) != 1 {
		t.Fatalf("false sharing findings = %d, want 1", len(fs))
	}
	out := fs[0].Format(d.Geometry())
	if !strings.Contains(out, "FALSE SHARING HEAP OBJECT") {
		t.Errorf("report:\n%s", out)
	}
}

// TestDeliveredIsRuntimeAccessCount pins the single access count: the
// facade's Delivered and the delivered metric both read the runtime's count.
func TestDeliveredIsRuntimeAccessCount(t *testing.T) {
	d, err := New(Options{HeapSize: 1 << 20, Observer: NewObserver(nil)})
	if err != nil {
		t.Fatal(err)
	}
	t1, t2 := d.Thread("a"), d.Thread("b")
	addr, err := t1.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		t1.Store64(addr, uint64(i))
		t2.Load64(addr + 8)
	}
	t1.WriteBytes(addr, nil) // zero-size: dropped by the runtime, counted nowhere
	st := d.Stats()
	if st.Accesses == 0 || st.Delivered != st.Accesses {
		t.Errorf("Delivered = %d, Accesses = %d, want equal and > 0", st.Delivered, st.Accesses)
	}
	var b strings.Builder
	if err := d.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	samples := map[string]string{}
	for _, line := range strings.Split(b.String(), "\n") {
		if f := strings.Fields(line); len(f) == 2 && !strings.HasPrefix(line, "#") {
			samples[f[0]] = f[1]
		}
	}
	want := fmt.Sprint(st.Accesses)
	for _, name := range []string{"predator_accesses_total", "predator_events_delivered_total"} {
		if samples[name] != want {
			t.Errorf("%s = %q, want %s", name, samples[name], want)
		}
	}
}

func TestEndToEndPrediction(t *testing.T) {
	cfg := DefaultRuntimeConfig()
	cfg.TrackingThreshold = 10
	cfg.PredictionThreshold = 20
	cfg.ReportThreshold = 50
	cfg.SampleWindow = 0
	d, err := New(Options{HeapSize: 4 << 20, Runtime: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	t1 := d.Thread("alice")
	t2 := d.Thread("bob")
	addr, _ := t1.AllocWithOffset(128, 0)
	for i := 0; i < 2000; i++ {
		t1.Store64(addr+56, uint64(i))
		t2.Store64(addr+64, uint64(i))
	}
	rep := d.Report()
	if len(rep.Observed()) != 0 {
		t.Error("latent pattern observed physically")
	}
	if len(rep.Predicted()) == 0 {
		t.Error("latent false sharing not predicted")
	}
	if d.Stats().VirtualLines == 0 {
		t.Error("no virtual lines registered")
	}
}

func TestUninstrumentedDetector(t *testing.T) {
	d, err := New(Options{HeapSize: 1 << 20, Uninstrumented: true})
	if err != nil {
		t.Fatal(err)
	}
	if d.Instrumented() {
		t.Error("Instrumented() = true")
	}
	th := d.Thread("solo")
	addr, _ := th.Alloc(64)
	th.Store64(addr, 42)
	if th.Load64(addr) != 42 {
		t.Error("data path broken")
	}
	rep := d.Report()
	if len(rep.Findings) != 0 {
		t.Error("uninstrumented detector produced findings")
	}
	if d.Stats().Accesses != 0 {
		t.Error("uninstrumented detector counted accesses")
	}
}

func TestGlobalsReported(t *testing.T) {
	cfg := DefaultRuntimeConfig()
	cfg.TrackingThreshold = 10
	cfg.ReportThreshold = 50
	cfg.SampleWindow = 0
	d, err := New(Options{HeapSize: 4 << 20, Runtime: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	gaddr, err := d.Heap().DefineGlobal("shared_counters", 64)
	if err != nil {
		t.Fatal(err)
	}
	t1, t2 := d.Thread("a"), d.Thread("b")
	for i := 0; i < 500; i++ {
		t1.Store64(gaddr, uint64(i))
		t2.Store64(gaddr+8, uint64(i))
	}
	fs := d.Report().FalseSharing()
	if len(fs) == 0 {
		t.Fatal("global false sharing not found")
	}
	if !strings.Contains(fs[0].Format(d.Geometry()), `GLOBAL VARIABLE "shared_counters"`) {
		t.Error("global not named in report")
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := New(Options{LineSize: 3}); err == nil {
		t.Error("bad line size accepted")
	}
	if _, err := New(Options{HeapSize: 12345}); err == nil {
		t.Error("bad heap size accepted")
	}
}

func TestDefaultRuntimeConfigPredicts(t *testing.T) {
	if !DefaultRuntimeConfig().Prediction {
		t.Error("default config must enable prediction")
	}
}
