package metrics

import (
	"bytes"
	"fmt"
	"os"
	"testing"
)

// goldenRegistry holds one family of every kind the registry offers,
// each with values whose rendering is fixed.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("g_ops_total", "Plain counter.").Add(7)
	cv := r.CounterVec("g_events_total", "Counter vec with\nnewline and \\ in help.", "reason", "stage")
	cv.WithLabelValues("boom", "run").Add(3)
	cv.WithLabelValues(`odd"value\with`+"\nnewline", "queue").Inc()
	r.CounterFloatVec("g_busy_seconds_total", "Float counter vec.", "phase").WithLabelValues("tec").Add(0.125)
	r.Gauge("g_depth", "Plain gauge.").Set(-4)
	gv := r.GaugeVec("g_breaker_state", "Gauge vec.", "entry")
	gv.WithLabelValues("video/dual").Set(2)
	gv.WithLabelValues("audio/capman").Set(0)
	r.GaugeFloatVec("g_zone_temp_celsius", "Float gauge vec.", "zone").WithLabelValues("cpu").Set(51.75)
	h := r.Histogram("g_wait_seconds", "Histogram.", []float64{0.001, 0.1, 10})
	for _, v := range []float64{0.0005, 0.05, 0.05, 5, 100} {
		h.Observe(v)
	}
	r.GaugeFunc("g_live", "Function-backed gauge.", func() float64 { return 2.5 })
	r.CounterFunc("g_gc_cycles_total", "Function-backed counter.", func() float64 { return 11 })
	r.Info("g_build_info", "Info.", map[string]string{"version": "v9", "go_version": "go1.x"})
	ov := r.CounterVec("g_spill_total", "Vector past its overflow bound.", "id")
	for i := 0; i < DefaultMaxSeries+3; i++ {
		ov.WithLabelValues(fmt.Sprintf("s%02d", i)).Inc()
	}
	return r
}

// TestExpositionGolden pins the /metrics bytes for every family kind:
// the exposition is an external format scrapers parse, so its rendering
// may change only on purpose.
func TestExpositionGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()
	want, err := os.ReadFile("testdata/exposition.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("exposition differs from testdata/exposition.golden:\n%s", got)
	}
}
