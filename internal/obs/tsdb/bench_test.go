package tsdb

import (
	"testing"
	"time"

	"repro/internal/obs/metrics"
)

// benchRegistry builds a registry shaped like capmand's: a handful of
// counters, a labeled gauge family, and two histograms.
func benchRegistry() (*metrics.Registry, func()) {
	reg := metrics.NewRegistry()
	jobs := reg.Counter("jobs_total", "jobs")
	errs := reg.Counter("errs_total", "errs")
	depth := reg.GaugeVec("queue_depth", "depth", "queue")
	fast, slow := depth.WithLabelValues("fast"), depth.WithLabelValues("slow")
	temp := reg.GaugeFloatVec("zone_temp_celsius", "temp", "zone")
	cpu, body := temp.WithLabelValues("cpu"), temp.WithLabelValues("body")
	lat := reg.Histogram("decision_seconds", "lat", []float64{0.0001, 0.001, 0.01, 0.1, 1})
	wait := reg.Histogram("wait_seconds", "wait", []float64{0.01, 0.1, 1, 10})
	churn := func() {
		jobs.Inc()
		errs.Inc()
		fast.Set(3)
		slow.Set(5)
		cpu.Set(51.5)
		body.Set(36.0)
		lat.Observe(0.002)
		wait.Observe(0.2)
	}
	churn()
	return reg, churn
}

// BenchmarkStoreSample measures the steady-state sample path. benchjson
// hard-fails the build if allocs/op ever leaves zero — the same guard
// the twin engine step carries.
func BenchmarkStoreSample(b *testing.B) {
	reg, churn := benchRegistry()
	st, err := New(Config{Registry: reg})
	if err != nil {
		b.Fatal(err)
	}
	now := at(0)
	st.Sample(now) // materialize every series
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		churn()
		now = now.Add(time.Second)
		st.Sample(now)
	}
}

// TestSamplePathAllocFree pins the acceptance criterion directly: once
// the series set is stable, a Sample tick performs zero allocations.
func TestSamplePathAllocFree(t *testing.T) {
	reg, churn := benchRegistry()
	st, err := New(Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	now := at(0)
	st.Sample(now)
	allocs := testing.AllocsPerRun(200, func() {
		churn()
		now = now.Add(time.Second)
		st.Sample(now)
	})
	if allocs != 0 {
		t.Fatalf("Sample allocates %v/op in steady state, want 0", allocs)
	}
}

// BenchmarkStoreWindow measures one windowed read of a histogram series
// over a full ring (DefaultCapacity points): the read the live stream
// pump makes for each latency quantile on every tick.
func BenchmarkStoreWindow(b *testing.B) {
	reg, churn := benchRegistry()
	st, err := New(Config{Registry: reg})
	if err != nil {
		b.Fatal(err)
	}
	start := at(0)
	now := start
	for i := 0; i < DefaultCapacity; i++ {
		churn()
		now = now.Add(time.Second)
		st.Sample(now)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ws := st.Window("decision_seconds", nil, start, now); len(ws) != 1 {
			b.Fatalf("windows = %d, want 1", len(ws))
		}
	}
}
