package tsdb

import (
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs/metrics"
)

// TestConcurrentScrapeSampleEngine drives everything that reads the
// same registry at once — Prometheus scrapes (Gather/WritePrometheus),
// the tsdb sampler, anomaly-engine evaluation (burn-rate included),
// range queries, windowed reductions, and instrument writers — and
// relies on `go test -race` (CI runs it) to prove the combination is
// safe. It also pins bit-stability: two queries of the quiesced store
// must agree exactly.
func TestConcurrentScrapeSampleEngine(t *testing.T) {
	reg := metrics.NewRegistry()
	jobs := reg.Counter("jobs_total", "jobs")
	depth := reg.GaugeVec("queue_depth", "depth", "queue")
	lat := reg.Histogram("lat_seconds", "lat", []float64{0.01, 0.1, 1})
	st := newTestStore(t, reg, Config{})
	eng, err := NewEngine(EngineConfig{
		Store: st,
		Detectors: []Detector{
			RateSpike{Metric: "jobs_total", Short: 50 * time.Millisecond, Long: 500 * time.Millisecond},
			BurnRate{Metric: "lat_seconds", Quantile: 0.99, Threshold: 1},
		},
		Anomalies: reg.CounterVec("capman_anomaly_total", "anomalies", "detector"),
	})
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	run := func(fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				fn()
			}
		}()
	}

	// Writers: instruments mutate continuously.
	run(func() {
		jobs.Inc()
		depth.WithLabelValues("fast").Set(int64(jobs.Value() % 10))
		lat.Observe(float64(jobs.Value()%100) / 500)
	})
	// Scrapers: the /metrics path.
	run(func() {
		_ = reg.WritePrometheus(io.Discard)
		_ = reg.Gather()
	})
	// Anomaly evaluation.
	run(func() { eng.Evaluate(time.Now()) })
	// Readers: queries and windows over live rings.
	run(func() {
		now := time.Now()
		_, _ = st.Query(Query{Metric: "lat_seconds", Start: now.Add(-time.Second), End: now, Op: OpQuantile, Q: 0.99})
		_ = st.Window("jobs_total", nil, now.Add(-time.Second), now)
		_ = st.Metrics()
	})
	// The sampler: exactly one goroutine, as the Store contract demands.
	wg.Add(1)
	go func() {
		defer wg.Done()
		now := time.Now()
		for !stop.Load() {
			st.Sample(now)
			now = now.Add(time.Millisecond)
		}
	}()

	time.Sleep(200 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if st.Samples() == 0 {
		t.Fatal("sampler made no progress")
	}
	// Quiesced store: concurrent readers must be bit-stable.
	now := time.Now()
	q := Query{Metric: "jobs_total", Start: now.Add(-time.Minute), End: now, Op: OpRate}
	a, err := st.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Series) != len(b.Series) {
		t.Fatalf("quiesced queries disagree: %d vs %d series", len(a.Series), len(b.Series))
	}
	for i := range a.Series {
		ap, bp := a.Series[i].Points, b.Series[i].Points
		if len(ap) != len(bp) {
			t.Fatalf("series %d: %d vs %d points", i, len(ap), len(bp))
		}
		for j := range ap {
			if ap[j] != bp[j] {
				t.Fatalf("series %d point %d: %+v vs %+v", i, j, ap[j], bp[j])
			}
		}
	}
}
