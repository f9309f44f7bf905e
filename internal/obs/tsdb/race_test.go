package tsdb

import (
	"io"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs/metrics"
)

// TestConcurrentScrapeSampleEngine drives everything that reads the
// same registry at once — two concurrent Prometheus scrapes, the tsdb
// sampler, anomaly-engine evaluation (burn-rate included), windowed
// reductions, and instrument writers — and relies on
// `go test -race` (CI runs it) to prove the combination is safe. It also
// pins bit-stability: two windows read from the quiesced store must
// agree exactly.
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
	// Scrapers: the /metrics path, two at once.
	for i := 0; i < 2; i++ {
		run(func() { _ = reg.WritePrometheus(io.Discard) })
	}
	// Anomaly evaluation.
	run(func() { eng.Evaluate(time.Now()) })
	// Readers: windows over live rings.
	run(func() {
		now := time.Now()
		for _, ws := range st.Window("lat_seconds", nil, now.Add(-time.Second), now) {
			_, _ = ws.Quantile(0.99)
		}
		_ = st.Window("jobs_total", nil, now.Add(-time.Second), now)
		_ = st.Window("queue_depth", map[string]string{"queue": "fast"}, now.Add(-time.Second), now)
	})
	// The sampler: exactly one goroutine, as the Store contract demands.
	// Its clock runs ahead of the wall clock; last is its final tick.
	var last time.Time
	wg.Add(1)
	go func() {
		defer wg.Done()
		now := time.Now()
		for !stop.Load() {
			st.Sample(now)
			last = now
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
	for _, metric := range []string{"jobs_total", "lat_seconds"} {
		a := st.Window(metric, nil, last.Add(-time.Minute), last)
		b := st.Window(metric, nil, last.Add(-time.Minute), last)
		if len(a) == 0 || !reflect.DeepEqual(a, b) {
			t.Fatalf("quiesced %s windows disagree or are empty:\n%+v\n%+v", metric, a, b)
		}
	}
}
