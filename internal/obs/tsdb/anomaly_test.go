package tsdb

import (
	"testing"
	"time"

	"repro/internal/obs/metrics"
)

// TestStuckMetric covers the wedged-worker shape: completions flat while
// submissions climb.
func TestStuckMetric(t *testing.T) {
	reg := metrics.NewRegistry()
	done := reg.Counter("done_total", "done")
	subm := reg.Counter("submitted_total", "submitted")
	st := newTestStore(t, reg, Config{})

	d := StuckMetric{Metric: "done_total", Activity: "submitted_total", Window: 10 * time.Second}

	// Healthy phase: both move.
	for i := 0; i < 12; i++ {
		subm.Inc()
		done.Inc()
		st.Sample(at(time.Duration(i) * time.Second))
	}
	if got := d.Evaluate(at(11*time.Second), st); len(got) != 0 {
		t.Fatalf("alerted on a healthy system: %+v", got)
	}

	// Wedged phase: submissions keep climbing, completions stop.
	for i := 12; i < 24; i++ {
		subm.Inc()
		st.Sample(at(time.Duration(i) * time.Second))
	}
	got := d.Evaluate(at(23*time.Second), st)
	if len(got) != 1 {
		t.Fatalf("alerts = %+v, want 1", got)
	}
	if got[0].Detector != "stuck-metric" || got[0].Metric != "done_total" {
		t.Errorf("alert = %+v", got[0])
	}

	// Quiet phase: nothing moves — flatness is expected, no alert.
	for i := 24; i < 36; i++ {
		st.Sample(at(time.Duration(i) * time.Second))
	}
	if got := d.Evaluate(at(35*time.Second), st); len(got) != 0 {
		t.Fatalf("alerted on a quiet system: %+v", got)
	}
}

// TestRateSpike covers acceleration past the trailing baseline.
func TestRateSpike(t *testing.T) {
	reg := metrics.NewRegistry()
	errs := reg.Counter("errs_total", "errs")
	st := newTestStore(t, reg, Config{})

	d := RateSpike{Metric: "errs_total", Short: 10 * time.Second, Long: 60 * time.Second, Factor: 4}

	// Baseline: 1 error every 10s for 60s (0.1/s).
	for i := 0; i <= 60; i++ {
		if i%10 == 0 && i > 0 {
			errs.Inc()
		}
		st.Sample(at(time.Duration(i) * time.Second))
	}
	if got := d.Evaluate(at(60*time.Second), st); len(got) != 0 {
		t.Fatalf("alerted on steady baseline: %+v", got)
	}

	// Spike: 5 errors per second for the next 10s (50x baseline).
	for i := 61; i <= 70; i++ {
		errs.Add(5)
		st.Sample(at(time.Duration(i) * time.Second))
	}
	got := d.Evaluate(at(70*time.Second), st)
	if len(got) != 1 {
		t.Fatalf("alerts = %+v, want 1", got)
	}
	a := got[0]
	if a.Detector != "rate-spike" || a.Value <= 4*a.Baseline {
		t.Errorf("alert = %+v", a)
	}
}

// TestBurnRate covers the generalized SRE multi-window rule: both
// windows must burn before it pages.
func TestBurnRate(t *testing.T) {
	reg := metrics.NewRegistry()
	lat := reg.Histogram("lat_seconds", "lat", []float64{0.1, 1})
	st := newTestStore(t, reg, Config{})

	d := BurnRate{
		Metric: "lat_seconds", Quantile: 0.9, Threshold: 1,
		Short: 10 * time.Second, Long: 60 * time.Second,
	}

	// Healthy hour: one fast observation per tick.
	for i := 0; i <= 50; i++ {
		lat.Observe(0.05)
		st.Sample(at(time.Duration(i) * time.Second))
	}
	if got := d.Evaluate(at(50*time.Second), st); len(got) != 0 {
		t.Fatalf("alerted while healthy: %+v", got)
	}

	// Incident: every observation slow for 10s. Short window burns at
	// 10x; the long window has 10 bad of 61 (≈16% > 10% budget) so it
	// burns too.
	for i := 51; i <= 60; i++ {
		lat.Observe(5)
		st.Sample(at(time.Duration(i) * time.Second))
	}
	got := d.Evaluate(at(60*time.Second), st)
	if len(got) != 1 {
		t.Fatalf("alerts = %+v, want 1", got)
	}
	if a := got[0]; a.Detector != "burn-rate" || a.Value <= 1 || a.Baseline <= 1 {
		t.Errorf("alert = %+v", a)
	}
	// Objectives with no error budget or no threshold are never judged.
	for _, bad := range []BurnRate{
		{Metric: "lat_seconds", Quantile: 0, Threshold: 1},
		{Metric: "lat_seconds", Quantile: 1, Threshold: 1},
		{Metric: "lat_seconds", Quantile: 0.9, Threshold: 0},
	} {
		if got := bad.Evaluate(at(60*time.Second), st); len(got) != 0 {
			t.Errorf("invalid objective %+v alerted: %+v", bad, got)
		}
	}

	// Recovery: once the incident has aged out of the short window, the
	// rule goes quiet even though the long window still burns.
	for i := 61; i <= 75; i++ {
		lat.Observe(0.05)
		st.Sample(at(time.Duration(i) * time.Second))
	}
	if got := d.Evaluate(at(75*time.Second), st); len(got) != 0 {
		t.Errorf("still alerting after the short window aged out: %+v", got)
	}

	// A short blip that the long window absorbs must NOT page: rebuild
	// with a long healthy history so the long burn stays under budget.
	reg2 := metrics.NewRegistry()
	lat2 := reg2.Histogram("lat_seconds", "lat", []float64{0.1, 1})
	st2 := newTestStore(t, reg2, Config{})
	for i := 0; i <= 55; i++ {
		lat2.Observe(0.05)
		lat2.Observe(0.05)
		st2.Sample(at(time.Duration(i) * time.Second))
	}
	for i := 56; i <= 60; i++ {
		lat2.Observe(5)
		st2.Sample(at(time.Duration(i) * time.Second))
	}
	// Short window: 5 bad of 15 → burns at 3.3x. Long: 5 bad of 115
	// (≈4%) → under the 10% budget.
	if got := st2.Window("lat_seconds", nil, at(50*time.Second), at(60*time.Second)); len(got) == 0 {
		t.Fatal("no window stats")
	}
	if got := d.Evaluate(at(60*time.Second), st2); len(got) != 0 {
		t.Fatalf("paged on a blip the long window absorbs: %+v", got)
	}
}

// TestEngine covers cooldown suppression, the anomaly counter, and the
// OnAlert hook.
func TestEngine(t *testing.T) {
	reg := metrics.NewRegistry()
	done := reg.Counter("done_total", "done")
	subm := reg.Counter("submitted_total", "submitted")
	st := newTestStore(t, reg, Config{})
	anomalies := reg.CounterVec("capman_anomaly_total", "anomalies", "detector")

	var hooked []Alert
	eng, err := NewEngine(EngineConfig{
		Store: st,
		Detectors: []Detector{
			StuckMetric{Metric: "done_total", Activity: "submitted_total", Window: 10 * time.Second},
		},
		Anomalies: anomalies,
		OnAlert:   func(a Alert) { hooked = append(hooked, a) },
	})
	if err != nil {
		t.Fatal(err)
	}

	// Build a wedged system: submissions climb, completions frozen.
	done.Inc()
	for i := 0; i < 20; i++ {
		subm.Inc()
		st.Sample(at(time.Duration(i) * time.Second))
	}

	if fired := eng.Evaluate(at(20 * time.Second)); len(fired) != 1 {
		t.Fatalf("first eval fired %d alerts, want 1", len(fired))
	}
	// Within cooldown: suppressed.
	st.Sample(at(21 * time.Second))
	if fired := eng.Evaluate(at(21 * time.Second)); len(fired) != 0 {
		t.Fatalf("cooldown did not suppress: %+v", fired)
	}
	// Past cooldown, still wedged: fires again.
	for i := 22; i < 90; i++ {
		subm.Inc()
		st.Sample(at(time.Duration(i) * time.Second))
	}
	if fired := eng.Evaluate(at(90 * time.Second)); len(fired) != 1 {
		t.Fatalf("post-cooldown eval fired %d alerts, want 1", len(fired))
	}

	if got := anomalies.WithLabelValues("stuck-metric").Value(); got != 2 {
		t.Errorf("capman_anomaly_total{detector=stuck-metric} = %d, want 2", got)
	}
	if len(hooked) != 2 {
		t.Errorf("OnAlert called %d times, want 2", len(hooked))
	}
	if names := eng.Detectors(); len(names) != 1 || names[0] != "stuck-metric" {
		t.Errorf("Detectors() = %v", names)
	}
}

// TestEngineStartStop exercises the real ticker loop briefly.
func TestEngineStartStop(t *testing.T) {
	reg := metrics.NewRegistry()
	st := newTestStore(t, reg, Config{})
	eng, err := NewEngine(EngineConfig{
		Store:     st,
		Detectors: []Detector{StuckMetric{Metric: "nope_total"}},
		Interval:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	time.Sleep(5 * time.Millisecond)
	eng.Stop() // must not hang or panic

	// An engine with no detectors is inert.
	inert, _ := NewEngine(EngineConfig{Store: st})
	inert.Start()
	inert.Stop()

	if _, err := NewEngine(EngineConfig{}); err == nil {
		t.Error("NewEngine accepted a nil store")
	}
}
