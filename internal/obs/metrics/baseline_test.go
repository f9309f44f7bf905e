package metrics

import (
	"reflect"
	"testing"

	"repro/internal/obs"
)

// baselineRegistry has one family of every kind and returns a func
// that moves some of their series.
func baselineRegistry() (*Registry, func()) {
	r := NewRegistry()
	c := r.Counter("b_ops_total", "")
	cv := r.CounterVec("b_events_total", "", "reason")
	fcv := r.CounterFloatVec("b_busy_seconds_total", "", "phase")
	g := r.Gauge("b_depth", "")
	r.Gauge("b_idle", "").Set(9)
	gv := r.GaugeVec("b_breaker_state", "", "entry")
	fgv := r.GaugeFloatVec("b_zone_temp_celsius", "", "zone")
	h := r.Histogram("b_wait_seconds", "", []float64{1})
	live, cycles := 1.0, 5.0
	r.GaugeFunc("b_live", "", func() float64 { return live })
	r.CounterFunc("b_gc_cycles_total", "", func() float64 { return cycles })
	r.Info("b_build_info", "", map[string]string{"version": "t"})
	c.Add(2)
	cv.WithLabelValues("boom").Inc()
	fcv.WithLabelValues("tec").Add(0.5)
	g.Set(4)
	gv.WithLabelValues("x").Set(0)
	gv.WithLabelValues("y").Set(1)
	fgv.WithLabelValues("cpu").Set(40.5)
	h.Observe(2)
	return r, func() {
		c.Inc()
		cv.WithLabelValues("boom").Inc()
		cv.WithLabelValues("calm").Inc()
		cv.WithLabelValues("quiet") // new, still zero: not a move
		fcv.WithLabelValues("tec").Add(0.25)
		g.Set(1)
		gv.WithLabelValues("x").Set(2)
		gv.WithLabelValues("y").Set(1) // rewritten unchanged
		fgv.WithLabelValues("cpu").Set(41.25)
		h.Observe(0.5)
		live, cycles = 3, 6
		r.Counter("b_late_total", "").Inc() // registered after the baseline
	}
}

// TestBaselineDelta pins what a failed job's record reports: every
// stored series whose value moved since Take, with its before and after,
// and nothing that held still. Info series never move, so never appear;
// function-backed families are not stored, so never appear even when
// they move.
func TestBaselineDelta(t *testing.T) {
	r, move := baselineRegistry()
	var b Baseline
	b.Take(r)
	move()
	want := []obs.MetricDelta{
		{Name: "b_breaker_state", Labels: map[string]string{"entry": "x"}, Kind: KindGauge, Before: 0, After: 2},
		{Name: "b_busy_seconds_total", Labels: map[string]string{"phase": "tec"}, Kind: KindCounter, Before: 0.5, After: 0.75},
		{Name: "b_depth", Kind: KindGauge, Before: 4, After: 1},
		{Name: "b_events_total", Labels: map[string]string{"reason": "boom"}, Kind: KindCounter, Before: 1, After: 2},
		{Name: "b_events_total", Labels: map[string]string{"reason": "calm"}, Kind: KindCounter, Before: 0, After: 1},
		{Name: "b_late_total", Kind: KindCounter, Before: 0, After: 1},
		{Name: "b_ops_total", Kind: KindCounter, Before: 2, After: 3},
		{Name: "b_wait_seconds_count", Kind: KindCounter, Before: 1, After: 2},
		{Name: "b_wait_seconds_sum", Kind: KindCounter, Before: 2, After: 2.5},
		{Name: "b_zone_temp_celsius", Labels: map[string]string{"zone": "cpu"}, Kind: KindGauge, Before: 40.5, After: 41.25},
	}
	got := b.Delta()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("deltas\n%+v\nwant\n%+v", got, want)
	}
	for _, d := range got {
		if d.Name == "b_live" || d.Name == "b_gc_cycles_total" {
			t.Errorf("function-backed family %s in the deltas", d.Name)
		}
	}
}

// TestBaselineAllocFree: once its buffer has grown, taking a baseline
// allocates nothing.
func TestBaselineAllocFree(t *testing.T) {
	r, _ := baselineRegistry()
	RegisterRuntime(r, "t")
	var b Baseline
	b.Take(r)
	if n := testing.AllocsPerRun(100, func() { b.Take(r) }); n != 0 {
		t.Errorf("Baseline.Take allocates %v per call, want 0", n)
	}
	var nilReg *Registry
	b.Take(nilReg)
	if d := b.Delta(); d != nil {
		t.Errorf("nil registry deltas %v", d)
	}
}
