package metrics

import (
	"reflect"
	"testing"

	"repro/internal/obs"
)

// baselineRegistry has every kind of family a capmand registry carries.
func baselineRegistry() (*Registry, func()) {
	r := NewRegistry()
	c := r.Counter("b_ops_total", "")
	g := r.Gauge("b_depth", "")
	h := r.Histogram("b_wait_seconds", "", []float64{1})
	v := r.CounterVec("b_events_total", "", "reason")
	gauge := 1.0
	r.GaugeFunc("b_live", "", func() float64 { return gauge })
	r.Info("b_build_info", "", map[string]string{"version": "t"})
	RegisterRuntime(r, "t")
	c.Add(2)
	g.Set(4)
	h.Observe(2)
	v.WithLabelValues("boom").Inc()
	return r, func() {
		c.Inc()
		g.Set(1)
		h.Observe(0.5)
		v.WithLabelValues("boom").Inc()
		v.WithLabelValues("calm").Inc()
		gauge = 3
	}
}

// TestBaselineDeltaMatchesGather: a baseline's deltas are the deltas of
// two full gathers over the series it covers (everything but the Info
// family).
func TestBaselineDeltaMatchesGather(t *testing.T) {
	r, move := baselineRegistry()
	var b Baseline
	b.Take(r)
	before := r.Gather()
	move()
	after := r.Gather()

	got := b.Delta()
	var want []Sample
	for _, s := range after {
		if s.Name != "b_build_info" {
			want = append(want, s)
		}
	}
	wantDeltas := DeltaSamples(before, want)
	// Uptime and memory gauges move between the two reads; compare the
	// series this test moved.
	pick := func(ds []obs.MetricDelta) map[string]obs.MetricDelta {
		out := map[string]obs.MetricDelta{}
		for _, d := range ds {
			if d.Name[:2] == "b_" {
				out[d.Name+labelKey(d.Labels)] = d
			}
		}
		return out
	}
	if g, w := pick(got), pick(wantDeltas); !reflect.DeepEqual(g, w) {
		t.Errorf("baseline deltas\n%v\nwant\n%v", g, w)
	}
	for _, d := range got {
		if d.Name == "b_build_info" {
			t.Errorf("Info family %s in deltas", d.Name)
		}
	}
	if len(pick(got)) != 7 { // ops, depth, wait sum+count, boom, calm, live
		t.Errorf("got %d moved series, want 7: %v", len(pick(got)), got)
	}
}

// TestBaselineAllocFree: once its buffer has grown, taking a baseline
// allocates nothing.
func TestBaselineAllocFree(t *testing.T) {
	r, _ := baselineRegistry()
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
