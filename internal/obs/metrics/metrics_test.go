package metrics

import (
	"fmt"
	"strings"
	"testing"
)

func TestScalarInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	cf := r.CounterFloatVec("test_busy_seconds_total", "busy", "phase").WithLabelValues("tec")
	cf.Add(1.5)
	cf.Add(0.25)
	cf.Add(-3) // ignored: totals are monotone
	if got := cf.Value(); got != 1.75 {
		t.Fatalf("counterfloat = %v, want 1.75", got)
	}
	g := r.Gauge("test_depth", "depth")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	h := r.Histogram("test_wait_seconds", "wait", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(2)
	if h.Count() != 2 || h.Sum() != 2.05 {
		t.Fatalf("histogram count=%d sum=%v, want 2, 2.05", h.Count(), h.Sum())
	}
	if h.Base() == nil {
		t.Fatal("Base() = nil for live histogram")
	}
}

func TestVectorsAndCardinalityBound(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_events_total", "events", "reason")
	v.WithLabelValues("a").Inc()
	v.WithLabelValues("a").Inc()
	v.WithLabelValues("b").Add(3)
	if got := v.WithLabelValues("a").Value(); got != 2 {
		t.Fatalf(`series "a" = %d, want 2`, got)
	}
	if got := v.WithLabelValues("b").Value(); got != 3 {
		t.Fatalf(`series "b" = %d, want 3`, got)
	}

	// Cardinality bound: series beyond the cap share one overflow series.
	for i := 2; i < DefaultMaxSeries; i++ {
		v.WithLabelValues(fmt.Sprintf("s%02d", i))
	}
	if got := v.Dropped(); got != 0 {
		t.Fatalf("Dropped() = %d at the bound, want 0", got)
	}
	v.WithLabelValues("c").Inc()
	v.WithLabelValues("d").Inc()
	if got := v.Dropped(); got != 2 {
		t.Fatalf("Dropped() = %d, want 2", got)
	}
	if got := v.WithLabelValues("zzz").Value(); got != 2 {
		t.Fatalf("overflow series = %d, want 2 (c and d spills)", got)
	}
	var exp strings.Builder
	if err := r.WritePrometheus(&exp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(exp.String(), `test_events_total{reason="overflow"} 2`) {
		t.Fatalf("exposition missing overflow sentinel:\n%s", exp.String())
	}
}

func TestNilRegistryAndInstruments(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "")
	g := r.Gauge("x", "")
	h := r.Histogram("x_seconds", "", []float64{1})
	cv := r.CounterVec("x2_total", "", "l")
	gv := r.GaugeVec("x2", "", "l")
	fv := r.CounterFloatVec("x2_seconds_total", "", "l")
	gfv := r.GaugeFloatVec("x2_celsius", "", "l")
	r.GaugeFunc("x3", "", nil)
	r.CounterFunc("x3_total", "", nil)
	r.Info("x_info", "", nil)
	RegisterRuntime(r, "v1")

	c.Inc()
	c.Add(2)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	cv.WithLabelValues("a").Inc()
	gv.WithLabelValues("a").Set(1)
	fv.WithLabelValues("a").Add(1)
	gfv.WithLabelValues("a").Set(1)
	if c.Value() != 0 || fv.WithLabelValues("a").Value() != 0 || gfv.WithLabelValues("a").Value() != 0 ||
		g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	if h.Base() != nil || h.Snapshot().Count != 0 {
		t.Fatal("nil histogram must have nil base and zero snapshot")
	}
	if cv.Dropped() != 0 || gv.Dropped() != 0 || fv.Dropped() != 0 || gfv.Dropped() != 0 {
		t.Fatal("nil vec Dropped must be 0")
	}
	var v nopVisitor
	r.VisitStored(&v)
	if v.n != 0 {
		t.Fatalf("nil VisitStored visited %d series", v.n)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil WritePrometheus wrote %q, err %v", sb.String(), err)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Gauge("dup_total", "")
}

func TestRegistrationValidatesNames(t *testing.T) {
	bad := []func(r *Registry){
		func(r *Registry) { r.Counter("noSuffix", "") },
		func(r *Registry) { r.Counter("x_count", "") },          // counters end _total
		func(r *Registry) { r.Gauge("x_total", "") },            // _total reserved
		func(r *Registry) { r.Histogram("x_stuff", "", nil) },   // unit suffix
		func(r *Registry) { r.Counter("Bad_total", "") },        // snake_case
		func(r *Registry) { r.Counter("x__y_total", "") },       // double underscore
		func(r *Registry) { r.CounterVec("x_total", "", "le") }, // reserved label
		func(r *Registry) { r.CounterVec("x_total", "", "Bad") },
	}
	for i, reg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: invalid registration did not panic", i)
				}
			}()
			reg(NewRegistry())
		}()
	}
}

func TestCheckName(t *testing.T) {
	cases := []struct {
		kind, name string
		ok         bool
	}{
		{KindCounter, "capmand_jobs_submitted_total", true},
		{KindCounter, "capmand_jobs_submitted", false},
		{KindGauge, "capmand_queue_depth", true},
		{KindGauge, "capmand_oops_total", false},
		{KindGauge, "capman_build_info", true},
		{KindHistogram, "capmand_job_wall_seconds", true},
		{KindHistogram, "capmand_job_wall", false},
		{KindHistogram, "capman_heap_bytes", true},
		{"summary", "x_seconds", false},
	}
	for _, c := range cases {
		err := CheckName(c.kind, c.name)
		if (err == nil) != c.ok {
			t.Errorf("CheckName(%s, %s) = %v, want ok=%v", c.kind, c.name, err, c.ok)
		}
	}
}

func TestLabelArityMismatchPanics(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("x_total", "", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch did not panic")
		}
	}()
	v.WithLabelValues("only-one")
}
