package metrics

import (
	"strings"
	"testing"
)

// collectVisitor gathers visited samples for assertions.
type collectVisitor struct{ got []StoredSample }

func (c *collectVisitor) VisitStored(s StoredSample) { c.got = append(c.got, s) }

// TestVisitStored covers the walk order, the skipping of function-backed
// families, scalar value extraction, and the stability of Ref across
// visits.
func TestVisitStored(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("a_jobs_total", "jobs")
	c.Add(3)
	gv := reg.GaugeVec("b_depth", "depth", "queue")
	gv.WithLabelValues("fast").Set(7)
	gv.WithLabelValues("slow").Set(9)
	reg.GaugeFloatVec("c_temp_est", "temperature", "zone").WithLabelValues("cpu").Set(36.5)
	h := reg.Histogram("d_wait_seconds", "wait", []float64{1, 2})
	h.Observe(1.5)
	reg.GaugeFunc("e_func_level", "func-backed, must be skipped", func() float64 { return 1 })
	reg.Info("f_build_info", "info: an ordinary gauge series", map[string]string{"version": "v1"})

	var v collectVisitor
	reg.VisitStored(&v)

	names := make([]string, 0, len(v.got))
	for _, s := range v.got {
		names = append(names, s.Name)
	}
	want := "a_jobs_total b_depth b_depth c_temp_est d_wait_seconds f_build_info"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("visit order %q, want %q", got, want)
	}
	if v.got[0].Value != 3 || v.got[0].Kind != KindCounter {
		t.Errorf("counter sample = %+v", v.got[0])
	}
	if v.got[1].Values[0] != "fast" || v.got[1].Value != 7 {
		t.Errorf("first gauge series = %+v", v.got[1])
	}
	if v.got[3].Value != 36.5 || v.got[5].Value != 1 || v.got[5].Values[0] != "v1" {
		t.Errorf("float gauge or info samples = %+v, %+v", v.got[3], v.got[5])
	}
	hs := v.got[4]
	if hs.Hist == nil || hs.Kind != KindHistogram {
		t.Fatalf("histogram sample = %+v", hs)
	}
	sum, count := 0.0, uint64(0)
	scratch := make([]uint64, len(hs.Hist.Bounds())+1)
	sum, count = hs.Hist.ReadInto(scratch)
	if sum != 1.5 || count != 1 || scratch[1] != 1 {
		t.Errorf("ReadInto sum=%v count=%v buckets=%v", sum, count, scratch)
	}

	// Refs are stable across visits: the sampler keys per-series state
	// on them.
	var v2 collectVisitor
	reg.VisitStored(&v2)
	for i := range v.got {
		if v.got[i].Ref != v2.got[i].Ref {
			t.Fatalf("Ref for %s not stable across visits", v.got[i].Name)
		}
	}
}

// TestVisitStoredAllocFree pins the steady-state walk at zero
// allocations — the contract the tsdb sample path builds on.
func TestVisitStoredAllocFree(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_jobs_total", "jobs").Add(1)
	gv := reg.GaugeVec("b_depth", "depth", "queue")
	gv.WithLabelValues("fast").Set(1)
	reg.Histogram("d_wait_seconds", "wait", []float64{1, 2}).Observe(0.5)
	var v nopVisitor
	reg.VisitStored(&v) // warm the family/series caches
	if allocs := testing.AllocsPerRun(100, func() { reg.VisitStored(&v) }); allocs != 0 {
		t.Fatalf("VisitStored allocates %v/op, want 0", allocs)
	}
}

type nopVisitor struct{ n int }

func (v *nopVisitor) VisitStored(StoredSample) { v.n++ }

// TestGaugeFloat covers the float gauge's contract and its exposition
// rendering.
func TestGaugeFloat(t *testing.T) {
	reg := NewRegistry()
	vec := reg.GaugeFloatVec("zone_temp_by_zone_est", "temp by zone", "zone")
	g := vec.WithLabelValues("cpu")
	g.Set(52)
	g.Add(-0.25)
	if got := g.Value(); got != 51.75 {
		t.Fatalf("Value = %v, want 51.75", got)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`zone_temp_by_zone_est{zone="cpu"} 51.75`,
		"# TYPE zone_temp_by_zone_est gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}

	// Nil-safety: all methods no-op.
	var nilG *GaugeFloat
	nilG.Set(1)
	nilG.Add(1)
	if nilG.Value() != 0 {
		t.Error("nil GaugeFloat has a value")
	}
	var nilReg *Registry
	if nilReg.GaugeFloatVec("y_est", "y", "l") != nil {
		t.Error("nil registry returned non-nil float gauges")
	}
}
