package server

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
)

func TestSpecHashIgnoresDefaultedFields(t *testing.T) {
	implicit := JobSpec{Workload: "video", Policy: "capman"}
	explicit := JobSpec{
		Profile: "Nexus", Workload: "video", Policy: "capman",
		BigChemistry: "NCA", LittleChemistry: "LMO",
		BigMAh: 2500, LittleMAh: 2500,
		DT: 0.25, MaxTimeS: 1e6, Cycles: 1,
	}
	h1, err := implicit.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := explicit.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Errorf("defaulted and explicit specs hash differently:\n%s\n%s", h1, h2)
	}
}

func TestSpecHashSeparatesDistinctJobs(t *testing.T) {
	base := JobSpec{Workload: "video", Policy: "capman"}
	variants := []JobSpec{
		{Workload: "video", Policy: "capman", Seed: 1},
		{Workload: "pcmark", Policy: "capman"},
		{Workload: "video", Policy: "dual"},
		{Workload: "video", Policy: "capman", BigMAh: 3000},
		{Workload: "video", Policy: "capman", DisableTEC: true},
		{Workload: "video", Policy: "capman", Cycles: 3},
	}
	h0, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{h0: -1}
	for i, v := range variants {
		h, err := v.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[h]; dup {
			t.Errorf("variant %d collides with %d", i, prev)
		}
		seen[h] = i
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []JobSpec{
		{DT: -1},
		{MaxTimeS: -5},
		{Cycles: -1},
		{BigMAh: -100},
		{ThresholdW: -0.5},
		{AmbientC: -41},
		{AmbientC: 61},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d validated", i)
		}
	}
	if err := (JobSpec{}).Validate(); err != nil {
		t.Errorf("zero spec (all defaults) rejected: %v", err)
	}
	if err := (JobSpec{AmbientC: 30}).Validate(); err != nil {
		t.Errorf("hot-room spec rejected: %v", err)
	}

	// NaN, +Inf and -Inf in every float field of the spec and of its tte
	// parameters; NaN would pass each range comparison.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		st := reflect.TypeOf(JobSpec{})
		for i := 0; i < st.NumField(); i++ {
			if st.Field(i).Type.Kind() != reflect.Float64 {
				continue
			}
			var s JobSpec
			reflect.ValueOf(&s).Elem().Field(i).SetFloat(v)
			if err := s.Validate(); !errors.Is(err, ErrBadSpec) {
				t.Errorf("%s = %v: err %v, want ErrBadSpec", st.Field(i).Name, v, err)
			}
		}
		tt := reflect.TypeOf(TTEParams{})
		for i := 0; i < tt.NumField(); i++ {
			if tt.Field(i).Type.Kind() != reflect.Float64 {
				continue
			}
			s := JobSpec{Kind: "tte", TTE: &TTEParams{Twins: 4}}
			reflect.ValueOf(s.TTE).Elem().Field(i).SetFloat(v)
			if err := s.Validate(); !errors.Is(err, ErrBadSpec) {
				t.Errorf("tte %s = %v: err %v, want ErrBadSpec", tt.Field(i).Name, v, err)
			}
		}
	}
}

func TestRegistryResolveAndExtension(t *testing.T) {
	r := DefaultRegistry()
	cfg, err := r.Resolve(JobSpec{Workload: "video", Policy: "capman"})
	if err != nil {
		t.Fatalf("resolve default spec: %v", err)
	}
	if cfg.Policy == nil || cfg.Workload == nil || cfg.TEC == nil {
		t.Error("resolved config missing components")
	}
	cfg, err = r.Resolve(JobSpec{Workload: "video", Policy: "practice"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Single == nil {
		t.Error("practice policy did not install a single cell")
	}
	cfg, err = r.Resolve(JobSpec{Workload: "video", Policy: "dual", AmbientC: 30})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Thermal.AmbientC != 30 {
		t.Errorf("ambientC not applied: thermal ambient %v", cfg.Thermal.AmbientC)
	}
	if _, err := r.Resolve(JobSpec{Workload: "mystery", Policy: "capman"}); err == nil ||
		!strings.Contains(err.Error(), "mystery") {
		t.Errorf("unknown workload error %v", err)
	}

	// Resolution picks up late registrations.
	if err := r.RegisterPolicy("always-big", func(s JobSpec, cfg *sim.Config) error {
		cfg.Policy = &sched.Threshold{WattThreshold: 0}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Resolve(JobSpec{Workload: "video", Policy: "always-big"}); err != nil {
		t.Errorf("late-registered policy did not resolve: %v", err)
	}
	if err := r.RegisterWorkload("", nil); err == nil {
		t.Error("empty workload registration accepted")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	a, b, d := traceKey(1), traceKey(2), traceKey(3)
	for _, k := range []CacheKey{a, b} {
		c.put(&cacheEntry{key: k, outcome: &Outcome{}})
	}
	if _, ok := c.lookup(a); !ok { // refresh a; b is now LRU
		t.Fatal("a missing")
	}
	c.put(&cacheEntry{key: d, outcome: &Outcome{}})
	if _, ok := c.lookup(b); ok {
		t.Error("LRU entry b survived eviction")
	}
	if _, ok := c.lookup(a); !ok {
		t.Error("recently used entry a evicted")
	}
	if c.order.Len() != 2 {
		t.Errorf("cache len %d, want 2", c.order.Len())
	}

	off := NewCache(-1)
	off.put(&cacheEntry{key: a, outcome: &Outcome{}})
	if _, ok := off.lookup(a); ok {
		t.Error("disabled cache stored an entry")
	}
}

func TestMetricsExposition(t *testing.T) {
	m := NewMetrics()
	m.JobsSubmitted.Inc()
	m.JobsSubmitted.Inc()
	m.CacheHits.Inc()
	m.QueueDepth.Set(3)
	m.WorkersBusy.Add(2)
	m.WorkersBusy.Add(-1)
	m.JobWallSeconds.Observe(0.5)
	m.JobWallSeconds.Observe(1.25)

	var sb strings.Builder
	if err := m.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"capmand_jobs_submitted_total 2",
		"capmand_cache_hits_total 1",
		"capmand_queue_depth 3",
		"capmand_workers_busy 1",
		"capmand_job_wall_seconds_sum 1.75",
		"capmand_job_wall_seconds_count 2",
		"# TYPE capmand_jobs_submitted_total counter",
		"# TYPE capmand_queue_depth gauge",
		"# TYPE capmand_job_wall_seconds histogram",
		`capmand_job_wall_seconds_bucket{le="+Inf"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}
