package server

import (
	"slices"
	"testing"
)

// TestPerKindAccounting runs one sim job and one tte cohort through one
// executor and pins what each kind contributes on its own: the wall
// histogram counts both, the tte latency histogram only the cohort, each
// job gets the breaker entry its kind names, and its record carries the
// kind and the submitted detail.
func TestPerKindAccounting(t *testing.T) {
	m := NewMetrics()
	e := newTestExecutor(t, ExecutorConfig{Workers: 1, Metrics: m})
	specs := []struct {
		spec   JobSpec
		kind   string
		detail string
	}{
		{JobSpec{Workload: "video", Seed: 42, Policy: "capman", BigMAh: 300, LittleMAh: 300, MaxTimeS: 20000},
			"sim", "workload video policy capman"},
		{tteSpec(), "tte", "tte workload video"},
	}
	for _, c := range specs {
		v, err := e.Submit(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		done := awaitExec(t, e, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")
		if done.State != StateDone {
			t.Fatalf("%s job ended %q: %s", c.kind, done.State, done.Error)
		}
		rec, err := e.JobTrace(v.ID)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Kind != c.kind {
			t.Errorf("%s job record kind = %q", c.kind, rec.Kind)
		}
		var submitted []string
		for _, ev := range allEvents(rec.Spans) {
			if ev.Name == EventSubmitted {
				submitted = append(submitted, ev.Detail)
			}
		}
		if !slices.Equal(submitted, []string{c.detail}) {
			t.Errorf("%s job submitted details = %q, want [%q]", c.kind, submitted, c.detail)
		}
	}

	if n := m.JobWallSeconds.Count(); n != 2 {
		t.Errorf("capmand_job_wall_seconds count = %d, want 2", n)
	}
	if n := m.TTELatency.Count(); n != 1 {
		t.Errorf("capmand_tte_latency_seconds count = %d, want 1", n)
	}
	e.breakers.mu.Lock()
	var entries []string
	for key := range e.breakers.breakers {
		entries = append(entries, key)
	}
	e.breakers.mu.Unlock()
	slices.Sort(entries)
	if want := []string{"tte/video", "video/capman"}; !slices.Equal(entries, want) {
		t.Errorf("breaker entries = %q, want %q", entries, want)
	}
}
