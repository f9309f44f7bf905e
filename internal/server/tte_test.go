package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// tteSpec is a small cohort that finishes in well under a second: tiny
// cells drain fast under the video workload.
func tteSpec() JobSpec {
	return JobSpec{
		Kind: "tte", Workload: "video", Seed: 7,
		TTE: &TTEParams{Twins: 16, MAh: 160, HorizonS: 7200},
	}
}

// submitTTE posts a spec to /v1/tte, mirroring the submit helper.
func submitTTE(t *testing.T, ts *httptest.Server, spec JobSpec) (View, int) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/tte", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/tte: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		io.Copy(io.Discard, resp.Body)
		return View{}, resp.StatusCode
	}
	var v View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode tte submit response: %v", err)
	}
	return v, resp.StatusCode
}

func TestTTESpecValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*JobSpec)
	}{
		{"missing tte block", func(s *JobSpec) { s.TTE = nil }},
		{"zero twins", func(s *JobSpec) { s.TTE.Twins = 0 }},
		{"negative twins", func(s *JobSpec) { s.TTE.Twins = -4 }},
		{"too many twins", func(s *JobSpec) { s.TTE.Twins = MaxTTETwins + 1 }},
		{"negative horizon", func(s *JobSpec) { s.TTE.HorizonS = -1 }},
		{"huge horizon", func(s *JobSpec) { s.TTE.HorizonS = MaxTTEHorizonS + 1 }},
		{"negative capacity", func(s *JobSpec) { s.TTE.MAh = -100 }},
		{"negative load noise", func(s *JobSpec) { s.TTE.LoadNoiseFrac = -0.1 }},
		{"negative ambient noise", func(s *JobSpec) { s.TTE.AmbientNoiseC = -1 }},
		{"negative tau", func(s *JobSpec) { s.TTE.NoiseTauS = -5 }},
		{"cycles", func(s *JobSpec) { s.Cycles = 3 }},
		{"fault plan", func(s *JobSpec) { s.FaultPlan = "chaos" }},
	}
	for _, tc := range cases {
		spec := tteSpec()
		tc.mutate(&spec)
		if err := spec.Validate(); !errors.Is(err, ErrBadSpec) {
			t.Errorf("%s: Validate = %v, want ErrBadSpec", tc.name, err)
		}
	}

	if err := tteSpec().Validate(); err != nil {
		t.Errorf("valid tte spec rejected: %v", err)
	}
	// The tte block is meaningless on a sim job and must be rejected, not
	// silently dropped into a different cache entry.
	sim := fastSpec()
	sim.TTE = &TTEParams{Twins: 4}
	if err := sim.Validate(); !errors.Is(err, ErrBadSpec) {
		t.Errorf("sim spec carrying tte params: Validate = %v, want ErrBadSpec", err)
	}
	unknown := fastSpec()
	unknown.Kind = "shrug"
	if err := unknown.Validate(); !errors.Is(err, ErrBadSpec) {
		t.Errorf("unknown kind: Validate = %v, want ErrBadSpec", err)
	}
}

// TestTTEResolve: name resolution errors (unknown chemistry/workload) come
// from the registry, wrapped in ErrBadSpec for the 400 mapping.
func TestTTEResolve(t *testing.T) {
	r := DefaultRegistry()
	bad := tteSpec()
	bad.TTE.Chemistry = "unobtainium"
	if _, err := r.ResolveTTE(bad); !errors.Is(err, ErrBadSpec) {
		t.Errorf("bad chemistry: ResolveTTE = %v, want ErrBadSpec", err)
	}
	bad = tteSpec()
	bad.Workload = "minesweeper"
	if _, err := r.ResolveTTE(bad); !errors.Is(err, ErrBadSpec) {
		t.Errorf("bad workload: ResolveTTE = %v, want ErrBadSpec", err)
	}
	cfg, err := r.ResolveTTE(tteSpec())
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Twins != 16 || cfg.HorizonS != 7200 || cfg.Seed != 7 {
		t.Errorf("resolved config %+v lost spec knobs", cfg)
	}
	if cfg.TEC == nil {
		t.Error("TEC not mounted by default")
	}
}

// TestTTECanonicalization: spelling variants of the same batch must hash
// identically, and sim-only knobs must not fragment the tte cache.
func TestTTECanonicalization(t *testing.T) {
	base := tteSpec()
	variant := tteSpec()
	variant.Policy = "capman" // ignored and scrubbed for tte jobs
	variant.BigMAh = 999
	variant.MaxTimeS = 12345
	variant.TTE = &TTEParams{
		Twins: 16, MAh: 160, HorizonS: 7200,
		Chemistry: "NCA", NoiseTauS: 60, // explicit defaults
	}
	h1, err := base.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := variant.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Errorf("equivalent tte specs hash differently:\n %s\n %s", h1, h2)
	}

	other := tteSpec()
	other.TTE.Twins = 17
	h3, err := other.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 == h3 {
		t.Error("different cohort sizes collided")
	}
}

// TestTTEHTTPEndToEnd drives the whole path: submit over POST /v1/tte,
// poll the job, check the summary, then hit the cache on resubmission.
func TestTTEHTTPEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, ExecutorConfig{Workers: 2})

	spec := tteSpec()
	v, status := submitTTE(t, ts, spec)
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", status)
	}
	done := awaitJob(t, ts, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")
	if done.State != StateDone {
		t.Fatalf("job ended %q (err %q), want done", done.State, done.Error)
	}
	sum := done.Outcome.TTE
	if sum == nil {
		t.Fatal("done tte job has no TTE summary")
	}
	if sum.Twins != spec.TTE.Twins || sum.Emptied+sum.Censored != sum.Twins {
		t.Fatalf("summary accounting off: %+v", sum)
	}
	if sum.Emptied > 0 && !(sum.TTEP5S <= sum.TTEP50S && sum.TTEP50S <= sum.TTEP95S) {
		t.Errorf("percentiles out of order: %+v", sum)
	}

	again, status := submitTTE(t, ts, spec)
	if status != http.StatusOK || !again.CacheHit {
		t.Fatalf("resubmit status %d cacheHit %t, want 200/true", status, again.CacheHit)
	}
	if again.Outcome.TTE == nil || again.Outcome.TTE.TTEP50S != sum.TTEP50S {
		t.Error("cached outcome differs from the original")
	}
}

// TestTTEHTTPValidation: structural and name errors both surface as 400s
// on the /v1/tte route, and the route refuses non-tte kinds.
func TestTTEHTTPValidation(t *testing.T) {
	_, ts := newTestServer(t, ExecutorConfig{Workers: 1})

	cases := []struct {
		name   string
		mutate func(*JobSpec)
	}{
		{"bad chemistry", func(s *JobSpec) { s.TTE.Chemistry = "unobtainium" }},
		{"zero twins", func(s *JobSpec) { s.TTE.Twins = 0 }},
		{"negative horizon", func(s *JobSpec) { s.TTE.HorizonS = -10 }},
		{"wrong kind", func(s *JobSpec) { s.Kind = "sim" }},
	}
	for _, tc := range cases {
		spec := tteSpec()
		tc.mutate(&spec)
		if _, status := submitTTE(t, ts, spec); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, status)
		}
	}
}

// TestTTECoalescing: concurrent identical tte submissions share one job
// via the same single-flight table as sim jobs, and the finished outcome
// lands in the content-addressed cache.
func TestTTECoalescing(t *testing.T) {
	e := newTestExecutor(t, ExecutorConfig{Workers: 1})
	gate := make(chan struct{})
	e.runFn = func(ctx context.Context, r runner) (*Outcome, error) {
		<-gate
		return r.run(ctx)
	}

	first, err := e.Submit(tteSpec())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	ids := make([]string, 4)
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := e.Submit(tteSpec())
			if err != nil {
				t.Errorf("coalesced submit: %v", err)
				return
			}
			ids[i] = v.ID
		}(i)
	}
	wg.Wait()
	for _, id := range ids {
		if id != first.ID {
			t.Errorf("submission got job %s, want coalesced onto %s", id, first.ID)
		}
	}
	close(gate)
	done := awaitExec(t, e, first.ID, func(v View) bool { return v.State.Terminal() }, "terminal")
	if done.State != StateDone || done.Outcome.TTE == nil {
		t.Fatalf("coalesced job ended %q, outcome %+v", done.State, done.Outcome)
	}

	hit, err := e.Submit(tteSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit {
		t.Error("identical resubmission after completion missed the cache")
	}
}

// TestTTESingleTwinDegenerate: a one-twin noise-free job through the
// executor collapses to a point distribution ended by exhaustion. (The
// bit-level batched-vs-scalar oracle lives in internal/twin; this checks
// the server plumbing preserves its shape.)
func TestTTESingleTwinDegenerate(t *testing.T) {
	e := newTestExecutor(t, ExecutorConfig{Workers: 1})
	spec := tteSpec()
	spec.TTE.Twins = 1
	v, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	done := awaitExec(t, e, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")
	if done.State != StateDone {
		t.Fatalf("job ended %q (err %q)", done.State, done.Error)
	}
	sum := done.Outcome.TTE
	if sum.Twins != 1 || sum.Emptied != 1 {
		t.Fatalf("one-twin summary %+v, want a single emptied twin", sum)
	}
	if sum.TTEP5S != sum.TTEP50S || sum.TTEP50S != sum.TTEP95S || sum.TTEMinS != sum.TTEMaxS {
		t.Errorf("noise-free single twin has percentile spread: %+v", sum)
	}
	if sum.EndReasons["battery exhausted"]+sum.EndReasons["demand unservable"] != 1 {
		t.Errorf("end reasons %v, want one first-passage ending", sum.EndReasons)
	}
}
