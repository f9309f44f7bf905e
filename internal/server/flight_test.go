package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// faultySpec runs long enough simulated time for the stuck-switch fault
// plan (which engages at t=600s) to trip the degradation guard, while
// staying fast in wall clock. The heuristic policy flips batteries often
// enough to rack up the eight consecutive unacked switches the guard
// needs; dual barely switches on this workload and never notices.
func faultySpec() JobSpec {
	return JobSpec{
		Workload: "video", Policy: "heuristic", Seed: 42,
		BigMAh: 600, LittleMAh: 600, MaxTimeS: 20_000,
		FaultPlan: "stuck-switch",
	}
}

// alwaysFail wraps the real runner: the simulation executes in full (so
// spans, degradations, and sink metrics are real) but the job still fails
// with a retryable error, exhausting the retry budget.
func alwaysFail(ctx context.Context, spec JobSpec, cfg resolved) (*Outcome, error) {
	if _, err := runJob(ctx, spec, cfg); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("%w: injected post-run failure", ErrRetryable)
}

// TestFailedJobFlightBox: a fault-injected job whose retries exhaust gets
// a black box holding timeline events, degrade breadcrumbs, teed log
// records, the span forest, and the registry metric deltas.
func TestFailedJobFlightBox(t *testing.T) {
	m := NewMetrics()
	e := newTestExecutor(t, ExecutorConfig{
		Workers: 1, Metrics: m, MaxRetries: 1, RetryBaseDelay: time.Millisecond,
	})
	e.runFn = alwaysFail

	v, err := e.Submit(faultySpec())
	if err != nil {
		t.Fatal(err)
	}
	done := awaitExec(t, e, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")
	if done.State != StateFailed {
		t.Fatalf("job ended %q, want failed", done.State)
	}

	// The box is deliberately cut *after* the terminal state flips (so its
	// metric deltas include the failure counters), which leaves a short
	// window where the job reads failed but Flight still says ErrNoFlight.
	var fl *JobFlight
	for deadline := time.Now().Add(10 * time.Second); ; {
		var err error
		if fl, err = e.Flight(v.ID); err == nil {
			break
		} else if !errors.Is(err, ErrNoFlight) || !time.Now().Before(deadline) {
			t.Fatalf("Flight(%s): %v", v.ID, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if fl.State != StateFailed || fl.Error == "" || fl.Attempts != 2 {
		t.Errorf("flight header = %+v, want failed state, error, 2 attempts", fl)
	}
	if fl.Box.Reason == "" || len(fl.Box.Events) == 0 {
		t.Fatalf("flight box empty: reason=%q events=%d", fl.Box.Reason, len(fl.Box.Events))
	}

	kinds := map[string]int{}
	names := map[string]int{}
	for _, ev := range fl.Box.Events {
		kinds[ev.Kind]++
		names[ev.Name]++
	}
	for _, want := range []string{EventRunning, EventRetrying, EventFailed} {
		if names[want] == 0 {
			t.Errorf("flight box missing %s timeline event (have %v)", want, names)
		}
	}
	if kinds[obs.FlightDegrade] == 0 {
		t.Errorf("flight box has no degrade breadcrumbs (kinds %v)", kinds)
	}
	if kinds[obs.FlightLog] == 0 {
		t.Errorf("flight box has no teed log records (kinds %v)", kinds)
	}
	if len(fl.Box.Spans) == 0 {
		t.Error("flight box has no spans")
	}
	if len(fl.MetricDeltas) == 0 {
		t.Fatal("flight box has no metric deltas")
	}
	deltas := map[string]float64{}
	for _, d := range fl.MetricDeltas {
		deltas[d.Name] += d.After - d.Before
	}
	if deltas["capmand_jobs_failed_total"] < 1 {
		t.Errorf("deltas missing the job's own failure: %v", deltas)
	}
	if deltas["capman_decision_latency_seconds_count"] <= 0 {
		t.Errorf("deltas missing streamed decision latencies: %v", deltas)
	}

	// The black box JSON (what the HTTP endpoint serves) is non-empty and
	// round-trips.
	var buf bytes.Buffer
	if err := fl.Box.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back obs.FlightBox
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("box JSON does not round-trip: %v", err)
	}
	if len(back.Events) != len(fl.Box.Events) {
		t.Errorf("round-trip lost events: %d != %d", len(back.Events), len(fl.Box.Events))
	}
}

// TestFlightDisabledAndMissing: a job that did not fail has no box
// (ErrNoFlight); unknown jobs stay ErrNotFound.
func TestFlightDisabledAndMissing(t *testing.T) {
	e := newTestExecutor(t, ExecutorConfig{Workers: 1, MaxRetries: -1})
	v, err := e.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	awaitExec(t, e, v.ID, func(v View) bool { return v.State == StateDone }, "done")
	if _, err := e.Flight(v.ID); !errors.Is(err, ErrNoFlight) {
		t.Errorf("Flight of a successful job: %v, want ErrNoFlight", err)
	}
	if _, err := e.Flight("j99999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Flight(unknown): %v, want ErrNotFound", err)
	}
}

// TestFlightHTTPEndpoint drives the whole path over HTTP: submit a job
// that fails, poll it terminal, fetch its black box, and check the 404s.
func TestFlightHTTPEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, ExecutorConfig{
		Workers: 1, MaxRetries: -1, RetryBaseDelay: time.Millisecond,
	})
	srv.Executor().runFn = alwaysFail

	v, status := submit(t, ts, faultySpec())
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", status)
	}
	awaitJob(t, ts, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")

	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET flight = %d, want 200", resp.StatusCode)
	}
	var fl JobFlight
	if err := json.NewDecoder(resp.Body).Decode(&fl); err != nil {
		t.Fatal(err)
	}
	if fl.ID != v.ID || len(fl.Box.Events) == 0 || len(fl.MetricDeltas) == 0 {
		t.Errorf("flight over HTTP incomplete: id=%q events=%d deltas=%d",
			fl.ID, len(fl.Box.Events), len(fl.MetricDeltas))
	}

	for _, path := range []string{"/v1/jobs/nope/flight"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, r.StatusCode)
		}
	}
}

// TestDegradeStormKeepsLifecycle: a stuck-switch job's engine
// breadcrumbs land on its sim.run span, so its timeline still holds the
// full lifecycle and the degrades are in the retained waterfall.
func TestDegradeStormKeepsLifecycle(t *testing.T) {
	e := newTestExecutor(t, ExecutorConfig{Workers: 1, Trace: TraceConfig{SampleRate: 1}})
	v, err := e.Submit(faultySpec())
	if err != nil {
		t.Fatal(err)
	}
	awaitExec(t, e, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")
	tl, err := e.Events(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{EventSubmitted, EventQueued, EventRunning, EventDone}
	if got := eventTypes(tl.Events); strings.Join(got, ",") != strings.Join(want, ",") || tl.Dropped != 0 {
		t.Errorf("lifecycle %v (dropped %d), want %v", got, tl.Dropped, want)
	}

	tr, ok := e.Traces().Get(v.TraceID)
	if !ok {
		t.Fatal("trace not retained at sample rate 1")
	}
	var degrades int
	var walk func([]obs.SpanNode)
	walk = func(nodes []obs.SpanNode) {
		for _, n := range nodes {
			for _, ev := range n.Events {
				if ev.Kind == obs.FlightDegrade {
					if n.Name != "sim.run" {
						t.Errorf("degrade breadcrumb on span %q, want sim.run", n.Name)
					}
					degrades++
				}
			}
			walk(n.Children)
		}
	}
	walk(tr.Spans)
	if degrades == 0 {
		t.Error("no degrade breadcrumbs in the waterfall")
	}
}

// TestStuckSwitchJobStreamsPanelMetrics: a successful fault-injected job
// streams its instrumentation into the shared panel while running — the
// degradation counter by reason, per-phase wall clock, and per-decision
// latency all move, and /metrics exposes them.
func TestStuckSwitchJobStreamsPanelMetrics(t *testing.T) {
	m := NewMetrics()
	e := newTestExecutor(t, ExecutorConfig{Workers: 1, Metrics: m})

	v, err := e.Submit(faultySpec())
	if err != nil {
		t.Fatal(err)
	}
	done := awaitExec(t, e, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")
	if done.State != StateDone {
		t.Fatalf("job ended %q (err %q), want done", done.State, done.Error)
	}
	if done.Outcome == nil || done.Outcome.Run == nil || len(done.Outcome.Run.Degradations) == 0 {
		t.Fatal("run did not degrade; test premise broken")
	}

	if got := m.Degrades.WithLabelValues("stuck-switch").Value(); got == 0 {
		t.Error("capman_degrade_total{reason=\"stuck-switch\"} = 0, want > 0")
	}
	if got := m.DecisionLatency.Count(); got == 0 {
		t.Error("capman_decision_latency_seconds saw no observations")
	}
	if got := m.PhaseSeconds.WithLabelValues("policy").Value(); got <= 0 {
		t.Errorf("capman_sim_phase_seconds_total{phase=\"policy\"} = %g, want > 0", got)
	}

	var sb strings.Builder
	if err := m.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `capman_degrade_total{reason="stuck-switch"}`) {
		t.Error("/metrics missing capman_degrade_total{reason=\"stuck-switch\"}")
	}
}

// newSLOServer builds a server whose telemetry plane samples and
// evaluates every 5ms, so burn-rate alerts land within test time.
func newSLOServer(t *testing.T, m *Metrics, slo SLOConfig) *Server {
	t.Helper()
	s := New(Config{
		Executor:  ExecutorConfig{Workers: 1, Metrics: m},
		SLO:       slo,
		Telemetry: TelemetryConfig{Interval: 5 * time.Millisecond, AnomalyInterval: 5 * time.Millisecond},
	})
	t.Cleanup(func() {
		ctx, cancel := contextWithTimeout(2 * time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return s
}

// breachQueueWait floods the queue-wait histogram with slow observations
// once the store holds a baseline sample, then waits for the burn-rate
// detector to count a queue-wait-p95 breach.
func breachQueueWait(t *testing.T, s *Server, m *Metrics) {
	t.Helper()
	time.Sleep(15 * time.Millisecond) // let the store sample a baseline
	for i := 0; i < 200; i++ {
		m.QueueWaitSeconds.Observe(1.0)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if m.SLOBreaches.WithLabelValues("queue-wait-p95").Value() > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("burn-rate detector never flagged a blatant SLO breach; alerts %+v",
		s.AnomalyEngine().Recent())
}

// TestServerSLOBurnRateBreach arms the queue-wait SLO with an impossible
// threshold and checks that the anomaly engine's burn-rate detector turns
// a blatant breach into capmand_slo_breach_total{slo="queue-wait-p95"}.
func TestServerSLOBurnRateBreach(t *testing.T) {
	m := NewMetrics()
	s := newSLOServer(t, m, SLOConfig{QueueWaitP95: time.Microsecond})
	breachQueueWait(t, s, m)
	if got := m.SLOBreaches.WithLabelValues("decision-latency-p99").Value(); got != 0 {
		t.Errorf("unarmed decision SLO breached %d times", got)
	}
	if until := s.Executor().shedUntil.Load(); until != 0 {
		t.Error("breach armed the shed gate without ShedOnBurn")
	}
}

// TestServerShedOnBurn follows a breach through to the admission gate:
// after the burn-rate alert, a fresh spec is shed with reason burn-rate
// while a cached spec is still served.
func TestServerShedOnBurn(t *testing.T) {
	m := NewMetrics()
	s := newSLOServer(t, m, SLOConfig{QueueWaitP95: time.Microsecond, ShedOnBurn: true})
	e := s.Executor()
	v, err := e.Submit(seededSpec(30))
	if err != nil {
		t.Fatal(err)
	}
	if done := awaitExec(t, e, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal"); done.State != StateDone {
		t.Fatalf("seed job ended %q: %s", done.State, done.Error)
	}

	breachQueueWait(t, s, m)
	_, err = e.Submit(seededSpec(31))
	var sh *ShedError
	if !errors.As(err, &sh) || sh.Reason != "burn-rate" {
		t.Fatalf("fresh submission after breach = %v, want *ShedError{burn-rate}", err)
	}
	if got := m.Shed.WithLabelValues("burn-rate").Value(); got != 1 {
		t.Errorf("capmand_shed_total{reason=burn-rate} = %d, want 1", got)
	}
	if hit, err := e.Submit(seededSpec(30)); err != nil || !hit.CacheHit {
		t.Errorf("cache hit shed after breach: view=%+v err=%v", hit, err)
	}
}
