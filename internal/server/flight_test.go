package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/metrics"
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
// spans, degradations, and sink metrics are real) but the job still fails.
func alwaysFail(ctx context.Context, r runner) (*Outcome, error) {
	if _, err := r.run(ctx); err != nil {
		return nil, err
	}
	return nil, errors.New("injected post-run failure")
}

// allEvents flattens the events of every span in a record.
func allEvents(nodes []obs.SpanNode) []obs.FlightEvent {
	var out []obs.FlightEvent
	for _, n := range nodes {
		out = append(out, n.Events...)
		out = append(out, allEvents(n.Children)...)
	}
	return out
}

// deltaSums totals a record's metric deltas by series name.
func deltaSums(tr *obs.StoredTrace) map[string]float64 {
	sums := map[string]float64{}
	for _, d := range tr.MetricDeltas {
		sums[d.Name] += d.After - d.Before
	}
	return sums
}

// TestFailedJobFlightBox: a fault-injected job that fails has a record
// holding lifecycle events, degrade breadcrumbs, the span forest, and
// the registry metric deltas. It runs once.
func TestFailedJobFlightBox(t *testing.T) {
	m := NewMetrics()
	e := newTestExecutor(t, ExecutorConfig{Workers: 1, Metrics: m})
	var calls atomic.Int32
	e.runFn = func(ctx context.Context, r runner) (*Outcome, error) {
		calls.Add(1)
		return alwaysFail(ctx, r)
	}

	v, err := e.Submit(faultySpec())
	if err != nil {
		t.Fatal(err)
	}
	done := awaitExec(t, e, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")
	if done.State != StateFailed {
		t.Fatalf("job ended %q, want failed", done.State)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("failed job ran %d times, want once", n)
	}

	// The state and the record's deltas are published under one lock, so
	// the record is complete as soon as the view reads failed.
	tr := mustJobTrace(t, e, v.ID)
	if tr.Outcome != string(StateFailed) || strings.Join(tr.Flags, ",") != "error" {
		t.Errorf("record outcome %q flags %v, want failed with error", tr.Outcome, tr.Flags)
	}
	if len(tr.Spans) == 0 {
		t.Fatal("record has no spans")
	}
	root := tr.Spans[0]
	if root.Attrs["state"] != string(StateFailed) {
		t.Errorf("root span attrs %v, want state failed", root.Attrs)
	}
	for _, c := range root.Children {
		if c.Name != "queue" && c.Name != "sim.run" {
			t.Errorf("root span child %q, want only queue and sim.run", c.Name)
		}
	}
	evs := allEvents(tr.Spans)
	kinds := map[string]int{}
	names := map[string]int{}
	for _, ev := range evs {
		kinds[ev.Kind]++
		names[ev.Name]++
		if ev.Name == EventFailed && ev.Detail == "" {
			t.Error("failed event carries no error")
		}
	}
	for _, want := range []string{EventRunning, EventFailed} {
		if names[want] == 0 {
			t.Errorf("record missing %s lifecycle event (have %v)", want, names)
		}
	}
	if kinds[obs.FlightDegrade] == 0 {
		t.Errorf("record has no degrade breadcrumbs (kinds %v)", kinds)
	}
	if len(tr.MetricDeltas) == 0 {
		t.Fatal("record has no metric deltas")
	}
	deltas := deltaSums(tr)
	if deltas["capmand_jobs_failed_total"] < 1 {
		t.Errorf("deltas missing the job's own failure: %v", deltas)
	}
	if deltas["capman_decision_latency_seconds_count"] <= 0 {
		t.Errorf("deltas missing streamed decision latencies: %v", deltas)
	}

	// The record's JSON (what the HTTP endpoint serves) round-trips.
	raw, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var back obs.StoredTrace
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("record JSON does not round-trip: %v", err)
	}
	if len(allEvents(back.Spans)) != len(evs) || len(back.MetricDeltas) != len(tr.MetricDeltas) {
		t.Errorf("round-trip lost events or deltas: %d/%d events, %d/%d deltas",
			len(allEvents(back.Spans)), len(evs), len(back.MetricDeltas), len(tr.MetricDeltas))
	}
}

// TestFailedJobDeltasSkipRuntimeGauges: a failed job's metric deltas
// hold the stored series the job moved, never the function-backed
// runtime families, which move with the clock and the scheduler.
func TestFailedJobDeltasSkipRuntimeGauges(t *testing.T) {
	m := NewMetrics()
	m.RegisterRuntime("t")
	e := newTestExecutor(t, ExecutorConfig{Workers: 1, Metrics: m})
	e.runFn = alwaysFail
	v, err := e.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	awaitExec(t, e, v.ID, func(v View) bool { return v.State == StateFailed }, "failed")
	tr := mustJobTrace(t, e, v.ID)
	deltas := deltaSums(tr)
	if deltas["capmand_jobs_failed_total"] < 1 {
		t.Errorf("deltas missing the job's own failure: %v", deltas)
	}
	for _, name := range []string{"process_uptime_seconds", "go_goroutines", "go_gc_cycles_total"} {
		if _, ok := deltas[name]; ok {
			t.Errorf("deltas carry the function-backed %s: %v", name, deltas)
		}
	}
}

// TestFlightDisabledAndMissing: a job that did not fail carries no
// metric deltas; unknown jobs stay ErrNotFound.
func TestFlightDisabledAndMissing(t *testing.T) {
	e := newTestExecutor(t, ExecutorConfig{Workers: 1})
	v, err := e.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	awaitExec(t, e, v.ID, func(v View) bool { return v.State == StateDone }, "done")
	if tr := mustJobTrace(t, e, v.ID); tr.Outcome != string(StateDone) || len(tr.MetricDeltas) != 0 {
		t.Errorf("successful job's record: outcome %q, %d deltas; want done and none", tr.Outcome, len(tr.MetricDeltas))
	}
	if _, err := e.JobTrace("j99999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("JobTrace(unknown): %v, want ErrNotFound", err)
	}
}

// TestFlightHTTPEndpoint drives the whole path over HTTP: submit a job
// that fails, poll it terminal, fetch its record, and check the 404s.
func TestFlightHTTPEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, ExecutorConfig{Workers: 1})
	srv.Executor().runFn = alwaysFail

	v, status := submit(t, ts, faultySpec())
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", status)
	}
	awaitJob(t, ts, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")

	var tr obs.StoredTrace
	getJSON(t, ts.URL+"/v1/jobs/"+v.ID+"/trace", &tr)
	if tr.JobID != v.ID || len(allEvents(tr.Spans)) == 0 || len(tr.MetricDeltas) == 0 {
		t.Errorf("record over HTTP incomplete: id=%q events=%d deltas=%d",
			tr.JobID, len(allEvents(tr.Spans)), len(tr.MetricDeltas))
	}

	for _, path := range []string{"/v1/jobs/nope/trace"} {
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
// breadcrumbs land on its sim.run span, so its root span still holds the
// full lifecycle and the degrades are in its record, which is retained.
func TestDegradeStormKeepsLifecycle(t *testing.T) {
	e := newTestExecutor(t, ExecutorConfig{Workers: 1})
	v, err := e.Submit(faultySpec())
	if err != nil {
		t.Fatal(err)
	}
	awaitExec(t, e, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")
	tr := mustJobTrace(t, e, v.ID)
	evs, dropped := rootEvents(t, tr)
	want := []string{EventSubmitted, EventQueued, EventRunning, EventDone}
	if got := eventTypes(evs); strings.Join(got, ",") != strings.Join(want, ",") || dropped != 0 {
		t.Errorf("lifecycle %v (dropped %d), want %v", got, dropped, want)
	}
	if _, ok := e.Trace(v.TraceID); !ok {
		t.Fatal("trace not retained")
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
		t.Error("no degrade breadcrumbs in the record")
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

// TestMultiCycleFaultJobCountsFaults: a multi-cycle job under a fault
// plan adds every cycle's injected faults and guard transitions to the
// finish-time counters, as a single run does.
func TestMultiCycleFaultJobCountsFaults(t *testing.T) {
	m := NewMetrics()
	e := newTestExecutor(t, ExecutorConfig{Workers: 1, Metrics: m})

	spec := faultySpec()
	spec.Cycles, spec.FaultPlan = 3, "chaos"
	v, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	done := awaitExec(t, e, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")
	if done.State != StateDone {
		t.Fatalf("job ended %q (err %q), want done", done.State, done.Error)
	}
	if done.Outcome == nil || done.Outcome.Cycles == nil || len(done.Outcome.Cycles.Outcomes) != 3 {
		t.Fatalf("outcome %+v, want three cycles", done.Outcome)
	}
	if got := m.FaultsInjected.Value(); got == 0 {
		t.Error("capmand_faults_injected_total = 0 after a chaos multi-cycle job, want > 0")
	}
	if got := m.Degradations.Value(); got == 0 {
		t.Error("capmand_degradations_total = 0 after a chaos multi-cycle job, want > 0")
	}
}

// TestServerSLOBurnRateBreach arms the queue-wait SLO with an impossible
// threshold on a server whose telemetry plane samples and evaluates every
// 5ms, floods the queue-wait histogram with slow observations once the
// store holds a baseline sample, and checks that the anomaly engine's
// burn-rate detector turns the blatant breach into
// capmand_slo_breach_total{slo="queue-wait-p95"}.
func TestServerSLOBurnRateBreach(t *testing.T) {
	m := NewMetrics()
	s := New(Config{
		Executor:  ExecutorConfig{Workers: 1, Metrics: m},
		SLO:       SLOConfig{QueueWaitP95: time.Microsecond},
		Telemetry: TelemetryConfig{Interval: 5 * time.Millisecond, AnomalyInterval: 5 * time.Millisecond},
	})
	t.Cleanup(func() {
		ctx, cancel := contextWithTimeout(2 * time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	time.Sleep(15 * time.Millisecond) // let the store sample a baseline
	for i := 0; i < 200; i++ {
		m.QueueWaitSeconds.Observe(1.0)
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.SLOBreaches.WithLabelValues("queue-wait-p95").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("burn-rate detector never flagged a blatant SLO breach; burn-rate alerts %d",
				m.Anomalies.WithLabelValues("burn-rate").Value())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := m.SLOBreaches.WithLabelValues("decision-latency-p99").Value(); got != 0 {
		t.Errorf("unarmed decision SLO breached %d times", got)
	}
}

// TestJobBaselineAllocFree: the baseline every dequeue takes of the
// daemon's registry (what a failed job's deltas are measured from)
// allocates nothing once the worker's buffer has grown.
func TestJobBaselineAllocFree(t *testing.T) {
	e := newTestExecutor(t, ExecutorConfig{Workers: 1})
	reg := e.metrics.Registry()
	var base metrics.Baseline
	base.Take(reg)
	if n := testing.AllocsPerRun(100, func() { base.Take(reg) }); n != 0 {
		t.Errorf("job baseline allocates %v per dequeue, want 0", n)
	}
}
