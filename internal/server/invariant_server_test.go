package server

import (
	"testing"

	"repro/internal/invariant"
)

// violationCount sums the executor's invariant-violation counter for one
// contract across severities.
func violationCount(e *Executor, contract string) float64 {
	return byLabel(e.metrics.Registry(), "capman_invariant_violations_total", "invariant")[contract]
}

// TestExecutorStreamsInvariantViolationsToMetrics pins the served half of
// the monitor: a checker config whose ceiling the workload is guaranteed to
// exceed must surface violations in capman_invariant_violations_total for
// both job kinds — streamed live through the metrics sink for sim jobs,
// counted from the cohort summary for tte jobs — while warn-severity
// violations leave the jobs themselves successful.
func TestExecutorStreamsInvariantViolationsToMetrics(t *testing.T) {
	// 30C is below where the video workload settles on every engine, so
	// the thermal-ceiling-cpu contract fires on both kinds.
	e := newTestExecutor(t, ExecutorConfig{
		Workers:    1,
		Invariants: &invariant.Config{MaxCPUTempC: 30},
	})

	v, err := e.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	done := awaitExec(t, e, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")
	if done.State != StateDone {
		t.Fatalf("sim job under warn violations ended %q (err %q), want done", done.State, done.Error)
	}
	if done.Outcome.Run.Invariants == nil || done.Outcome.Run.Invariants.Counts["thermal-ceiling-cpu"] == 0 {
		t.Fatalf("sim outcome carries no ceiling violations: %+v", done.Outcome.Run.Invariants)
	}
	simCount := violationCount(e, "thermal-ceiling-cpu")
	if simCount == 0 {
		t.Fatal("sim violations did not reach capman_invariant_violations_total")
	}
	if got := float64(done.Outcome.Run.Invariants.Counts["thermal-ceiling-cpu"]); simCount != got {
		t.Errorf("metric shows %.0f ceiling violations, report has %.0f", simCount, got)
	}

	tv, err := e.Submit(tteSpec())
	if err != nil {
		t.Fatal(err)
	}
	tdone := awaitExec(t, e, tv.ID, func(v View) bool { return v.State.Terminal() }, "terminal")
	if tdone.State != StateDone {
		t.Fatalf("tte job under warn violations ended %q (err %q), want done", tdone.State, tdone.Error)
	}
	cohort := tdone.Outcome.TTE.InvariantViolations["thermal-ceiling-cpu"]
	if cohort == 0 {
		t.Fatalf("tte summary carries no ceiling violations: %v", tdone.Outcome.TTE.InvariantViolations)
	}
	if got := violationCount(e, "thermal-ceiling-cpu"); got != simCount+float64(cohort) {
		t.Errorf("metric after tte job = %.0f, want %.0f (sim) + %d (cohort)", got, simCount, cohort)
	}
}
