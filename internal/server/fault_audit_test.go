package server

import (
	"fmt"
	"net/http"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
)

// TestServedFaultLibraryAudit submits every plan in the fault library as
// a served sim job through one executor, once with one cycle and once
// with three, and follows each fault from the engine to the job's record:
// the fault and degradation counters equal the outcomes' sums, every
// degrade is a span event in the job's record, no plan trips a fatal
// invariant, and a job that fails leaves a retained trace with its
// metric deltas.
//
// A span keeps at most obs.DefaultSpanEvents events and counts the older
// ones it drops. A plan whose guard flips more often than that (the
// stale-sensors plan does, hundreds of times) keeps only the newest
// breadcrumbs, so there the record must account for every degrade as a
// kept event or a counted drop.
func TestServedFaultLibraryAudit(t *testing.T) {
	s, ts := newTestServer(t, ExecutorConfig{Workers: 2})
	e := s.Executor()

	type submitted struct {
		name string
		view View
	}
	var jobs []submitted
	for _, plan := range fault.Plans() {
		for _, cycles := range []int{1, 3} {
			spec := JobSpec{
				Workload: "video", Policy: "heuristic", Seed: 42,
				BigMAh: 300, LittleMAh: 300, MaxTimeS: 20_000,
				FaultPlan: plan, Cycles: cycles,
			}
			v, status := submit(t, ts, spec)
			if status != http.StatusAccepted {
				t.Fatalf("%s x%d: submit status %d", plan, cycles, status)
			}
			jobs = append(jobs, submitted{fmt.Sprintf("%s x%d", plan, cycles), v})
		}
	}

	var faults, degradations int
	for _, j := range jobs {
		done := awaitJob(t, ts, j.view.ID, func(v View) bool { return v.State.Terminal() }, "terminal")
		var rec obs.StoredTrace
		getJSON(t, ts.URL+"/v1/jobs/"+j.view.ID+"/trace", &rec)
		if done.State != StateDone {
			// A failed job must leave a retained trace carrying the
			// registry series its failure moved.
			tr, ok := e.Trace(done.TraceID)
			if !ok || len(tr.MetricDeltas) == 0 {
				t.Errorf("%s ended %s (%s): retained %v with %d metric deltas, want a retained trace with deltas",
					j.name, done.State, done.Error, ok, len(tr.MetricDeltas))
			}
			continue
		}
		jobFaults, jobDegrades := outcomeCounts(done.Outcome)
		faults += jobFaults
		degradations += jobDegrades
		kept, dropped := degradeEvents(rec.Spans)
		if kept > jobDegrades || kept+dropped < jobDegrades || (dropped == 0 && kept != jobDegrades) {
			t.Errorf("%s: record has %d degrade events and %d dropped events, outcome reports %d degradations",
				j.name, kept, dropped, jobDegrades)
		}
		if hasFlag(rec.Flags, "fatal-invariant") {
			t.Errorf("%s tripped a fatal invariant", j.name)
		}
	}

	if got := e.metrics.FaultsInjected.Value(); got != uint64(faults) {
		t.Errorf("capmand_faults_injected_total = %d, outcomes sum to %d", got, faults)
	}
	if got := e.metrics.Degradations.Value(); got != uint64(degradations) {
		t.Errorf("capmand_degradations_total = %d, outcomes sum to %d", got, degradations)
	}
	if fatal := byLabel(e.metrics.Registry(), "capman_invariant_violations_total", "severity")["fatal"]; fatal != 0 {
		t.Errorf("%v fatal invariant violations across the fault library", fatal)
	}
	// The audit is vacuous unless the library actually injects faults
	// and trips the guard at this cell size.
	if faults == 0 || degradations == 0 {
		t.Errorf("library injected %d faults and %d degradations; want both > 0", faults, degradations)
	}
}

// outcomeCounts sums a sim outcome's injected fault events and guard
// transitions over its one run or each of its cycles.
func outcomeCounts(out *Outcome) (faults, degradations int) {
	if out.Run != nil {
		faults, degradations = out.Run.FaultCounts.Total(), len(out.Run.Degradations)
	}
	if out.Cycles != nil {
		for _, c := range out.Cycles.Outcomes {
			faults += c.FaultCounts.Total()
			degradations += c.Degradations
		}
	}
	return faults, degradations
}

// degradeEvents counts the degrade events kept on every span of a
// record, and the events of any kind the span bound dropped.
func degradeEvents(nodes []obs.SpanNode) (kept, dropped int) {
	for _, n := range nodes {
		for _, ev := range n.Events {
			if ev.Kind == obs.FlightDegrade {
				kept++
			}
		}
		k, d := degradeEvents(n.Children)
		kept, dropped = kept+k, dropped+d+n.DroppedEvents
	}
	return kept, dropped
}
