package sim

import (
	"time"

	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/sched"
)

// MetricsSink streams a run's instrumentation into external metrics
// (capmand's unified registry, or anything else that holds histograms)
// without turning span tracing on and without touching the Result: a run
// with a sink attached stays bit-identical to a bare run. Set it on
// Config.Metrics; every field is optional.
type MetricsSink struct {
	// DecisionLatency, when non-nil, receives every Policy.Decide host
	// latency in seconds as the run progresses.
	DecisionLatency *obs.Histogram
	// PhaseSeconds, when non-nil, is called once at run end per step
	// phase ("workload", "policy", "battery", "thermal", "tec") with the
	// cumulative wall-clock seconds that phase consumed.
	PhaseSeconds func(phase string, seconds float64)
	// ZoneTemps, when non-nil, receives every step's true zone
	// temperatures in °C (cpu, body, battery, spreader), so a live
	// telemetry plane can expose thermal state while the run is still in
	// flight. Callbacks must be cheap: the hot loop calls this once per
	// simulated step.
	ZoneTemps func(cpu, body, battery, spreader float64)
	// OnDegrade, when non-nil, is invoked synchronously for every guard
	// degradation transition (entries and recoveries).
	OnDegrade func(sched.DegradeEvent)
	// OnViolation, when non-nil, is invoked synchronously for every safety
	// invariant violation the run's checker observes (Config.Invariants).
	OnViolation func(invariant.Violation)
}

// Timing is a run's self-measured host-side cost breakdown, populated in
// Result.Timing only when tracing is on (Config.Recorder set, or a
// recorder attached to the context with obs.WithRecorder). The per-phase
// totals answer "where does a simulated step spend its wall-clock", and
// DecisionLatency is the distribution the paper's microsecond claim is
// about: the host time of one Policy.Decide call, measured every step.
// All durations come from the monotonic clock; adjacent phases share the
// reading at their boundary, and the short untimed gaps between some
// phases (observability sinks, context assembly, invariant checks) count
// toward none of them.
type Timing struct {
	// Cumulative wall-clock seconds per step phase across the whole run.
	WorkloadS float64 `json:"workloadS"` // demand generation + device power model
	PolicyS   float64 `json:"policyS"`   // Observe + Decide + guard review
	BatteryS  float64 `json:"batteryS"`  // cell state reads, switch, pack step
	ThermalS  float64 `json:"thermalS"`  // RC network reads + integration
	TECS      float64 `json:"tecS"`      // active-cooling controller

	// DecisionLatency is the per-step Policy.Decide latency histogram in
	// seconds (microsecond-scale buckets; see obs.LatencyBuckets).
	DecisionLatency obs.HistogramSnapshot `json:"decisionLatency"`
}

// phase indexes the step phases stepTimer accumulates.
type phase int

const (
	phaseWorkload phase = iota
	phasePolicy
	phaseBattery
	phaseThermal
	phaseTEC
	numPhases
)

// phaseNames are the phase labels of MetricsSink.PhaseSeconds and of the
// run span's aggregate children.
var phaseNames = [numPhases]string{"workload", "policy", "battery", "thermal", "tec"}

// stepTimer accumulates the per-phase cost of the hot loop. Readings are
// offsets from a fixed epoch taken with time.Since, which reads only the
// monotonic clock (time.Now also reads the wall clock), and each lap
// returns the reading that closed its phase so the caller opens the next
// phase with it: one clock read per phase boundary. All methods are
// nil-safe no-ops, so the untraced run pays exactly one nil check per
// instrumentation point and stays bit-identical and benchmark-neutral.
type stepTimer struct {
	epoch  time.Time
	phases [numPhases]time.Duration

	decisions *obs.Histogram
	// ext mirrors decision latencies into an external histogram (the
	// registry-backed capman_decision_latency_seconds); nil when no
	// MetricsSink wants them.
	ext *obs.Histogram
}

func newStepTimer(ext *obs.Histogram) *stepTimer {
	return &stepTimer{epoch: time.Now(), decisions: obs.MustHistogram(obs.LatencyBuckets()...), ext: ext}
}

// begin takes a fresh reading, opening a phase after an untimed gap; zero
// on a nil timer.
func (t *stepTimer) begin() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch)
}

// lap charges the time since the reading t0 to phase p and returns the
// reading that closed it.
func (t *stepTimer) lap(p phase, t0 time.Duration) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.phases[p] += now - t0
	return now
}

// lapDecision records one Policy.Decide call, started at reading t0, into
// the latency histogram. Decide time also counts toward the policy phase
// at the caller.
func (t *stepTimer) lapDecision(t0 time.Duration) {
	if t != nil {
		d := (time.Since(t.epoch) - t0).Seconds()
		t.decisions.Observe(d)
		t.ext.Observe(d) // nil-safe
	}
}

// reportPhases streams the accumulated per-phase totals into a
// MetricsSink.PhaseSeconds callback.
func (t *stepTimer) reportPhases(report func(phase string, seconds float64)) {
	for p, name := range phaseNames {
		report(name, t.phases[p].Seconds())
	}
}

// timing exports the accumulated breakdown.
func (t *stepTimer) timing() *Timing {
	return &Timing{
		WorkloadS:       t.phases[phaseWorkload].Seconds(),
		PolicyS:         t.phases[phasePolicy].Seconds(),
		BatteryS:        t.phases[phaseBattery].Seconds(),
		ThermalS:        t.phases[phaseThermal].Seconds(),
		TECS:            t.phases[phaseTEC].Seconds(),
		DecisionLatency: t.decisions.Snapshot(),
	}
}

// annotate attaches the phase totals to the run span as aggregate
// children, so the JSON span tree shows the same breakdown as Timing.
func (t *stepTimer) annotate(span *obs.Span, steps int) {
	for p, name := range phaseNames {
		span.Aggregate("phase:"+name, t.phases[p], steps)
	}
}
