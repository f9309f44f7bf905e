package sim

import (
	"math"
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
	// DecisionLatency, when non-nil, receives the host latency in seconds
	// of every Policy.Decide call as the run progresses. It is exact, not
	// sampled: one observation per decision.
	DecisionLatency *obs.Histogram
	// PhaseSeconds, when non-nil, is called once at run end per step
	// phase ("workload", "policy", "battery", "thermal", "tec") with the
	// phase's estimated wall-clock seconds over the whole run. The
	// estimates are stride-sampled (see Timing).
	PhaseSeconds func(phase string, seconds float64)
	// ZoneTemps, when non-nil, receives the true zone temperatures in °C
	// (cpu, body, battery, spreader) on every timed step (see Timing), so
	// a live telemetry plane can expose thermal state while the run is
	// still in flight.
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
// about: the host time of one Policy.Decide call.
//
// Decision latency is exact: every Decide call is timed. The phase totals
// are stride-sampled estimates: the loop times the phases of the first
// step and then of one step in 17 (phaseStride), and scales those totals
// up to all steps. Each timed interval sheds the cost of the clock reading
// that closes it (calibrated at run start), so the totals estimate what an
// untimed step spends. PolicyS is the exact Decide
// total plus the scaled rest of the phase (Observe and guard review), so
// DecisionLatency.Sum never exceeds it. All durations come from the
// monotonic clock; adjacent phases share the reading at their boundary,
// and the short untimed gaps between some phases (observability sinks,
// context assembly, invariant checks) count toward none of them.
type Timing struct {
	// Estimated wall-clock seconds per step phase across the whole run.
	WorkloadS float64 `json:"workloadS"` // demand generation + device power model
	PolicyS   float64 `json:"policyS"`   // Observe + Decide + guard review
	BatteryS  float64 `json:"batteryS"`  // cell state reads, switch, pack step
	ThermalS  float64 `json:"thermalS"`  // RC network reads + integration
	TECS      float64 `json:"tecS"`      // active-cooling controller

	// DecisionLatency is the per-decision Policy.Decide latency histogram
	// in seconds (microsecond-scale buckets; see obs.LatencyBuckets).
	DecisionLatency obs.HistogramSnapshot `json:"decisionLatency"`
}

// phaseStride is the phase-timing stride: the loop times the phases of
// steps 0, N, 2N, ... and scales the totals. It is a prime, so it shares
// no factor with a cadence the run keeps (CAPMAN refreshes every 240 steps
// at the default 60 s interval and 0.25 s step) and the timed steps walk
// through every offset of it. It is fixed, not a knob.
const phaseStride = 17

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

// stepTimer accumulates the host-side cost of the hot loop. Readings are
// offsets from a fixed epoch taken with time.Since, which reads only the
// monotonic clock (time.Now also reads the wall clock), and each lap
// returns the reading that closed its phase so the caller opens the next
// phase with it: one clock read per phase boundary.
//
// Two stopwatches share it. The decision stopwatch runs on every step and
// costs two clock reads. The phase stopwatch runs only on sampled steps:
// sample returns the timer on one step in phaseStride and nil on the
// others. All methods are nil-safe no-ops, so an untimed step pays one nil
// check per phase boundary, an untraced run pays one per instrumentation
// point, and both stay bit-identical.
type stepTimer struct {
	epoch time.Time
	// readCost is one clock reading's own duration, calibrated at start.
	// Every timed interval spans one reading's worth of stopwatch on top
	// of the work it brackets, and untimed steps pay none of it, so each
	// lap takes it back out: the phase totals estimate an untimed step.
	readCost time.Duration
	// phases holds the timed steps' per-phase totals; the policy phase
	// leaves out Decide, which decided counts exactly on every step.
	phases       [numPhases]time.Duration
	steps, timed int
	decided      float64        // seconds across every Decide call
	decisions    *obs.Histogram // the run's own; nil unless traced
	// ext mirrors decision latencies into an external histogram (the
	// registry-backed capman_decision_latency_seconds); nil when no
	// MetricsSink wants them.
	ext *obs.Histogram
}

// newStepTimer starts a timer that mirrors decision latencies into ext
// (nil-safe) and, when traced, keeps the run's own latency histogram for
// Timing.
func newStepTimer(ext *obs.Histogram, traced bool) *stepTimer {
	t := &stepTimer{epoch: time.Now(), ext: ext}
	t.readCost = t.calibrate()
	if traced {
		t.decisions = obs.MustHistogram(obs.LatencyBuckets()...)
	}
	return t
}

// calibrate returns the shortest of a few back-to-back clock readings'
// spacing: the cost of one reading, free of preemption outliers.
func (t *stepTimer) calibrate() time.Duration {
	best := time.Duration(math.MaxInt64)
	prev := time.Since(t.epoch)
	for i := 0; i < 16; i++ {
		now := time.Since(t.epoch)
		best = min(best, now-prev)
		prev = now
	}
	return best
}

// sample opens one loop iteration and returns the timer when this step's
// phases are timed, nil when they are not (and on a nil timer).
func (t *stepTimer) sample() *stepTimer {
	if t == nil {
		return nil
	}
	t.steps++
	if (t.steps-1)%phaseStride != 0 {
		return nil
	}
	t.timed++
	return t
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
	t.phases[p] += now - t0 - t.readCost
	return now
}

// lapDecision records one Policy.Decide call, started at reading t0, into
// the latency histograms and the exact decision total, and returns its
// duration.
func (t *stepTimer) lapDecision(t0 time.Duration) time.Duration {
	if t == nil {
		return 0
	}
	d := time.Since(t.epoch) - t0
	s := d.Seconds()
	t.decided += s
	t.decisions.Observe(s) // nil-safe
	t.ext.Observe(s)       // nil-safe
	return d
}

// exclude takes d, an inner interval already accounted for exactly, out
// of phase p's timed total; the enclosing lap adds it back, so p keeps
// only the rest. The inner stopwatch's extra reading goes with it.
func (t *stepTimer) exclude(p phase, d time.Duration) {
	if t != nil {
		t.phases[p] -= d + t.readCost
	}
}

// phaseSeconds returns the estimated per-phase seconds over the whole
// run: the timed totals scaled by steps/timed, plus the exact Decide total
// in the policy phase.
func (t *stepTimer) phaseSeconds() [numPhases]float64 {
	var out [numPhases]float64
	if t.timed > 0 {
		scale := float64(t.steps) / float64(t.timed)
		for p := range out {
			// Clamped: the read-cost correction can overshoot a phase
			// whose work is a few nanoseconds.
			out[p] = max(t.phases[p], 0).Seconds() * scale
		}
	}
	out[phasePolicy] += t.decided
	return out
}

// reportPhases streams the estimated per-phase totals into a
// MetricsSink.PhaseSeconds callback.
func (t *stepTimer) reportPhases(report func(phase string, seconds float64)) {
	for p, s := range t.phaseSeconds() {
		report(phaseNames[p], s)
	}
}

// timing exports the breakdown.
func (t *stepTimer) timing() *Timing {
	s := t.phaseSeconds()
	return &Timing{
		WorkloadS:       s[phaseWorkload],
		PolicyS:         s[phasePolicy],
		BatteryS:        s[phaseBattery],
		ThermalS:        s[phaseThermal],
		TECS:            s[phaseTEC],
		DecisionLatency: t.decisions.Snapshot(),
	}
}

// annotate attaches the phase totals to the run span as aggregate
// children, so the JSON span tree shows the same breakdown as Timing.
func (t *stepTimer) annotate(span *obs.Span, steps int) {
	for p, s := range t.phaseSeconds() {
		span.Aggregate("phase:"+phaseNames[p], time.Duration(s*float64(time.Second)), steps)
	}
}
