package sim

import (
	"math"
	"sort"
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
	// of the run's Policy.Decide calls as the run progresses: one count
	// per call, exactly, with every refresh-bearing decision timed and the
	// rest timed 1 in 17 and weighted (see Timing). The run merges them
	// in batches of at least 64 decisions, at run end and on an aborted
	// run's exit.
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
// Decision latency is a two-part sample with an exact count: the histogram
// holds one count per Decide call. A heavy decision, one whose Decide runs
// the policy's background refresh, is timed exactly; a policy announces
// them through an optional RefreshDue(now float64) bool method (CAPMAN's
// scheduler has one). Refreshes dominate the mean and recur on a cadence,
// so a stride would catch a few and count each many times over. The light
// rest are table lookups of near-constant cost: the first one is timed,
// then those on phase-timed steps, and each timed light decision is
// recorded with the weight of the light decisions it stands for, itself
// and the untimed ones up to the next timed one.
//
// The phase totals are stride-sampled estimates: the loop times the phases
// of the first step and then of one step in 17 (phaseStride), and scales
// those totals up to all steps. Each timed interval sheds the cost of the
// clock reading that closes it (calibrated at run start), so the totals
// estimate what an untimed step spends. PolicyS is the weighted decision
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

// decisionFlush is how many decisions a run collects locally before it
// merges them into the shared histograms. It is fixed, not a knob.
const decisionFlush = 64

// refresher is the optional policy method that announces a heavy
// decision: RefreshDue(now) is true when a Decide at time now runs the
// policy's background refresh.
type refresher interface{ RefreshDue(now float64) bool }

// stepTimer accumulates the host-side cost of the hot loop. Readings are
// offsets from a fixed epoch taken with time.Since, which reads only the
// monotonic clock (time.Now also reads the wall clock), and each lap
// returns the reading that closed its phase so the caller opens the next
// phase with it: one clock read per phase boundary.
//
// Two stopwatches share it. The phase stopwatch runs only on sampled
// steps: sample returns the timer on one step in phaseStride and nil on
// the others. The decision stopwatch runs on every heavy decision, on the
// first light one and on the sampled steps' light ones (see Timing), two
// clock reads each; the other steps read no clock at all. All methods are
// nil-safe no-ops, so an untimed step pays one nil check per phase
// boundary, an untraced run pays one per instrumentation point, and both
// stay bit-identical.
type stepTimer struct {
	epoch time.Time
	// readCost is one clock reading's own duration, calibrated at start.
	// Every timed interval spans one reading's worth of stopwatch on top
	// of the work it brackets, and untimed steps pay none of it, so each
	// lap takes it back out: the phase totals estimate an untimed step.
	readCost time.Duration
	// phases holds the timed steps' per-phase totals; the policy phase
	// leaves out Decide, which the decision sample accounts for.
	phases       [numPhases]time.Duration
	steps, timed int

	refresh refresher // nil when the policy announces no refreshes
	heavy   bool      // the open or held decision is heavy
	// held is the latency of the decision lapDecision last closed, -1 when
	// none. The next step's sample (or finish) records it, in the untimed
	// gap between steps: charged to the policy phase, the bookkeeping and
	// its occasional merge would be scaled up by the phase stride,
	// although only timed steps pay them.
	held      time.Duration
	dec       decisionSample
	decisions *obs.Histogram // the run's own; nil unless traced
}

// newStepTimer starts a timer for a run of policy. Decision latencies go
// to ext (nil-safe; the registry-backed capman_decision_latency_seconds)
// and, when traced, to the run's own histogram for Timing.
func newStepTimer(policy sched.Policy, ext *obs.Histogram, traced bool) *stepTimer {
	t := &stepTimer{epoch: time.Now(), held: -1}
	t.readCost = t.calibrate()
	t.refresh, _ = policy.(refresher)
	if traced {
		t.decisions = obs.MustHistogram(obs.LatencyBuckets()...)
	}
	t.dec = newDecisionSample(ext, t.decisions)
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
	t.recordHeld()
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

// beginDecision opens the decision of a step at simulated time now whose
// phases are timed when sampled is true. It returns the reading that
// starts the decision's stopwatch, or -1 when the decision goes untimed
// (always on a nil timer).
func (t *stepTimer) beginDecision(now float64, sampled bool) time.Duration {
	if t == nil {
		return -1
	}
	t.heavy = t.refresh != nil && t.refresh.RefreshDue(now)
	if !t.dec.timed(t.heavy, sampled) {
		return -1
	}
	return time.Since(t.epoch)
}

// lapDecision closes a decision opened at reading t0, holds it for the
// decision sample and returns its duration; zero when it went untimed.
func (t *stepTimer) lapDecision(t0 time.Duration) time.Duration {
	if t0 < 0 {
		return 0
	}
	t.held = time.Since(t.epoch) - t0
	return t.held
}

// recordHeld hands the held decision to the decision sample.
func (t *stepTimer) recordHeld() {
	if t.held >= 0 {
		t.dec.record(t.heavy, t.held)
		t.held = -1
	}
}

// exclude takes d, an inner interval accounted for elsewhere, out of phase
// p's timed total; the enclosing lap adds it back, so p keeps only the
// rest. The inner stopwatch's extra reading goes with it.
func (t *stepTimer) exclude(p phase, d time.Duration) {
	if t != nil {
		t.phases[p] -= d + t.readCost
	}
}

// finish merges every decision the run has recorded into the histograms.
// The loop calls it at run end and, deferred, on every early exit, so an
// aborted run leaves each of its decisions counted; calling it again is a
// no-op.
func (t *stepTimer) finish() {
	if t != nil {
		t.recordHeld()
		t.dec.finish()
	}
}

// phaseSeconds returns the estimated per-phase seconds over the whole
// run: the timed totals scaled by steps/timed, plus the weighted decision
// total in the policy phase. Call it after finish.
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
	out[phasePolicy] += t.dec.total
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

// decisionSample is the decision stopwatch's estimator. Timed decisions
// land, with their weights, in run-local bucket counts, one set per
// destination histogram over that histogram's bounds, which merge into
// the destinations every decisionFlush decisions and at finish. Nothing
// in it is atomic: the merge is the run's only write to histograms that
// other workers share.
type decisionSample struct {
	dst    []*obs.Histogram
	counts [][]uint64 // per destination; the last bucket is +Inf
	sum    float64    // weighted seconds not yet merged
	n      uint64     // decisions not yet merged
	// total is the weighted seconds merged so far, summed in merge order,
	// so it equals the Sum of a destination that only this run writes.
	total float64
	// light is the latest timed light decision, and lightN the number of
	// light decisions it stands for so far: itself and the untimed ones
	// since. Zero before the first light decision and after finish.
	light  time.Duration
	lightN uint64
}

// newDecisionSample builds a sample merging into the non-nil histograms
// of dst.
func newDecisionSample(dst ...*obs.Histogram) decisionSample {
	var s decisionSample
	for _, h := range dst {
		if h != nil {
			s.dst = append(s.dst, h)
			s.counts = append(s.counts, make([]uint64, len(h.Bounds())+1))
		}
	}
	return s
}

// timed reports whether a decision is timed: every heavy one, the first
// light one, and the light ones on phase-timed steps (sampled). An
// untimed decision adds to the weight of the latest timed light one.
func (s *decisionSample) timed(heavy, sampled bool) bool {
	if heavy || sampled || s.lightN == 0 {
		return true
	}
	s.lightN++
	return false
}

// record takes a timed decision's latency d. A heavy decision counts
// once. A light one closes the previous timed light decision at its final
// weight and stands in for the light decisions to come.
func (s *decisionSample) record(heavy bool, d time.Duration) {
	if heavy {
		s.add(d, 1)
		return
	}
	if s.lightN > 0 {
		s.add(s.light, s.lightN)
	}
	s.light, s.lightN = d, 1
}

// add counts n decisions of latency d, merging when the batch is full.
func (s *decisionSample) add(d time.Duration, n uint64) {
	v := d.Seconds()
	for i, h := range s.dst {
		s.counts[i][sort.SearchFloat64s(h.Bounds(), v)] += n
	}
	s.sum += v * float64(n)
	s.n += n
	if s.n >= decisionFlush {
		s.merge()
	}
}

// merge moves the batch into the destinations.
func (s *decisionSample) merge() {
	if s.n == 0 {
		return
	}
	for i, h := range s.dst {
		h.Merge(s.counts[i], s.sum)
		clear(s.counts[i])
	}
	s.total += s.sum
	s.sum, s.n = 0, 0
}

// finish closes the open light decision at its final weight and merges.
func (s *decisionSample) finish() {
	if s.lightN > 0 {
		s.add(s.light, s.lightN)
		s.lightN = 0
	}
	s.merge()
}
