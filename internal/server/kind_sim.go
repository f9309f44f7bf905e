package server

import (
	"context"
	"fmt"
	"time"

	"repro/internal/battery"
	"repro/internal/fault"
	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/obs/metrics"
	"repro/internal/obs/tsdb"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/thermal"
)

// simRun is a sim job's runner: one policy-driven discharge simulation,
// or the multi-cycle loop when the spec asked for cycles > 1.
type simRun struct {
	cfg    sim.Config
	cycles int
}

// Resolve validates the spec and builds the simulation configuration it
// names. Every job gets a fresh policy instance and workload factory, so
// resolved configs never share mutable state.
func (r *Registry) Resolve(spec JobSpec) (sim.Config, error) {
	base, err := r.resolveBase(spec)
	if err != nil {
		return sim.Config{}, err
	}
	spec = base.spec

	r.mu.RLock()
	pf, ok := r.policies[spec.Policy]
	r.mu.RUnlock()
	if !ok {
		return sim.Config{}, fmt.Errorf("%w: unknown policy %q (have %v)",
			ErrBadSpec, spec.Policy, r.Policies())
	}

	big, err := cellParams(spec.BigChemistry, spec.BigMAh)
	if err != nil {
		return sim.Config{}, fmt.Errorf("%w: big cell: %v", ErrBadSpec, err)
	}
	little, err := cellParams(spec.LittleChemistry, spec.LittleMAh)
	if err != nil {
		return sim.Config{}, fmt.Errorf("%w: LITTLE cell: %v", ErrBadSpec, err)
	}
	pack := battery.DefaultPackConfig()
	pack.Big = big
	pack.Little = little

	cfg := sim.Config{
		Profile:  base.profile,
		Workload: base.workload,
		Pack:     pack,
		DT:       spec.DT,
		MaxTimeS: spec.MaxTimeS,
		TEC:      base.tec,
	}
	if spec.AmbientC != 0 {
		cfg.Thermal = thermal.DefaultPhoneConfig()
		cfg.Thermal.AmbientC = spec.AmbientC
	}
	plan, err := fault.ByName(spec.FaultPlan, spec.Seed)
	if err != nil {
		return sim.Config{}, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	cfg.Faults = plan
	if err := pf(spec, &cfg); err != nil {
		return sim.Config{}, fmt.Errorf("%w: policy %q: %v", ErrBadSpec, spec.Policy, err)
	}
	return cfg, nil
}

func (*simRun) breakerKey(spec JobSpec) string { return spec.Workload + "/" + spec.Policy }

func (*simRun) detail(spec JobSpec) string {
	return "workload " + spec.Workload + " policy " + spec.Policy
}

func (*simRun) latency(*Executor) (*metrics.Histogram, time.Duration) { return nil, 0 }

// prepare attaches the metrics sink, which streams decision latencies
// (every decision counted, refreshes timed exactly, the rest 1 in 17,
// merged in batches), the run's stride-sampled phase totals, zone
// temperatures on timed steps, degradations and violations into the
// shared panel without perturbing the Result (a served step reads no
// clock except on a refresh and on the one step in 17 whose phases are
// timed); the invariant checker; and a CAPMAN policy's EMD latency
// histogram.
func (r *simRun) prepare(e *Executor) {
	r.cfg.Metrics = e.sink()
	r.cfg.Invariants = e.invariants
	if p, ok := r.cfg.Policy.(interface{ SetEMDLatency(*obs.Histogram) }); ok {
		p.SetEMDLatency(e.metrics.EMDLatency.Base())
	}
}

func (r *simRun) run(ctx context.Context) (*Outcome, error) {
	if r.cycles > 1 {
		res, err := sim.RunCyclesContext(ctx, sim.CyclesConfig{Base: r.cfg, Cycles: r.cycles})
		if err != nil {
			return nil, err
		}
		return &Outcome{Cycles: res}, nil
	}
	res, err := sim.RunContext(ctx, r.cfg)
	if err != nil {
		return nil, err
	}
	return &Outcome{Run: res}, nil
}

// account sums the injected fault events and guard transitions over
// every discharge run the outcome holds: the one run, or each cycle of a
// multi-cycle run. Violations already streamed live through the sink.
func (*simRun) account(e *Executor, out *Outcome) bool {
	if out == nil {
		return false
	}
	var faults, degradations int
	if out.Run != nil {
		faults, degradations = out.Run.FaultCounts.Total(), len(out.Run.Degradations)
	}
	if out.Cycles != nil {
		for _, c := range out.Cycles.Outcomes {
			faults += c.FaultCounts.Total()
			degradations += c.Degradations
		}
	}
	e.metrics.FaultsInjected.Add(uint64(faults))
	e.metrics.Degradations.Add(uint64(degradations))
	return out.Run != nil && out.Run.Invariants != nil && out.Run.Invariants.Fatal
}

// sink builds the MetricsSink that streams a running job's instrumentation
// into the shared panel: per-decision host latency, per-phase wall clock,
// live zone temperatures, and guard degradation entries by mode. Degrade
// and invariant events are additionally mirrored onto the live event
// stream when one is attached.
func (e *Executor) sink() *sim.MetricsSink {
	// Resolve the per-zone gauges once, outside the timed-step callback.
	cpu := e.metrics.ZoneTemp.WithLabelValues("cpu")
	body := e.metrics.ZoneTemp.WithLabelValues("body")
	batt := e.metrics.ZoneTemp.WithLabelValues("battery")
	spreader := e.metrics.ZoneTemp.WithLabelValues("spreader")
	return &sim.MetricsSink{
		DecisionLatency: e.metrics.DecisionLatency.Base(),
		PhaseSeconds: func(phase string, s float64) {
			e.metrics.PhaseSeconds.WithLabelValues(phase).Add(s)
		},
		ZoneTemps: func(c, b, ba, sp float64) {
			cpu.Set(c)
			body.Set(b)
			batt.Set(ba)
			spreader.Set(sp)
		},
		OnDegrade: func(ev sched.DegradeEvent) {
			if !ev.Recovered {
				e.metrics.Degrades.WithLabelValues(ev.Mode).Inc()
			}
			if e.stream != nil {
				e.stream.Publish(tsdb.EventDegrade, time.Now(), ev)
			}
		},
		OnViolation: func(v invariant.Violation) {
			e.metrics.InvariantViolations.
				WithLabelValues(v.Invariant, string(v.Severity)).Inc()
			if e.stream != nil {
				e.stream.Publish(tsdb.EventInvariant, time.Now(), v)
			}
		},
	}
}
