package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/mdp"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/simstruct"
	"repro/internal/twin"
)

// inprocJobs bounds how many of a workload's sims and cohorts the
// in-process leg replays.
const inprocJobs = 6

// inproc is the in-process leg of the traced run: the benchmark calls each
// layer's public functions itself, on the workload's own specs, with the
// daemon's defaults (invariant checker on, sims traced), and times them.
type inproc struct {
	engineMS map[string]float64 // content hash -> engine wall time

	resolveUS, marshalUS                   []float64
	simJobs, steps                         int
	runNS                                  float64
	phaseNS                                [5]float64 // workload, policy, battery, thermal, tec
	decP50US, decP99US                     []float64
	refreshes, simRuns, valueIters         int
	refreshMS                              float64
	emdPerRun, computeMS                   []float64
	cohorts                                int
	newMS, runMS, summarizeUS, twinStepsPS []float64
	admissionNS                            float64
}

// inprocSpecs picks up to inprocJobs distinct sims and cohorts from the
// workload: its primed key space first, then its timed list.
func inprocSpecs(w *workload) (sims, cohorts []*request) {
	seen := make(map[string]bool)
	for _, r := range append(append([]*request(nil), w.keys...), w.list...) {
		if seen[r.hash] {
			continue
		}
		seen[r.hash] = true
		if r.isTTE() && len(cohorts) < inprocJobs {
			cohorts = append(cohorts, r)
		} else if !r.isTTE() && len(sims) < inprocJobs {
			sims = append(sims, r)
		}
	}
	return sims, cohorts
}

func runInproc(w *workload) (*inproc, error) {
	ip := &inproc{engineMS: make(map[string]float64)}
	reg := server.DefaultRegistry()
	inv := invariant.DefaultConfig()
	sims, cohorts := inprocSpecs(w)
	for _, r := range sims {
		if err := ip.sim(reg, &inv, r); err != nil {
			return nil, fmt.Errorf("in-process sim %.12s: %w", r.hash, err)
		}
	}
	for _, r := range cohorts {
		if err := ip.cohort(reg, &inv, r); err != nil {
			return nil, fmt.Errorf("in-process cohort %.12s: %w", r.hash, err)
		}
	}
	first := w.list[0]
	if len(w.keys) > 0 {
		first = w.keys[0]
	}
	ns, err := admissionHit(first.spec)
	if err != nil {
		return nil, err
	}
	ip.admissionNS = ns
	return ip, nil
}

func sinceUS(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Microsecond) }

func (ip *inproc) sim(reg *server.Registry, inv *invariant.Config, r *request) error {
	t := time.Now()
	cfg, err := reg.Resolve(r.spec)
	ip.resolveUS = append(ip.resolveUS, sinceUS(t))
	if err != nil {
		return err
	}
	cfg.Recorder = obs.NewRecorder(0)
	cfg.Invariants = inv
	t = time.Now()
	res, err := sim.Run(cfg)
	engine := time.Since(t)
	if err != nil {
		return err
	}
	ip.engineMS[r.hash] = ms(engine)
	ip.simJobs++
	ip.steps += res.Steps
	ip.runNS += float64(engine)
	tm := res.Timing
	for k, s := range []float64{tm.WorkloadS, tm.PolicyS, tm.BatteryS, tm.ThermalS, tm.TECS} {
		ip.phaseNS[k] += s * 1e9
	}
	ip.decP50US = append(ip.decP50US, tm.DecisionLatency.Quantile(0.5)*1e6)
	ip.decP99US = append(ip.decP99US, tm.DecisionLatency.Quantile(0.99)*1e6)

	sch, ok := cfg.Policy.(*core.Scheduler)
	if !ok {
		return fmt.Errorf("policy %T is not the capman scheduler", cfg.Policy)
	}
	st := sch.Stats()
	ip.refreshes += st.Refreshes
	ip.simRuns += st.SimilarityRuns
	ip.valueIters += st.ValueIters
	// Stats scale refresh cost by the phone's overhead factor; undo it to
	// report host time.
	ip.refreshMS += st.TotalRefreshSec / cfg.Profile.DecisionOverheadScale * 1000
	if sr := sch.Similarity(); sr != nil {
		ip.emdPerRun = append(ip.emdPerRun, float64(sr.EMDSolves))
	}
	if m := sch.Model(); m != nil {
		g, err := mdp.BuildGraph(m, true, mdp.StateBatteryOf)
		if err != nil {
			return err
		}
		t = time.Now()
		if _, err := simstruct.Compute(g, simstruct.DefaultConfig(sch.Rho())); err != nil && !errors.Is(err, simstruct.ErrNoConverge) {
			return err
		}
		ip.computeMS = append(ip.computeMS, ms(time.Since(t)))
	}
	t = time.Now()
	if _, err := json.Marshal(&server.Outcome{Run: res}); err != nil {
		return err
	}
	ip.marshalUS = append(ip.marshalUS, sinceUS(t))
	return nil
}

func (ip *inproc) cohort(reg *server.Registry, inv *invariant.Config, r *request) error {
	t := time.Now()
	cfg, err := reg.ResolveTTE(r.spec)
	ip.resolveUS = append(ip.resolveUS, sinceUS(t))
	if err != nil {
		return err
	}
	cfg.Invariants = inv
	start := time.Now()
	b, err := twin.New(cfg)
	if err != nil {
		return err
	}
	ip.newMS = append(ip.newMS, ms(time.Since(start)))
	t = time.Now()
	if err := b.Run(context.Background(), 0); err != nil {
		return err
	}
	run := time.Since(t)
	ip.runMS = append(ip.runMS, ms(run))
	ip.twinStepsPS = append(ip.twinStepsPS, float64(b.Twins()*b.Steps())/run.Seconds())
	t = time.Now()
	s := b.Summarize()
	ip.summarizeUS = append(ip.summarizeUS, sinceUS(t))
	ip.engineMS[r.hash] = ms(time.Since(start))
	ip.cohorts++
	t = time.Now()
	if _, err := json.Marshal(&server.Outcome{TTE: s}); err != nil {
		return err
	}
	ip.marshalUS = append(ip.marshalUS, sinceUS(t))
	return nil
}

// admissionHit times Executor.Submit on a cached spec: a default executor
// runs the spec once, then serves it from its cache in batches; the
// median batch's per-call cost is reported.
func admissionHit(spec server.JobSpec) (float64, error) {
	ex := server.NewExecutor(server.ExecutorConfig{})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = ex.Drain(ctx)
	}()
	v, err := ex.Submit(spec)
	if err != nil {
		return 0, err
	}
	for deadline := time.Now().Add(60 * time.Second); !v.State.Terminal(); {
		if time.Now().After(deadline) {
			return 0, fmt.Errorf("admission probe job never finished")
		}
		time.Sleep(time.Millisecond)
		if v, err = ex.Get(v.ID); err != nil {
			return 0, err
		}
	}
	if v.State != server.StateDone {
		return 0, fmt.Errorf("admission probe job ended %s: %s", v.State, v.Error)
	}
	const batches, calls = 21, 2000
	per := make([]float64, 0, batches)
	for b := 0; b < batches; b++ {
		t := time.Now()
		for i := 0; i < calls; i++ {
			if v, err := ex.Submit(spec); err != nil || !v.CacheHit {
				return 0, fmt.Errorf("admission probe: cached spec missed (%v)", err)
			}
		}
		per = append(per, float64(time.Since(t))/calls)
	}
	return median(per), nil
}
