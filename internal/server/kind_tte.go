package server

import (
	"context"
	"fmt"
	"time"

	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/obs/metrics"
	"repro/internal/twin"
)

// tteRun is a tte job's runner: one Monte Carlo twin cohort whose
// first-passage distribution answers "when does the battery empty".
type tteRun struct {
	cfg twin.Config
}

// ResolveTTE builds the twin-batch configuration a tte-kind spec names.
// It shares Resolve's preamble, so tte jobs accept exactly the sim
// vocabulary.
func (r *Registry) ResolveTTE(spec JobSpec) (twin.Config, error) {
	base, err := r.resolveBase(spec)
	if err != nil {
		return twin.Config{}, err
	}
	spec = base.spec
	if spec.Kind != "tte" {
		return twin.Config{}, fmt.Errorf("%w: ResolveTTE on %q job", ErrBadSpec, spec.Kind)
	}

	t := spec.TTE
	params, err := cellParams(t.Chemistry, t.MAh)
	if err != nil {
		return twin.Config{}, fmt.Errorf("%w: twin cell: %v", ErrBadSpec, err)
	}
	return twin.Config{
		Profile:      base.profile,
		Workload:     base.workload,
		Cell:         params,
		DT:           spec.DT,
		HorizonS:     t.HorizonS,
		Twins:        t.Twins,
		Seed:         uint64(spec.Seed),
		LoadNoise:    twin.NoiseConfig{Sigma: t.LoadNoiseFrac, TauS: t.NoiseTauS},
		AmbientNoise: twin.NoiseConfig{Sigma: t.AmbientNoiseC, TauS: t.NoiseTauS},
		TEC:          base.tec,
	}, nil
}

// breakerKey: a tte job has no policy, so tte jobs share breakers per
// workload under a kind prefix.
func (*tteRun) breakerKey(spec JobSpec) string { return "tte/" + spec.Workload }

func (*tteRun) detail(spec JobSpec) string { return "tte workload " + spec.Workload }

// latency is capmand_tte_latency_seconds, held to the SLO's TTE p99
// target.
func (*tteRun) latency(e *Executor) (*metrics.Histogram, time.Duration) {
	return e.metrics.TTELatency, e.sloTTE
}

func (r *tteRun) prepare(e *Executor) { r.cfg.Invariants = e.invariants }

// run sweeps the cohort and summarizes its first-passage distribution.
// The batch parallelizes internally (worker count 0 means GOMAXPROCS);
// results are bit-identical at any width, so the cache stays
// content-addressed by spec alone.
func (r *tteRun) run(ctx context.Context) (*Outcome, error) {
	// The worker bound a request-tagged logger into the context, so a TTE
	// failure in the twin engine's logs is traceable back to its request.
	log := obs.Logger(ctx)
	b, err := twin.New(r.cfg)
	if err != nil {
		return nil, err
	}
	// The batch runs under one engine span, which carries the cohort's
	// breadcrumbs, so a tte trace's waterfall shows cohort execution the
	// way sim traces show phase spans.
	_, runSpan := obs.StartSpan(ctx, "twin.run")
	runSpan.SetAttr("twins", b.Twins())
	runSpan.SetAttr("steps", b.Steps())
	defer runSpan.End()
	log.Debug("tte batch start", "twins", b.Twins(), "steps", b.Steps())
	runSpan.Event(obs.FlightNote, "twin.run",
		fmt.Sprintf("start cohort of %d twins, %d steps each", b.Twins(), b.Steps()), nil)
	if err := b.Run(ctx, 0); err != nil {
		log.Warn("tte batch aborted", "error", err)
		return nil, err
	}
	s := b.Summarize()
	for name, n := range s.InvariantViolations {
		runSpan.Event(obs.FlightInvariant, name,
			fmt.Sprintf("%d violation(s) across the cohort", n),
			map[string]string{"severity": string(invariant.SeverityOfName(name))})
	}
	log.Debug("tte batch done",
		"emptied", s.Emptied, "censored", s.Censored, "tte_p50_s", s.TTEP50S)
	runSpan.Event(obs.FlightNote, "twin.run",
		fmt.Sprintf("end %d emptied, %d censored; p50 %.0fs", s.Emptied, s.Censored, s.TTEP50S), nil)
	return &Outcome{TTE: s}, nil
}

// account adds the cohort's per-contract violation totals: twin batches
// report them only at summary time, where sim jobs stream theirs live.
func (*tteRun) account(e *Executor, out *Outcome) (fatal bool) {
	if out == nil || out.TTE == nil {
		return false
	}
	for name, n := range out.TTE.InvariantViolations {
		sev := invariant.SeverityOfName(name)
		e.metrics.InvariantViolations.WithLabelValues(name, string(sev)).Add(uint64(n))
		fatal = fatal || n > 0 && sev == invariant.SeverityFatal
	}
	return fatal
}
