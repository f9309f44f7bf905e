package server

import (
	"context"
	"time"

	"repro/internal/obs/metrics"
)

// runner is a job's executable form, one type per job kind: *simRun
// (kind_sim.go) and *tteRun (kind_tte.go). Executor.resolve builds it
// once, at submission, so the worker loop never asks a job its kind:
// breakers, the cache, shedding, tracing and drain treat every runner
// alike.
type runner interface {
	// breakerKey names the registry entry the job resolves through,
	// which keys its circuit breaker.
	breakerKey(spec JobSpec) string
	// detail names the same entry for the job's submitted event.
	detail(spec JobSpec) string
	// latency is the kind's own wall-clock histogram, observed beside
	// capmand_job_wall_seconds, and the threshold past which the job's
	// trace is flagged as an SLO breach; nil and 0 when the kind has none.
	latency(e *Executor) (*metrics.Histogram, time.Duration)
	// prepare attaches the executor's per-job instrumentation; the worker
	// calls it once, before the run.
	prepare(e *Executor)
	// run executes the job once.
	run(ctx context.Context) (*Outcome, error)
	// account records the kind's own metrics for an ended job (out is nil
	// when the run did not succeed) and reports whether out carries a fatal
	// safety-contract violation.
	account(e *Executor, out *Outcome) (fatal bool)
}

// resolve builds a spec's runner through the registry. It is the one
// place that branches on a job's kind.
func (e *Executor) resolve(spec JobSpec) (runner, error) {
	switch spec.kindName() {
	case "tte":
		cfg, err := e.registry.ResolveTTE(spec)
		if err != nil {
			return nil, err
		}
		return &tteRun{cfg: cfg}, nil
	default:
		cfg, err := e.registry.Resolve(spec)
		if err != nil {
			return nil, err
		}
		return &simRun{cfg: cfg, cycles: spec.Cycles}, nil
	}
}
