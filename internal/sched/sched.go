// Package sched defines the battery-scheduling policy interface and the
// paper's baseline schedulers: Practice (single battery), Dual
// (LITTLE-first), Heuristic (utilisation-model prediction), and the
// offline-tuned Oracle threshold. The CAPMAN policy itself lives in
// internal/core.
package sched

import (
	"repro/internal/battery"
	"repro/internal/mdp"
	"repro/internal/workload"
)

// Context is everything a policy may inspect when deciding which battery
// serves the next step.
type Context struct {
	Now float64
	DT  float64

	// State is the current hardware state vector, including the battery
	// that served the previous step and the TEC state.
	State mdp.StateVec
	// Event is the action symbol observed this tick.
	Event workload.Action

	// DemandW is the total electrical demand of the next step (device
	// components plus TEC).
	DemandW float64
	// Utilization is the CPU utilisation fraction of the demand.
	Utilization float64

	CPUTempC  float64
	BodyTempC float64

	Big    battery.CellState
	Little battery.CellState

	// CanBig and CanLittle report per-cell feasibility at DemandW.
	CanBig    bool
	CanLittle bool

	// Health reports how trustworthy the readings above are (sensor
	// staleness, switch acknowledgements). All-zero on a healthy testbed;
	// the degradation Guard consumes it (see guard.go).
	Health Health
}

// Feasible returns the requested selection if that cell can serve the
// demand, otherwise the other one if it can; it falls back to the request
// when neither can (the pack will surface the failure).
func (c *Context) Feasible(want battery.Selection) battery.Selection {
	if c.can(want) {
		return want
	}
	if c.can(want.Other()) {
		return want.Other()
	}
	return want
}

// can reports whether the named cell can serve the demand; a selection
// naming neither cell never can.
func (c *Context) can(sel battery.Selection) bool {
	switch sel {
	case battery.SelectBig:
		return c.CanBig
	case battery.SelectLittle:
		return c.CanLittle
	}
	return false
}

// Decision is a policy's output for one step.
type Decision struct {
	Battery battery.Selection
}

// Policy schedules the big.LITTLE pack.
type Policy interface {
	Name() string
	// Decide picks the battery for the next step.
	Decide(ctx Context) Decision
	// Observe feeds back the realised transition: the context decided
	// on, the applied selection, the resulting state, and the step
	// reward in [0, 1]. Stateless policies may ignore it.
	Observe(prev Context, applied battery.Selection, next mdp.StateVec, reward float64)
}

// Compile-time interface checks.
var (
	_ Policy = (*Single)(nil)
	_ Policy = (*Dual)(nil)
	_ Policy = (*Heuristic)(nil)
	_ Policy = (*Threshold)(nil)
)

// Single is the Practice baseline's trivial policy: there is only one
// battery, so every decision is "big".
type Single struct{}

// NewSingle builds the policy.
func NewSingle() *Single { return &Single{} }

// Name implements Policy.
func (*Single) Name() string { return "Practice" }

// Decide implements Policy.
func (*Single) Decide(Context) Decision { return Decision{Battery: battery.SelectBig} }

// Observe implements Policy.
func (*Single) Observe(Context, battery.Selection, mdp.StateVec, float64) {}

// Dual is the paper's Dual baseline: big.LITTLE pack, but always drain the
// LITTLE battery first.
type Dual struct{}

// NewDual builds the policy.
func NewDual() *Dual { return &Dual{} }

// Name implements Policy.
func (*Dual) Name() string { return "Dual" }

// Decide implements Policy.
func (*Dual) Decide(ctx Context) Decision {
	if !ctx.Little.Depleted && ctx.CanLittle {
		return Decision{Battery: battery.SelectLittle}
	}
	return Decision{Battery: ctx.Feasible(battery.SelectBig)}
}

// Observe implements Policy.
func (*Dual) Observe(Context, battery.Selection, mdp.StateVec, float64) {}

// Heuristic is the paper's utilisation-based dual-battery baseline: it
// predicts the next step's demand with the Table II CPU model evaluated at
// the PREVIOUS step's utilisation. Being CPU-centric and one step behind,
// it lags demand transitions and is blind to radio-driven surges — the
// failure mode that costs it most on streaming workloads.
type Heuristic struct {
	// HighUtilThreshold routes predicted utilisation above it to LITTLE.
	HighUtilThreshold float64

	lastUtil float64
	seen     bool
}

// NewHeuristic builds the baseline with the calibrated default threshold.
func NewHeuristic() *Heuristic {
	return &Heuristic{HighUtilThreshold: 0.75}
}

// Name implements Policy.
func (*Heuristic) Name() string { return "Heuristic" }

// Decide implements Policy.
func (h *Heuristic) Decide(ctx Context) Decision {
	predictedU := ctx.Utilization
	if h.seen {
		predictedU = h.lastUtil
	}
	if predictedU >= h.HighUtilThreshold {
		return Decision{Battery: ctx.Feasible(battery.SelectLittle)}
	}
	return Decision{Battery: ctx.Feasible(battery.SelectBig)}
}

// Observe implements Policy: remember the realised utilisation as the next
// step's prediction.
func (h *Heuristic) Observe(prev Context, _ battery.Selection, _ mdp.StateVec, _ float64) {
	h.lastUtil = prev.Utilization
	h.seen = true
}

// Threshold routes demand at or above WattThreshold to the LITTLE cell. The
// Oracle baseline is a Threshold whose cut point was tuned offline against
// the full future demand sequence (see sim.TuneOracle).
type Threshold struct {
	PolicyName    string
	WattThreshold float64
}

// NewOracle wraps an offline-tuned threshold as the Oracle baseline.
func NewOracle(wattThreshold float64) *Threshold {
	return &Threshold{PolicyName: "Oracle", WattThreshold: wattThreshold}
}

// Name implements Policy.
func (t *Threshold) Name() string {
	if t.PolicyName != "" {
		return t.PolicyName
	}
	return "Threshold"
}

// Decide implements Policy.
func (t *Threshold) Decide(ctx Context) Decision {
	if ctx.DemandW >= t.WattThreshold {
		return Decision{Battery: ctx.Feasible(battery.SelectLittle)}
	}
	return Decision{Battery: ctx.Feasible(battery.SelectBig)}
}

// Observe implements Policy.
func (*Threshold) Observe(Context, battery.Selection, mdp.StateVec, float64) {}
