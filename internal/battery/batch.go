package battery

import (
	"fmt"
	"math"
)

// This file is the batch-steppable face of the cell model. The physics of
// one discharge step lives in stepCore, a pure function over a small value
// state; Cell.Step wraps it with accounting and error reporting, and Lanes
// exposes the same function over structure-of-arrays state so internal/twin
// can step thousands of cells with zero per-step allocations. Because both
// paths execute the identical expressions, a lane and a Cell given the same
// inputs produce bit-identical trajectories (see TestLanesMatchCell and the
// batched-vs-scalar oracle test in internal/twin).

// StepOutcome classifies one core step without allocating an error value.
type StepOutcome uint8

// Core step outcomes. StepOK is a served step; StepIdleDepleted is a
// depleted cell resting at zero load (a no-op, not a failure); everything
// else is a first-passage event on the cell's cutoff/charge boundary.
const (
	StepOK StepOutcome = iota
	StepIdleDepleted
	StepDepleted    // depleted cell asked to serve load (ErrDepleted)
	StepAtCutoff    // source voltage at/below cutoff (ErrCannotSupply)
	StepOverPeak    // demand exceeds peak power (ErrCannotSupply)
	StepBelowCutoff // terminal voltage below cutoff (ErrCannotSupply)
	StepWellEmpty   // available well exhausted within dt (ErrCannotSupply)
)

// Failed reports whether the outcome ends a discharge: the cell could not
// serve the requested load this step.
func (o StepOutcome) Failed() bool { return o != StepOK && o != StepIdleDepleted }

// toError maps an outcome onto the sentinel errors Cell.Step reports. aux
// carries the diagnostic value recorded by stepCore (source voltage, peak
// power, or terminal voltage, by outcome).
func (o StepOutcome) toError(p *Params, powerW, aux float64) error {
	switch o {
	case StepOK, StepIdleDepleted:
		return nil
	case StepDepleted:
		return ErrDepleted
	case StepAtCutoff:
		return fmt.Errorf("%w: source voltage %.3fV at cutoff", ErrCannotSupply, aux)
	case StepOverPeak:
		return fmt.Errorf("%w: %.2fW exceeds peak power %.2fW", ErrCannotSupply, powerW, aux)
	case StepBelowCutoff:
		return fmt.Errorf("%w: terminal voltage %.3fV below cutoff %.3fV", ErrCannotSupply, aux, p.CutoffV)
	case StepWellEmpty:
		return fmt.Errorf("%w: available well exhausted", ErrCannotSupply)
	}
	return fmt.Errorf("battery: unknown step outcome %d", o)
}

// coreState is the minimal mutable state of one cell: the KiBaM wells, the
// polarization voltage, and the depletion latch.
type coreState struct {
	avail, bound, vPol float64
	depleted           bool
}

// socCore is Cell.SoC over explicit well contents.
func socCore(p *Params, avail, bound float64) float64 {
	cap := p.CapacityCoulomb * p.UsableFraction
	if cap <= 0 {
		return 0
	}
	return clamp01((avail + bound) / cap)
}

// decays are the exponential factors of one step length. They depend only
// on (Params, dt), so a cell computes them once per step length instead of
// once per step: Cell keeps one set for its step dt and one for the
// CanSupply horizon, and Lanes one for its shared dt. The expressions are
// the ones the step used to evaluate inline, so the bits match.
type decays struct {
	dt     float64
	lambda float64 // KiBaM well-coupling rate k / (c*(1-c))
	well   float64 // exp(-lambda*dt): the head gap's decay over dt
	pol    float64 // 1 - exp(-dt/(R1*C1)): the polarization RC's approach; 0 without R1
}

func newDecays(p *Params, dt float64) decays {
	cFrac := p.AvailFraction
	lambda := p.KRate / (cFrac * (1 - cFrac))
	d := decays{dt: dt, lambda: lambda, well: math.Exp(-lambda * dt)}
	if p.R1 > 0 {
		tau := p.R1 * p.C1
		d.pol = 1 - math.Exp(-dt/tau)
	}
	return d
}

// wellsAfterCore solves the KiBaM two-well exchange exactly over d.dt
// under a constant well drain. The head gap g = h2 - h1 obeys
//
//	g' = -lambda*g + wellI/c,   lambda = k / (c*(1-c)),
//
// which has a closed-form exponential solution; total charge falls by
// wellI*dt. The closed form is unconditionally stable for any dt, unlike a
// forward-Euler exchange. ok is false when the available well cannot cover
// the drain.
func wellsAfterCore(p *Params, d *decays, availNow, boundNow, wellI float64) (avail, bound float64, ok bool) {
	cFrac := p.AvailFraction
	h1 := availNow / cFrac
	h2 := boundNow / (1 - cFrac)
	g := h2 - h1
	gInf := wellI / (cFrac * d.lambda) // steady-state gap under this drain
	gNew := g*d.well + gInf*(1-d.well)

	total := availNow + boundNow - wellI*d.dt
	if total < 0 {
		return 0, 0, false
	}
	// h1 = total - (1-c)*g; wells must both stay non-negative.
	h1New := total - (1-cFrac)*gNew
	avail = cFrac * h1New
	bound = total - avail
	if avail < 0 {
		return 0, 0, false
	}
	if bound < 0 {
		// The bound well emptied mid-step; all remaining charge is
		// available.
		avail, bound = total, 0
	}
	return avail, bound, true
}

// solveCurrentCore finds the discharge current I satisfying
// P = (OCV - vPol - I*R0) * I, i.e. the smaller root of
// R0*I^2 - (OCV-vPol)*I + P = 0. e is the source voltage OCV - vPol. On a
// non-OK outcome aux carries the value the error message cites.
func solveCurrentCore(p *Params, e, powerW, r0 float64) (i float64, code StepOutcome, aux float64) {
	if powerW <= 0 {
		return 0, StepOK, 0
	}
	if e <= p.CutoffV {
		return 0, StepAtCutoff, e
	}
	disc := e*e - 4*r0*powerW
	if disc < 0 {
		return 0, StepOverPeak, e * e / (4 * r0)
	}
	i = (e - math.Sqrt(disc)) / (2 * r0)
	if v := e - i*r0; v < p.CutoffV {
		return 0, StepBelowCutoff, v
	}
	return i, StepOK, 0
}

// opPoint is a live cell's electrical operating point at one load and
// temperature: what CanSupply probes and what a step starts from. code and
// aux are solveCurrentCore's outcome.
type opPoint struct {
	ocv, r0, i float64
	code       StepOutcome
	aux        float64
}

// solveOp finds the operating point of a live cell state.
func solveOp(p *Params, st *coreState, powerW, tempC float64) opPoint {
	op := opPoint{r0: p.r0At(tempC), ocv: p.OCVAt(socCore(p, st.avail, st.bound))}
	op.i, op.code, op.aux = solveCurrentCore(p, op.ocv-st.vPol, powerW, op.r0)
	return op
}

// stepCore advances one cell state by d.dt seconds under powerW from the
// operating point op (solveOp of st at powerW; ignored for a depleted
// state). arrh is the Arrhenius factor of the parasitic drain at the
// step's temperature (Params.arrhenius). It is the single source of truth
// for the discharge physics: Cell.Step and Lanes.Step both call it, which
// is what makes batched and scalar runs bit-identical. On a failed outcome
// the returned state is the input state, unmodified. Validation of dt and
// powerW is the caller's job.
func stepCore(p *Params, d *decays, st coreState, op *opPoint, powerW, arrh float64) (coreState, StepResult, StepOutcome, float64) {
	if st.depleted {
		if powerW > 0 {
			return st, StepResult{}, StepDepleted, 0
		}
		return st, StepResult{}, StepIdleDepleted, 0
	}
	if op.code != StepOK {
		return st, StepResult{}, op.code, op.aux
	}
	i, r0, ocv := op.i, op.r0, op.ocv

	// Total current leaving the wells: the load current scaled by the
	// high-rate penalty, plus the parasitic drain converted to current.
	parasiticW := p.parasiticW(arrh)
	parasiticI := 0.0
	if ocv > 0 {
		parasiticI = parasiticW / ocv
	}
	mult := p.drainMultiplier(i)
	wellI := i*mult + parasiticI

	avail, bound, ok := wellsAfterCore(p, d, st.avail, st.bound, wellI)
	if !ok {
		if powerW > 0 {
			return st, StepResult{}, StepWellEmpty, 0
		}
		// Resting with an empty well: drain what little remains.
		avail, bound, _ = wellsAfterCore(p, d, st.avail, st.bound, 0)
		avail -= math.Min(avail, wellI*d.dt)
	}
	st.avail, st.bound = avail, bound

	// Polarization RC update (first-order exact step).
	if p.R1 > 0 {
		target := i * p.R1
		st.vPol += (target - st.vPol) * d.pol
	}

	v := ocv - st.vPol - i*r0
	if powerW == 0 {
		v = ocv - st.vPol
	}

	heatW := i*i*r0 + st.vPol*i*signum(p.R1) + parasiticW + (mult-1)*i*v
	if heatW < 0 {
		heatW = 0
	}

	if st.avail <= 0 && st.bound <= 1e-9 {
		st.depleted = true
	}
	if socCore(p, st.avail, st.bound) <= 0 {
		st.depleted = true
	}
	return st, StepResult{Current: i, Voltage: v, HeatW: heatW}, StepOK, 0
}

// Lanes is a structure-of-arrays view over n independent cells sharing one
// parameter set and one step length: the batch-steppable form of Cell.
// The exported slices are the flat state lanes (internal/twin reads them
// directly); mutate them only through Step and Reset.
type Lanes struct {
	params Params
	decays decays
	Avail  []float64
	Bound  []float64
	VPol   []float64
	Depl   []bool
}

// NewLanes builds n fully charged cells with identical parameters, stepped
// dt seconds at a time.
func NewLanes(p Params, n int, dt float64) (*Lanes, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("battery: lanes need at least one cell, got %d", n)
	}
	if dt <= 0 {
		return nil, fmt.Errorf("battery: non-positive dt %v", dt)
	}
	l := &Lanes{
		params: p,
		decays: newDecays(&p, dt),
		Avail:  make([]float64, n),
		Bound:  make([]float64, n),
		VPol:   make([]float64, n),
		Depl:   make([]bool, n),
	}
	l.Reset()
	return l, nil
}

// Len returns the number of cells.
func (l *Lanes) Len() int { return len(l.Avail) }

// Params returns the shared cell parameters.
func (l *Lanes) Params() Params { return l.params }

// Reset restores every lane to the fully charged state NewCell starts
// from. It never allocates.
func (l *Lanes) Reset() {
	usable := l.params.CapacityCoulomb * l.params.UsableFraction
	avail := usable * l.params.AvailFraction
	bound := usable * (1 - l.params.AvailFraction)
	for i := range l.Avail {
		l.Avail[i] = avail
		l.Bound[i] = bound
		l.VPol[i] = 0
		l.Depl[i] = false
	}
}

// SoC returns cell i's state of charge in [0, 1] over usable capacity.
func (l *Lanes) SoC(i int) float64 {
	return socCore(&l.params, l.Avail[i], l.Bound[i])
}

// Depleted reports whether cell i has been exhausted.
func (l *Lanes) Depleted(i int) bool { return l.Depl[i] }

// Step advances cell i by the lanes' dt exactly as Cell.Step would,
// returning the outcome as a code instead of an error so the hot loop never
// allocates. On a failed outcome the lane is left untouched. powerW must be
// non-negative; batch callers validate once up front.
func (l *Lanes) Step(i int, powerW, tempC float64) (StepResult, StepOutcome) {
	p := &l.params
	st := coreState{l.Avail[i], l.Bound[i], l.VPol[i], l.Depl[i]}
	var op opPoint
	if !st.depleted {
		op = solveOp(p, &st, powerW, tempC)
	}
	next, res, code, _ := stepCore(p, &l.decays, st, &op, powerW, p.arrhenius(tempC))
	if code == StepOK {
		l.Avail[i], l.Bound[i], l.VPol[i], l.Depl[i] = next.avail, next.bound, next.vPol, next.depleted
	}
	return res, code
}
