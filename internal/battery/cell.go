package battery

import (
	"errors"
	"fmt"
)

// Cell is a simulated lithium-ion cell combining a KiBaM charge model with a
// Thévenin equivalent circuit. A Cell is not safe for concurrent use.
type Cell struct {
	params Params

	// KiBaM wells, in coulombs.
	avail float64 // charge immediately deliverable
	bound float64 // charge that must diffuse into the available well

	// vPol is the voltage across the R1||C1 polarization pair.
	vPol float64

	// lastI and lastV cache the most recent step's electrical operating
	// point for observation.
	lastI float64
	lastV float64

	drawnC     float64 // total charge drawn from the terminal, coulombs
	drawnJ     float64 // total energy drawn from the terminal, joules
	wastedJ    float64 // resistive + parasitic + rate-penalty losses
	depleted   bool
	stepsTaken uint64

	// stepDecays and horizonDecays hold the exponential factors of the
	// last step length and of the CanSupply horizon.
	stepDecays    decays
	horizonDecays decays

	// probe is the last operating point solved, at load probeW and
	// temperature probeC. A CanSupply probe and the Step that follows at
	// the same load share its OCV lookup and current solve, and a step
	// at another load on the same state and temperature (an idle cell's
	// rest after its probe) reuses its OCV and R0. probeOK caches
	// CanSupply's answer once probeChecked. Any change to the wells or
	// polarization clears probeValid.
	probe          opPoint
	probeW, probeC float64
	probeValid     bool
	probeChecked   bool
	probeOK        bool
}

// Step errors.
var (
	// ErrDepleted reports that the cell can no longer serve any load.
	ErrDepleted = errors.New("battery: cell depleted")
	// ErrCannotSupply reports that the requested power exceeds what the
	// cell can deliver at its present state without collapsing below the
	// cutoff voltage.
	ErrCannotSupply = errors.New("battery: cannot supply requested power")
)

// NewCell builds a fully charged cell.
func NewCell(p Params) (*Cell, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	usable := p.CapacityCoulomb * p.UsableFraction
	c := &Cell{
		params:        p,
		avail:         usable * p.AvailFraction,
		bound:         usable * (1 - p.AvailFraction),
		horizonDecays: newDecays(&p, canSupplyHorizonS),
	}
	c.lastV = p.OCVAt(1)
	return c, nil
}

// decaysFor returns the exponential factors of a dt-second step,
// recomputing them only when the step length changes.
func (c *Cell) decaysFor(dt float64) *decays {
	if c.stepDecays.dt != dt {
		c.stepDecays = newDecays(&c.params, dt)
	}
	return &c.stepDecays
}

// state returns the cell's core state.
func (c *Cell) state() coreState { return coreState{c.avail, c.bound, c.vPol, c.depleted} }

// opAt returns the live cell's operating point at powerW and tempC,
// reusing what the last one solved on the same state (see probe).
func (c *Cell) opAt(powerW, tempC float64) *opPoint {
	switch {
	case !c.probeValid || c.probeC != tempC:
		st := c.state()
		c.probe = solveOp(&c.params, &st, powerW, tempC)
	case c.probeW != powerW:
		op := &c.probe
		op.i, op.code, op.aux = solveCurrentCore(&c.params, op.ocv-c.vPol, powerW, op.r0)
	default:
		return &c.probe
	}
	c.probeW, c.probeC = powerW, tempC
	c.probeValid, c.probeChecked = true, false
	return &c.probe
}

// Params returns the cell's immutable parameters.
func (c *Cell) Params() Params { return c.params }

// usableCapacity returns the full usable charge in coulombs.
func (c *Cell) usableCapacity() float64 {
	return c.params.CapacityCoulomb * c.params.UsableFraction
}

// SoC returns the state of charge in [0, 1] over usable capacity.
func (c *Cell) SoC() float64 {
	cap := c.usableCapacity()
	if cap <= 0 {
		return 0
	}
	soc := (c.avail + c.bound) / cap
	return clamp01(soc)
}

// AvailableSoC returns the fraction of usable capacity that is in the
// available well and deliverable without diffusion delay.
func (c *Cell) AvailableSoC() float64 {
	cap := c.usableCapacity()
	if cap <= 0 {
		return 0
	}
	return clamp01(c.avail / cap)
}

// RemainingJ estimates remaining energy at nominal voltage.
func (c *Cell) RemainingJ() float64 {
	return (c.avail + c.bound) * c.params.NominalV
}

// Voltage returns the terminal voltage at the most recent operating point.
func (c *Cell) Voltage() float64 { return c.lastV }

// Current returns the discharge current of the most recent step.
func (c *Cell) Current() float64 { return c.lastI }

// Depleted reports whether the cell has been exhausted.
func (c *Cell) Depleted() bool { return c.depleted }

// DrawnCoulombs returns the cumulative charge drawn from the terminal.
func (c *Cell) DrawnCoulombs() float64 { return c.drawnC }

// DrawnJ returns the cumulative energy delivered at the terminal.
func (c *Cell) DrawnJ() float64 { return c.drawnJ }

// WastedJ returns cumulative internal losses (resistive heat, parasitic
// drain, and high-rate inefficiency) in joules.
func (c *Cell) WastedJ() float64 { return c.wastedJ }

// StepResult reports the electrical outcome of one simulation step.
type StepResult struct {
	Current float64 // amperes delivered to the load
	Voltage float64 // terminal volts under load
	HeatW   float64 // waste heat generated during the step
}

// ocvNow returns the open-circuit voltage at the present total SoC.
func (c *Cell) ocvNow() float64 { return c.params.OCVAt(c.SoC()) }

// canSupplyHorizonS is how long CanSupply requires the available well to
// sustain the demand; it keeps feasibility checks meaningful for the next
// few simulation steps rather than a single instant.
const canSupplyHorizonS = 1.0

// CanSupply reports whether the cell could serve powerW at temperature
// tempC without violating its cutoff voltage or starving its available
// well within the feasibility horizon.
func (c *Cell) CanSupply(powerW, tempC float64) bool {
	if c.depleted {
		return powerW <= 0
	}
	if powerW <= 0 {
		return true
	}
	if c.avail <= 0 {
		return false
	}
	op := c.opAt(powerW, tempC)
	if !c.probeChecked {
		c.probeOK, c.probeChecked = c.horizonOK(op), true
	}
	return c.probeOK
}

// horizonOK reports whether the operating point is servable and the wells
// sustain its drain for the feasibility horizon.
func (c *Cell) horizonOK(op *opPoint) bool {
	if op.code != StepOK {
		return false
	}
	wellI := op.i * c.params.drainMultiplier(op.i)
	_, _, ok := wellsAfterCore(&c.params, &c.horizonDecays, c.avail, c.bound, wellI)
	return ok
}

// Step discharges the cell by powerW (plus its own parasitic drain) for dt
// seconds at ambient/battery temperature tempC. A powerW of zero models an
// idle (recovering) cell. Step returns ErrDepleted or ErrCannotSupply when
// the load cannot be served; the cell state is not advanced in that case.
func (c *Cell) Step(powerW, tempC, dt float64) (StepResult, error) {
	return c.step(powerW, tempC, dt, c.params.arrhenius(tempC))
}

// step is Step under a precomputed Arrhenius factor (Params.arrhenius at
// tempC).
func (c *Cell) step(powerW, tempC, dt, arrh float64) (StepResult, error) {
	if dt <= 0 {
		return StepResult{}, fmt.Errorf("battery: non-positive dt %v", dt)
	}
	if powerW < 0 {
		return StepResult{}, fmt.Errorf("battery: negative power %v", powerW)
	}
	var op *opPoint
	if !c.depleted {
		op = c.opAt(powerW, tempC)
	}
	next, res, code, aux := stepCore(&c.params, c.decaysFor(dt), c.state(), op, powerW, arrh)
	if code == StepIdleDepleted {
		// A depleted cell resting at zero load is a no-op: no state
		// change, no accounting.
		return StepResult{}, nil
	}
	if code != StepOK {
		return StepResult{}, code.toError(&c.params, powerW, aux)
	}
	c.avail, c.bound, c.vPol, c.depleted = next.avail, next.bound, next.vPol, next.depleted
	c.probeValid = false
	c.lastI = res.Current
	c.lastV = res.Voltage
	c.drawnC += res.Current * dt
	c.drawnJ += powerW * dt
	c.wastedJ += res.HeatW * dt
	c.stepsTaken++
	return res, nil
}

// Rest advances the cell with zero load, allowing KiBaM recovery and
// polarization relaxation.
func (c *Cell) Rest(tempC, dt float64) error {
	_, err := c.Step(0, tempC, dt)
	return err
}

func clamp01(x float64) float64 {
	switch {
	case x < 0:
		return 0
	case x > 1:
		return 1
	default:
		return x
	}
}

func signum(x float64) float64 {
	if x > 0 {
		return 1
	}
	return 0
}
