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
		params: p,
		avail:  usable * p.AvailFraction,
		bound:  usable * (1 - p.AvailFraction),
	}
	c.lastV = p.OCVAt(1)
	return c, nil
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

// wellsAfter delegates to wellsAfterCore over the cell's own wells; the
// KiBaM closed form is documented there.
func (c *Cell) wellsAfter(wellI, dt float64) (avail, bound float64, ok bool) {
	return wellsAfterCore(&c.params, c.avail, c.bound, wellI, dt)
}

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
	// The probe needs only the outcome code, not the error message.
	i, code, _ := solveCurrentCore(&c.params, c.ocvNow()-c.vPol, powerW, c.params.r0At(tempC))
	if code != StepOK {
		return false
	}
	// The wells must sustain the drain for the feasibility horizon.
	wellI := i * c.params.drainMultiplier(i)
	_, _, ok := c.wellsAfter(wellI, canSupplyHorizonS)
	return ok
}

// Step discharges the cell by powerW (plus its own parasitic drain) for dt
// seconds at ambient/battery temperature tempC. A powerW of zero models an
// idle (recovering) cell. Step returns ErrDepleted or ErrCannotSupply when
// the load cannot be served; the cell state is not advanced in that case.
func (c *Cell) Step(powerW, tempC, dt float64) (StepResult, error) {
	if dt <= 0 {
		return StepResult{}, fmt.Errorf("battery: non-positive dt %v", dt)
	}
	if powerW < 0 {
		return StepResult{}, fmt.Errorf("battery: negative power %v", powerW)
	}
	st := coreState{c.avail, c.bound, c.vPol, c.depleted}
	next, res, code, aux := stepCore(&c.params, st, powerW, tempC, dt)
	if code == StepIdleDepleted {
		// A depleted cell resting at zero load is a no-op: no state
		// change, no accounting.
		return StepResult{}, nil
	}
	if code != StepOK {
		return StepResult{}, code.toError(&c.params, powerW, aux)
	}
	c.avail, c.bound, c.vPol, c.depleted = next.avail, next.bound, next.vPol, next.depleted
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
