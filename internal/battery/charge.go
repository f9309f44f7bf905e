package battery

import (
	"errors"
	"fmt"
)

// Charging support. The paper optimises a single discharge cycle ("the
// duration between two device charges"), but a battery library without a
// charge path is not adoptable; cells charge with the standard CC-CV
// profile: constant current until the terminal voltage reaches the CV
// setpoint, then constant voltage with tapering current until the taper
// cutoff.

// ChargeSpec describes a CC-CV charge profile.
type ChargeSpec struct {
	// CurrentA is the constant-current phase magnitude.
	CurrentA float64
	// CVSetpointV is the constant-voltage ceiling (typically the OCV at
	// full charge).
	CVSetpointV float64
	// TaperA ends the CV phase once the charge current falls below it.
	TaperA float64
	// Efficiency is the coulombic efficiency of charging.
	Efficiency float64
}

// DefaultChargeSpec returns a 0.5C CC-CV profile for the cell.
func DefaultChargeSpec(p Params) ChargeSpec {
	return ChargeSpec{
		CurrentA:    0.5 * p.OneC(),
		CVSetpointV: p.OCVAt(1),
		TaperA:      0.05 * p.OneC(),
		Efficiency:  0.98,
	}
}

// Validate reports the first problem with the spec.
func (s ChargeSpec) Validate() error {
	switch {
	case s.CurrentA <= 0:
		return fmt.Errorf("%w: charge current %v", errBadCharge, s.CurrentA)
	case s.CVSetpointV <= 0:
		return fmt.Errorf("%w: CV setpoint %v", errBadCharge, s.CVSetpointV)
	case s.TaperA <= 0 || s.TaperA >= s.CurrentA:
		return fmt.Errorf("%w: taper %v against CC %v", errBadCharge, s.TaperA, s.CurrentA)
	case s.Efficiency <= 0 || s.Efficiency > 1:
		return fmt.Errorf("%w: efficiency %v", errBadCharge, s.Efficiency)
	}
	return nil
}

var errBadCharge = errors.New("battery: invalid charge spec")

// ChargeResult reports one charging step.
type ChargeResult struct {
	CurrentA float64
	Voltage  float64
	HeatW    float64
	// Full reports that the CV phase tapered out.
	Full bool
}

// Charge advances the cell through dt seconds of CC-CV charging at
// temperature tempC. Charging refills the available well first; the bound
// well follows through the usual KiBaM exchange during subsequent steps.
func (c *Cell) Charge(spec ChargeSpec, tempC, dt float64) (ChargeResult, error) {
	if err := spec.Validate(); err != nil {
		return ChargeResult{}, err
	}
	if dt <= 0 {
		return ChargeResult{}, fmt.Errorf("battery: non-positive dt %v", dt)
	}
	soc := c.SoC()
	if soc >= 1 {
		return ChargeResult{Voltage: c.params.OCVAt(1), Full: true}, nil
	}
	r0 := c.params.r0At(tempC)
	ocv := c.ocvNow()

	// CC phase unless the terminal would exceed the CV setpoint; in CV
	// the current is set by the setpoint: V = OCV + I*R0 => I = (Vset-OCV)/R0.
	i := spec.CurrentA
	v := ocv + i*r0
	if v > spec.CVSetpointV {
		i = (spec.CVSetpointV - ocv) / r0
		v = spec.CVSetpointV
	}
	if i <= spec.TaperA {
		c.depleted = false
		c.probeValid = false
		return ChargeResult{CurrentA: i, Voltage: v, Full: true}, nil
	}

	// Refill the available well, clamped at usable capacity.
	gained := i * spec.Efficiency * dt
	cap := c.usableCapacity()
	c.avail += gained
	if total := c.avail + c.bound; total > cap {
		c.avail -= total - cap
	}
	// Let the wells exchange toward balance during the step.
	if avail, bound, ok := wellsAfterCore(&c.params, c.decaysFor(dt), c.avail, c.bound, 0); ok {
		c.avail, c.bound = avail, bound
	}
	c.probeValid = false
	c.depleted = false
	c.vPol = 0 // charging resets discharge polarization for our purposes
	c.lastI = -i
	c.lastV = v
	heat := i*i*r0 + i*(1-spec.Efficiency)*v
	c.wastedJ += heat * dt
	return ChargeResult{CurrentA: i, Voltage: v, HeatW: heat}, nil
}

// ChargeToFull runs CC-CV to completion and returns the elapsed time and
// energy drawn from the charger.
func (c *Cell) ChargeToFull(spec ChargeSpec, tempC, dt float64) (elapsedS, energyJ float64, err error) {
	if dt <= 0 {
		return 0, 0, fmt.Errorf("battery: non-positive dt %v", dt)
	}
	const maxSteps = 10_000_000
	for step := 0; step < maxSteps; step++ {
		res, err := c.Charge(spec, tempC, dt)
		if err != nil {
			return elapsedS, energyJ, err
		}
		if res.Full {
			return elapsedS, energyJ, nil
		}
		elapsedS += dt
		energyJ += res.CurrentA * res.Voltage * dt
	}
	return elapsedS, energyJ, errors.New("battery: charge did not complete")
}

// ChargePack charges both cells of a pack sequentially with their default
// specs, as a wall charger with a shared supply would. It returns the total
// elapsed time.
func ChargePack(p *Pack, tempC, dt float64) (float64, error) {
	var total float64
	for _, sel := range []Selection{SelectBig, SelectLittle} {
		cell := p.Cell(sel)
		elapsed, _, err := cell.ChargeToFull(DefaultChargeSpec(cell.Params()), tempC, dt)
		if err != nil {
			return total, fmt.Errorf("charge %v: %w", sel, err)
		}
		total += elapsed
	}
	return total, nil
}
