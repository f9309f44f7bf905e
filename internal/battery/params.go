package battery

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// OCVPoint is one knot of a piecewise-linear open-circuit-voltage curve.
type OCVPoint struct {
	SoC float64 // state of charge in [0, 1]
	V   float64 // open-circuit voltage in volts
}

// Params fully describes a simulated cell. Zero values are invalid; use
// ParamsFor or fill every field.
type Params struct {
	Chemistry Chemistry

	// CapacityCoulomb is the rated charge (1 mAh = 3.6 C).
	CapacityCoulomb float64
	// UsableFraction scales rated charge to the charge deliverable at the
	// phone's reference load. Chemistries rate capacity under different
	// reference conditions; this models the gap (see DESIGN.md §5).
	UsableFraction float64
	// NominalV is the nameplate voltage used for capacity/energy math.
	NominalV float64
	// CutoffV terminates discharge; below it the cell cannot serve load.
	CutoffV float64
	// OCV is the open-circuit voltage curve, ascending in SoC.
	OCV []OCVPoint

	// Thévenin equivalent circuit: series resistance and one RC pair.
	R0 float64 // ohms
	R1 float64 // ohms
	C1 float64 // farads

	// KiBaM parameters: fraction of charge in the available well and the
	// well-coupling rate constant (1/s). Large KRate means bound charge
	// flows freely (a high-discharge-rate chemistry).
	AvailFraction float64
	KRate         float64

	// ParasiticW is the standby drain (chemistry self-discharge plus
	// protection circuitry) at 25 degC.
	ParasiticW float64
	// ParasiticDoubleC is the temperature rise that doubles ParasiticW.
	ParasiticDoubleC float64

	// Drain inefficiency: drawing current I depletes the wells at
	// I*(RateBase + RateA*max(0, I/I1C - RateKnee)^RateExp) where I1C is
	// the 1C current, capped at maxDrainMult. RateBase >= 1 is the
	// chemistry's per-coulomb overhead at any rate (LITTLE chemistries
	// trade this constant overhead for rate insensitivity); the RateA
	// term is the surge penalty big chemistries pay.
	RateBase float64
	RateA    float64
	RateKnee float64
	RateExp  float64

	// RTempCoeff is the fractional R0 increase per degC above 25 degC.
	RTempCoeff float64
}

// Common parameter errors.
var (
	ErrBadParams = errors.New("battery: invalid cell parameters")
)

// Validate reports the first problem with the parameters.
func (p Params) Validate() error {
	switch {
	case p.CapacityCoulomb <= 0:
		return fmt.Errorf("%w: capacity %v C", ErrBadParams, p.CapacityCoulomb)
	case p.UsableFraction <= 0 || p.UsableFraction > 1:
		return fmt.Errorf("%w: usable fraction %v", ErrBadParams, p.UsableFraction)
	case p.NominalV <= 0:
		return fmt.Errorf("%w: nominal voltage %v", ErrBadParams, p.NominalV)
	case p.CutoffV <= 0 || p.CutoffV >= p.NominalV:
		return fmt.Errorf("%w: cutoff voltage %v", ErrBadParams, p.CutoffV)
	case len(p.OCV) < 2:
		return fmt.Errorf("%w: OCV curve needs at least 2 points", ErrBadParams)
	case p.R0 <= 0 || p.R1 < 0 || p.C1 <= 0:
		return fmt.Errorf("%w: R0=%v R1=%v C1=%v", ErrBadParams, p.R0, p.R1, p.C1)
	case p.AvailFraction <= 0 || p.AvailFraction >= 1:
		return fmt.Errorf("%w: available fraction %v", ErrBadParams, p.AvailFraction)
	case p.KRate <= 0:
		return fmt.Errorf("%w: KiBaM rate %v", ErrBadParams, p.KRate)
	case p.ParasiticW < 0 || p.ParasiticDoubleC <= 0:
		return fmt.Errorf("%w: parasitic %vW double %vC", ErrBadParams, p.ParasiticW, p.ParasiticDoubleC)
	case p.RateA < 0 || p.RateExp < 0:
		return fmt.Errorf("%w: rate penalty A=%v exp=%v", ErrBadParams, p.RateA, p.RateExp)
	case p.RateBase < 1:
		return fmt.Errorf("%w: rate base %v below 1", ErrBadParams, p.RateBase)
	}
	if !sort.SliceIsSorted(p.OCV, func(i, j int) bool { return p.OCV[i].SoC < p.OCV[j].SoC }) {
		return fmt.Errorf("%w: OCV curve not ascending in SoC", ErrBadParams)
	}
	return nil
}

// OneC returns the 1C discharge current in amperes.
func (p *Params) OneC() float64 { return p.CapacityCoulomb / 3600 }

// RatedEnergyJ returns the nameplate energy in joules.
func (p Params) RatedEnergyJ() float64 { return p.CapacityCoulomb * p.NominalV }

// OCVAt interpolates the open-circuit voltage at the given state of charge.
func (p *Params) OCVAt(soc float64) float64 {
	return interpOCV(p.OCV, soc)
}

func interpOCV(curve []OCVPoint, soc float64) float64 {
	if len(curve) == 0 {
		return 0
	}
	if soc <= curve[0].SoC {
		return curve[0].V
	}
	last := curve[len(curve)-1]
	if soc >= last.SoC {
		return last.V
	}
	// The first knot at or above soc (sort.Search's answer, without its
	// per-probe closure call: this runs several times per step).
	i, j := 1, len(curve)-1
	for i < j {
		if m := int(uint(i+j) >> 1); curve[m].SoC < soc {
			i = m + 1
		} else {
			j = m
		}
	}
	lo, hi := curve[i-1], curve[i]
	frac := (soc - lo.SoC) / (hi.SoC - lo.SoC)
	return lo.V + frac*(hi.V-lo.V)
}

// maxDrainMult caps the high-rate inefficiency so extreme surges degrade
// rather than explode.
const maxDrainMult = 4.0

// drainMultiplier is the well-depletion multiplier at discharge current i.
func (p *Params) drainMultiplier(i float64) float64 {
	oneC := p.OneC()
	if oneC <= 0 {
		return 1
	}
	rate := i / oneC
	m := p.RateBase
	if excess := rate - p.RateKnee; excess > 0 && p.RateA > 0 {
		m += p.RateA * math.Pow(excess, p.RateExp)
	}
	if m > maxDrainMult {
		m = maxDrainMult
	}
	return m
}

// arrhenius returns the factor by which the standby drain at tempC exceeds
// its 25 degC rate: doubling every ParasiticDoubleC. It is 1 for a cell
// without standby drain, which never reads it. The two cells of a pack see
// one temperature and, in every calibrated chemistry, one doubling
// interval, so a pack step computes the factor once for both.
func (p *Params) arrhenius(tempC float64) float64 {
	if p.ParasiticW == 0 {
		return 1
	}
	return arrheniusAt(p.ParasiticDoubleC, tempC)
}

func arrheniusAt(doubleC, tempC float64) float64 {
	return math.Exp2((tempC - 25) / doubleC)
}

// parasiticW returns the standby drain under Arrhenius factor arrh.
func (p *Params) parasiticW(arrh float64) float64 {
	if p.ParasiticW == 0 {
		return 0
	}
	return p.ParasiticW * arrh
}

// r0At returns the series resistance at temperature t.
func (p *Params) r0At(tempC float64) float64 {
	if tempC <= 25 || p.RTempCoeff == 0 {
		return p.R0
	}
	return p.R0 * (1 + p.RTempCoeff*(tempC-25))
}

// MilliAmpHours converts a mAh rating to coulombs.
func MilliAmpHours(mah float64) float64 { return mah * 3.6 }

// ocvLiIonHigh is a representative curve for 4.2V-class chemistries
// (LCO, NCA, LMO, NMC).
var ocvLiIonHigh = []OCVPoint{
	{0.00, 3.00}, {0.05, 3.35}, {0.10, 3.52}, {0.20, 3.62},
	{0.40, 3.72}, {0.60, 3.83}, {0.80, 3.98}, {0.95, 4.12}, {1.00, 4.20},
}

// ocvLFP is the famously flat LiFePO4 curve.
var ocvLFP = []OCVPoint{
	{0.00, 2.50}, {0.05, 3.05}, {0.10, 3.20}, {0.20, 3.26},
	{0.80, 3.33}, {0.95, 3.40}, {1.00, 3.55},
}

// ocvLTO is the low-voltage titanate curve.
var ocvLTO = []OCVPoint{
	{0.00, 1.80}, {0.05, 2.10}, {0.15, 2.25}, {0.50, 2.33},
	{0.90, 2.45}, {1.00, 2.70},
}

// ParamsFor returns calibrated simulation parameters for a chemistry at the
// given rated capacity in mAh. The calibration targets the behavioural
// contrasts of the paper's Section II (see DESIGN.md §5 and EXPERIMENTS.md):
// big chemistries deliver more energy at sustained moderate loads but pay a
// steep penalty at surge currents and carry a real standby drain; LITTLE
// chemistries are nearly rate-insensitive with low series resistance and
// negligible standby drain but deliver less total energy at the reference
// load. The rate-penalty coefficients are deliberately stronger than
// textbook Li-ion behaviour: they are fitted to the paper's measured 24-55%
// chemistry contrasts, which standard models cannot produce.
func ParamsFor(c Chemistry, mah float64) (Params, error) {
	base := Params{
		Chemistry:        c,
		CapacityCoulomb:  MilliAmpHours(mah),
		CutoffV:          3.0,
		OCV:              ocvLiIonHigh,
		ParasiticDoubleC: 15,
		RTempCoeff:       0.004,
		RateExp:          2.0,
		UsableFraction:   1.0,
	}
	switch c {
	case LCO:
		base.NominalV = 3.80
		base.R0 = 0.140
		base.R1, base.C1 = 0.060, 900
		base.AvailFraction, base.KRate = 0.55, 0.0005
		base.ParasiticW = 0.040
		base.RateBase, base.RateA, base.RateKnee = 1.03, 60, 0.22
	case NCA:
		base.NominalV = 3.70
		base.R0 = 0.120
		base.R1, base.C1 = 0.055, 1000
		base.AvailFraction, base.KRate = 0.60, 0.0007
		base.ParasiticW = 0.065
		base.RateBase, base.RateA, base.RateKnee = 1.00, 100, 0.30
	case LMO:
		base.NominalV = 3.80
		base.R0 = 0.040
		base.R1, base.C1 = 0.018, 500
		base.AvailFraction, base.KRate = 0.90, 0.020
		base.ParasiticW = 0.001
		base.RateBase, base.RateA, base.RateKnee = 1.30, 0.5, 0.50
	case NMC:
		base.NominalV = 3.70
		base.R0 = 0.055
		base.R1, base.C1 = 0.025, 600
		base.AvailFraction, base.KRate = 0.85, 0.012
		base.ParasiticW = 0.004
		base.RateBase, base.RateA, base.RateKnee = 1.16, 4, 0.35
	case LFP:
		base.NominalV = 3.20
		base.CutoffV = 2.5
		base.OCV = ocvLFP
		base.R0 = 0.030
		base.R1, base.C1 = 0.012, 400
		base.AvailFraction, base.KRate = 0.92, 0.030
		base.ParasiticW = 0.002
		base.RateBase, base.RateA, base.RateKnee = 1.28, 0.8, 0.80
	case LTO:
		base.NominalV = 2.30
		base.CutoffV = 1.8
		base.OCV = ocvLTO
		base.R0 = 0.020
		base.R1, base.C1 = 0.008, 300
		base.AvailFraction, base.KRate = 0.95, 0.050
		base.ParasiticW = 0.002
		base.RateBase, base.RateA, base.RateKnee = 1.43, 0.3, 1.20
	default:
		return Params{}, fmt.Errorf("battery: unknown chemistry %d", int(c))
	}
	// The calibration above is anchored to the paper's 2500 mAh cells.
	// Capacity acts as a pure time-scale knob: smaller cells keep the
	// same absolute surge-current knee and well-coupling throughput, so
	// a 500 mAh test cell behaves like a 2500 mAh cell on a 5x
	// fast-forwarded clock.
	scale := referenceMAh / mah
	base.RateKnee *= scale
	// The penalty term sees C-rate excess, which scales with 1/capacity;
	// rescale its coefficient so the multiplier at a given absolute
	// current is capacity-invariant.
	base.RateA /= math.Pow(scale, base.RateExp)
	base.KRate *= scale
	if err := base.Validate(); err != nil {
		return Params{}, err
	}
	return base, nil
}

// referenceMAh anchors the per-chemistry calibration.
const referenceMAh = 2500

// MustParams is ParamsFor for known-good inputs; it panics on error and is
// intended for tests, examples, and package-level defaults.
func MustParams(c Chemistry, mah float64) Params {
	p, err := ParamsFor(c, mah)
	if err != nil {
		panic(err)
	}
	return p
}
