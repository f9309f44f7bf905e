package battery

import (
	"math"
	"testing"
)

// manwellMcGowan is the analytic KiBaM solution under a constant current
// I (Manwell and McGowan, 1993): with c the available-well fraction,
// k' = k/(c(1-c)) and y0 the total charge at t = 0,
//
//	y1(t) = y1₀e^(-k't) + (y0·k'·c - I)(1 - e^(-k't))/k' - I·c(k't - 1 + e^(-k't))/k'
//	y2(t) = y2₀e^(-k't) + y0(1-c)(1 - e^(-k't)) - I(1-c)(k't - 1 + e^(-k't))/k'
//
// It shares no code with wellsAfterCore, which integrates the head gap.
func manwellMcGowan(p *Params, y10, y20, current, t float64) (y1, y2 float64) {
	c := p.AvailFraction
	kp := p.KRate / (c * (1 - c))
	y0 := y10 + y20
	e := math.Exp(-kp * t)
	y1 = y10*e + (y0*kp*c-current)*(1-e)/kp - current*c*(kp*t-1+e)/kp
	y2 = y20*e + y0*(1-c)*(1-e) - current*(1-c)*(kp*t-1+e)/kp
	return y1, y2
}

// TestKiBaMMatchesManwellMcGowan drains a cell's wells at a constant
// current through the step kernel, with the decays precomputed for the
// 0.25 s step and for the 1 s CanSupply horizon. At every step boundary
// the wells must match the analytic solution, and the step that first
// fails must be the one in which the analytic available well empties.
func TestKiBaMMatchesManwellMcGowan(t *testing.T) {
	for _, tc := range []struct {
		chem Chemistry
		amps float64
	}{{NCA, 0.8}, {NCA, 0.2}, {LMO, 1.5}, {LCO, 0.5}} {
		p := MustParams(tc.chem, 400)
		usable := p.CapacityCoulomb * p.UsableFraction
		y10, y20 := usable*p.AvailFraction, usable*(1-p.AvailFraction)
		// The analytic time to cutoff: the available well's first zero.
		lo, hi := 0.0, usable/tc.amps
		for i := 0; i < 200; i++ {
			mid := (lo + hi) / 2
			if y1, _ := manwellMcGowan(&p, y10, y20, tc.amps, mid); y1 > 0 {
				lo = mid
			} else {
				hi = mid
			}
		}
		tStar := lo
		for _, dt := range []float64{0.25, canSupplyHorizonS} {
			d := newDecays(&p, dt)
			avail, bound := y10, y20
			k := 0
			for {
				a, b, ok := wellsAfterCore(&p, &d, avail, bound, tc.amps)
				if !ok {
					break
				}
				k++
				avail, bound = a, b
				y1, y2 := manwellMcGowan(&p, y10, y20, tc.amps, float64(k)*dt)
				if math.Abs(avail-y1) > 1e-6*usable || math.Abs(bound-y2) > 1e-6*usable {
					t.Fatalf("%v %.1fA dt=%v t=%v: wells %.6f/%.6f C, analytic %.6f/%.6f C",
						tc.chem, tc.amps, dt, float64(k)*dt, avail, bound, y1, y2)
				}
			}
			tEmpty := float64(k+1) * dt // the first step that could not be served ends here
			if tStar < tEmpty-dt || tStar > tEmpty {
				t.Errorf("%v %.1fA dt=%v: kernel empties in (%v, %v] s, analytic %.3f s",
					tc.chem, tc.amps, dt, tEmpty-dt, tEmpty, tStar)
			}
			t.Logf("%v %.1fA dt=%v: time to cutoff %.3f s analytic, step ending %v s", tc.chem, tc.amps, dt, tStar, tEmpty)
		}
	}
}
