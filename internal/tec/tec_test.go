package tec

import (
	"math"
	"testing"
	"testing/quick"
)

func TestATE31Valid(t *testing.T) {
	if err := ATE31().Validate(); err != nil {
		t.Fatalf("ATE31 invalid: %v", err)
	}
}

func TestDeviceValidate(t *testing.T) {
	bad := []Device{
		{},
		{SeebeckVK: 0.002},
		{SeebeckVK: 0.002, ResistanceOhm: 0.7},
		{SeebeckVK: 0.002, ResistanceOhm: 0.7, ConductanceWK: 0.02},
		{SeebeckVK: -1, ResistanceOhm: 0.7, ConductanceWK: 0.02, MaxCurrentA: 2},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("bad device %d accepted", i)
		}
	}
}

// TestFig6SinglePeak: MaxDeltaT over current has exactly one interior
// maximum, near the rated current (the paper's Figure 6 bottom curve).
func TestFig6SinglePeak(t *testing.T) {
	d := ATE31()
	const cold = 45.0
	rated := d.RatedCurrentA(cold)
	if rated < 0.8 || rated > 1.3 {
		t.Errorf("rated current %.2fA; the paper places the peak near 1.0A", rated)
	}
	// The curve rises before the peak and falls after.
	prev := d.MaxDeltaT(0, cold)
	rising := true
	changes := 0
	for i := 0.05; i <= d.MaxCurrentA; i += 0.05 {
		cur := d.MaxDeltaT(i, cold)
		nowRising := cur >= prev
		if nowRising != rising {
			changes++
			rising = nowRising
		}
		prev = cur
	}
	if changes != 1 {
		t.Errorf("dT curve changed direction %d times, want exactly 1 (single peak)", changes)
	}
	// Analytic optimum: d(dTmax)/dI = 0 at I = S*Tc/R.
	want := d.SeebeckVK * (cold + 273.15) / d.ResistanceOhm
	if math.Abs(rated-want) > 1e-9 {
		t.Errorf("rated current %v, analytic %v", rated, want)
	}
}

// TestRatedCurrentClosedForm checks the model at its rated current against
// closed forms derived by hand from the Dai et al. equations, not against
// the code's own formulas. With Tc in kelvin and I* = S·Tc/R:
//
//	ΔTmax(I*) = S²Tc²/(2RK)
//	Qc(I*)    = S²Tc²/(2R) − K·(Th − Tc)
//	P(I*)     = S·I*·(Th − Tc) + S²Tc²/R
//
// and I* is a strict maximum of ΔTmax. The prototype's module is rated at
// 1.0 A (paper Figure 6), which ATE31 must reproduce to within 1%.
func TestRatedCurrentClosedForm(t *testing.T) {
	d := ATE31()
	s, r, k := d.SeebeckVK, d.ResistanceOhm, d.ConductanceWK
	near := func(got, want float64) bool {
		return math.Abs(got-want) <= 1e-12*math.Max(1, math.Abs(want))
	}
	for cold := -20.0; cold <= 80; cold += 2.5 {
		tc := cold + 273.15
		iStar := s * tc / r
		if got := d.RatedCurrentA(cold); !near(got, iStar) {
			t.Errorf("cold %v: RatedCurrentA %v, want S·Tc/R = %v", cold, got, iStar)
		}
		peak := s * s * tc * tc / (2 * r * k)
		if got := d.MaxDeltaT(iStar, cold); !near(got, peak) {
			t.Errorf("cold %v: MaxDeltaT(I*) %v, want S²Tc²/(2RK) = %v", cold, got, peak)
		}
		const eps = 0.01
		for _, i := range []float64{iStar - eps, iStar + eps} {
			if got := d.MaxDeltaT(i, cold); got >= peak {
				t.Errorf("cold %v: MaxDeltaT(%v) = %v, not below the peak %v at I* = %v", cold, i, got, peak, iStar)
			}
		}
		for _, dT := range []float64{0, 1, 5, 10, 20} {
			hot := cold + dT
			wantQ := s*s*tc*tc/(2*r) - k*dT
			if got := d.HeatPumpedW(iStar, cold, hot); !near(got, wantQ) {
				t.Errorf("cold %v dT %v: Qc(I*) %v, want S²Tc²/(2R) − KΔT = %v", cold, dT, got, wantQ)
			}
			wantP := s*iStar*dT + s*s*tc*tc/r
			if got := d.PowerW(iStar, cold, hot); !near(got, wantP) {
				t.Errorf("cold %v dT %v: P(I*) %v, want S·I*·ΔT + S²Tc²/R = %v", cold, dT, got, wantP)
			}
		}
	}
	if got := d.RatedCurrentA(45); math.Abs(got-1.0) > 0.01 {
		t.Errorf("ATE31 rated current at 45 °C = %v A, want within 1%% of the paper's 1.0 A", got)
	}
}

func TestRatedCurrentClamped(t *testing.T) {
	d := ATE31()
	d.SeebeckVK = 0.02 // would put S*Tc/R above MaxCurrent
	if got := d.RatedCurrentA(45); got != d.MaxCurrentA {
		t.Errorf("rated current %v not clamped to max %v", got, d.MaxCurrentA)
	}
}

// TestEnergyBalance: heat rejected at the hot face equals pumped heat plus
// electrical power (first law).
func TestEnergyBalance(t *testing.T) {
	d := ATE31()
	f := func(rawI, rawC, rawH uint8) bool {
		i := float64(rawI%22) / 10
		cold := 20 + float64(rawC%40)
		hot := cold + float64(rawH%30) - 10
		got := d.HeatRejectedW(i, cold, hot)
		want := d.HeatPumpedW(i, cold, hot) + d.PowerW(i, cold, hot)
		return math.Abs(got-want) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSecondLaw: pumping against a temperature gradient costs electrical
// power; at the rated point COP = Qc/P stays below a Carnot-ish bound.
func TestSecondLaw(t *testing.T) {
	d := ATE31()
	i := d.RatedCurrentA(45)
	qc := d.HeatPumpedW(i, 45, 50)
	p := d.PowerW(i, 45, 50)
	if p <= 0 {
		t.Fatalf("no electrical power at rated current")
	}
	if qc/p > 2 {
		t.Errorf("COP %v implausibly high for a TEC near rated current", qc/p)
	}
}

func TestHeatPumpedBackwardGradient(t *testing.T) {
	d := ATE31()
	// Hot face colder than cold face: conduction aids pumping.
	forward := d.HeatPumpedW(1, 45, 50)
	aided := d.HeatPumpedW(1, 45, 30)
	if aided <= forward {
		t.Errorf("reverse gradient should aid pumping: %v <= %v", aided, forward)
	}
}

func TestControllerThresholdHysteresis(t *testing.T) {
	c, err := NewController(ATE31(), 45, 3)
	if err != nil {
		t.Fatal(err)
	}
	if out := c.Step(40, 30, 1); out.On {
		t.Error("TEC on below threshold")
	}
	out := c.Step(46, 30, 1)
	if !out.On {
		t.Fatal("TEC off above threshold")
	}
	if out.PowerW <= 0 || out.CPUCoolingW < 0 || out.RejectedHeatW < out.PowerW {
		t.Errorf("implausible output %+v", out)
	}
	// Inside the hysteresis band it stays on.
	if out := c.Step(43, 30, 1); !out.On {
		t.Error("TEC dropped inside the hysteresis band")
	}
	// Below threshold - hysteresis it turns off.
	if out := c.Step(41.9, 30, 1); out.On {
		t.Error("TEC still on below the hysteresis floor")
	}
	if c.Flips() != 2 {
		t.Errorf("flips = %d, want 2", c.Flips())
	}
}

func TestControllerAccounting(t *testing.T) {
	c, err := NewController(ATE31(), 45, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		c.Step(50, 55, 2)
	}
	if got := c.OnTimeS(); math.Abs(got-20) > 1e-9 {
		t.Errorf("on time %v, want 20", got)
	}
	if c.EnergyJ() <= 0 {
		t.Error("no energy accounted")
	}
	if c.PumpedJ() < 0 {
		t.Error("negative pumped heat")
	}
	if !c.On() {
		t.Error("controller should be on")
	}
	if c.Device() != ATE31() {
		t.Error("device accessor mismatch")
	}
}

func TestControllerValidation(t *testing.T) {
	if _, err := NewController(Device{}, 45, 3); err == nil {
		t.Error("invalid device accepted")
	}
	if _, err := NewController(ATE31(), 45, -1); err == nil {
		t.Error("negative hysteresis accepted")
	}
}

// TestStepUnderForcedOff: a dropout keeps the module unpowered while the
// hysteresis state keeps tracking, so cooling resumes when power returns.
func TestStepUnderForcedOff(t *testing.T) {
	c, err := NewController(ATE31(), 45, 3)
	if err != nil {
		t.Fatal(err)
	}
	out := c.StepUnder(50, 40, 1, Condition{ForcedOff: true})
	if out.On || out.PowerW != 0 || out.CPUCoolingW != 0 {
		t.Errorf("forced-off output %+v", out)
	}
	if c.EnergyJ() != 0 || c.OnTimeS() != 0 {
		t.Errorf("forced-off step accounted energy %v on-time %v", c.EnergyJ(), c.OnTimeS())
	}
	out = c.StepUnder(50, 40, 1, Condition{})
	if !out.On || out.CPUCoolingW <= 0 {
		t.Errorf("module did not resume after dropout: %+v", out)
	}
}

// TestStepUnderDerate: a derated module pumps less heat for the same
// electrical draw.
func TestStepUnderDerate(t *testing.T) {
	nominal, err := NewController(ATE31(), 45, 3)
	if err != nil {
		t.Fatal(err)
	}
	derated, err := NewController(ATE31(), 45, 3)
	if err != nil {
		t.Fatal(err)
	}
	n := nominal.StepUnder(50, 40, 1, Condition{})
	d := derated.StepUnder(50, 40, 1, Condition{Derate: 0.5})
	if d.PowerW != n.PowerW {
		t.Errorf("derate changed electrical draw: %v vs %v", d.PowerW, n.PowerW)
	}
	if n.CPUCoolingW <= 0 || d.CPUCoolingW != 0.5*n.CPUCoolingW {
		t.Errorf("derated cooling %v, want half of %v", d.CPUCoolingW, n.CPUCoolingW)
	}
}

// TestStepMatchesStepUnderNominal: Step must stay bit-identical to
// StepUnder with a nominal condition.
func TestStepMatchesStepUnderNominal(t *testing.T) {
	a, err := NewController(ATE31(), 45, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewController(ATE31(), 45, 3)
	if err != nil {
		t.Fatal(err)
	}
	temps := []float64{30, 44, 46, 50, 43, 41, 39, 47}
	for _, temp := range temps {
		if got, want := b.StepUnder(temp, temp-5, 0.25, Condition{Derate: 1}), a.Step(temp, temp-5, 0.25); got != want {
			t.Fatalf("at %v degC: StepUnder %+v != Step %+v", temp, got, want)
		}
	}
	if a.EnergyJ() != b.EnergyJ() || a.Flips() != b.Flips() {
		t.Errorf("accounting diverged: %v/%v vs %v/%v", a.EnergyJ(), a.Flips(), b.EnergyJ(), b.Flips())
	}
}
