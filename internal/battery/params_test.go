package battery

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestParamsForAllChemistries(t *testing.T) {
	for _, chem := range Chemistries() {
		p, err := ParamsFor(chem, 2500)
		if err != nil {
			t.Fatalf("ParamsFor(%v): %v", chem, err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("ParamsFor(%v) invalid: %v", chem, err)
		}
		if p.Chemistry != chem {
			t.Errorf("ParamsFor(%v) carries chemistry %v", chem, p.Chemistry)
		}
		if got := p.CapacityCoulomb; math.Abs(got-9000) > 1e-9 {
			t.Errorf("2500 mAh should be 9000 C, got %v", got)
		}
	}
}

func TestParamsForUnknown(t *testing.T) {
	if _, err := ParamsFor(Chemistry(77), 2500); err == nil {
		t.Fatal("expected error")
	}
}

func TestMustParamsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParams should panic on invalid chemistry")
		}
	}()
	MustParams(Chemistry(77), 2500)
}

func TestParamsValidateRejects(t *testing.T) {
	valid := MustParams(NCA, 2500)
	mutations := []struct {
		name   string
		mutate func(*Params)
	}{
		{"zero capacity", func(p *Params) { p.CapacityCoulomb = 0 }},
		{"bad usable fraction", func(p *Params) { p.UsableFraction = 1.5 }},
		{"zero nominal", func(p *Params) { p.NominalV = 0 }},
		{"cutoff above nominal", func(p *Params) { p.CutoffV = p.NominalV + 1 }},
		{"short OCV", func(p *Params) { p.OCV = p.OCV[:1] }},
		{"zero R0", func(p *Params) { p.R0 = 0 }},
		{"negative R1", func(p *Params) { p.R1 = -1 }},
		{"bad avail fraction", func(p *Params) { p.AvailFraction = 1 }},
		{"zero k", func(p *Params) { p.KRate = 0 }},
		{"negative parasitic", func(p *Params) { p.ParasiticW = -1 }},
		{"negative rate A", func(p *Params) { p.RateA = -1 }},
		{"rate base below one", func(p *Params) { p.RateBase = 0.5 }},
		{"unsorted OCV", func(p *Params) {
			p.OCV = []OCVPoint{{SoC: 1, V: 4.2}, {SoC: 0, V: 3.0}}
		}},
	}
	for _, m := range mutations {
		p := valid
		p.OCV = append([]OCVPoint(nil), valid.OCV...)
		m.mutate(&p)
		err := p.Validate()
		if err == nil {
			t.Errorf("%s: expected validation error", m.name)
			continue
		}
		if !errors.Is(err, ErrBadParams) {
			t.Errorf("%s: error %v does not wrap ErrBadParams", m.name, err)
		}
	}
}

func TestOCVInterpolation(t *testing.T) {
	p := MustParams(NCA, 2500)
	if got := p.OCVAt(1.0); math.Abs(got-4.20) > 1e-9 {
		t.Errorf("OCV at full = %v, want 4.20", got)
	}
	if got := p.OCVAt(0.0); math.Abs(got-3.00) > 1e-9 {
		t.Errorf("OCV at empty = %v, want 3.00", got)
	}
	// Clamping outside [0,1].
	if got := p.OCVAt(1.5); got != p.OCVAt(1.0) {
		t.Errorf("OCV above full should clamp: %v vs %v", got, p.OCVAt(1.0))
	}
	if got := p.OCVAt(-0.5); got != p.OCVAt(0) {
		t.Errorf("OCV below empty should clamp")
	}
	// Midpoint of a segment interpolates linearly.
	mid := (0.40 + 0.60) / 2
	want := (3.72 + 3.83) / 2
	if got := p.OCVAt(mid); math.Abs(got-want) > 1e-9 {
		t.Errorf("OCV at %v = %v, want %v", mid, got, want)
	}
}

// Property: OCV is non-decreasing in SoC for every chemistry.
func TestOCVMonotone(t *testing.T) {
	for _, chem := range Chemistries() {
		p := MustParams(chem, 2500)
		f := func(a, b float64) bool {
			lo := math.Abs(math.Mod(a, 1))
			hi := math.Abs(math.Mod(b, 1))
			if lo > hi {
				lo, hi = hi, lo
			}
			return p.OCVAt(lo) <= p.OCVAt(hi)+1e-12
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%v: %v", chem, err)
		}
	}
}

// Property: drainMultiplier is >= RateBase, non-decreasing in current, and
// capped.
func TestDrainMultiplierShape(t *testing.T) {
	for _, chem := range Chemistries() {
		p := MustParams(chem, 2500)
		prev := 0.0
		for i := 0.0; i <= 20; i += 0.1 {
			m := p.drainMultiplier(i)
			if m < p.RateBase-1e-12 {
				t.Fatalf("%v: multiplier %v below base %v at %vA", chem, m, p.RateBase, i)
			}
			if m > maxDrainMult+1e-12 {
				t.Fatalf("%v: multiplier %v above cap at %vA", chem, m, i)
			}
			if m < prev-1e-12 {
				t.Fatalf("%v: multiplier decreased from %v to %v at %vA", chem, prev, m, i)
			}
			prev = m
		}
	}
}

// TestCapacityScaleInvariance checks the reference anchoring: a 500 mAh
// cell must keep the same absolute-current knee as a 2500 mAh cell.
func TestCapacityScaleInvariance(t *testing.T) {
	full := MustParams(NCA, 2500)
	small := MustParams(NCA, 500)
	for _, amps := range []float64{0.2, 0.5, 0.8, 1.2, 2.0} {
		mf := full.drainMultiplier(amps)
		ms := small.drainMultiplier(amps)
		if math.Abs(mf-ms) > 1e-9 {
			t.Errorf("at %vA: 2500mAh mult %v vs 500mAh mult %v", amps, mf, ms)
		}
	}
}

func TestParasiticTemperatureDoubling(t *testing.T) {
	p := MustParams(NCA, 2500)
	base := p.parasiticW(p.arrhenius(25))
	doubled := p.parasiticW(p.arrhenius(25 + p.ParasiticDoubleC))
	if math.Abs(doubled-2*base) > 1e-9 {
		t.Errorf("parasitic at +%vC = %v, want %v", p.ParasiticDoubleC, doubled, 2*base)
	}
}

func TestR0TemperatureCoefficient(t *testing.T) {
	p := MustParams(NCA, 2500)
	if got := p.r0At(20); got != p.R0 {
		t.Errorf("below 25C the resistance should not change: %v", got)
	}
	if got := p.r0At(35); got <= p.R0 {
		t.Errorf("warm resistance %v should exceed %v", got, p.R0)
	}
}

func TestRatedEnergyAndOneC(t *testing.T) {
	p := MustParams(LMO, 2500)
	if got := p.OneC(); math.Abs(got-2.5) > 1e-9 {
		t.Errorf("1C of 2500 mAh = %vA, want 2.5", got)
	}
	if got := p.RatedEnergyJ(); math.Abs(got-9000*p.NominalV) > 1e-9 {
		t.Errorf("rated energy %v", got)
	}
}

func TestMilliAmpHours(t *testing.T) {
	if got := MilliAmpHours(1000); got != 3600 {
		t.Errorf("1000 mAh = %v C, want 3600", got)
	}
}
