package battery

import (
	"errors"
	"math"
	"testing"
)

// TestLanesMatchCell drives a Cell and a Lanes slot through the same
// varying power/temperature schedule and requires bit-identical state and
// step results at every tick — the contract that makes internal/twin's
// batched runs exact replicas of scalar runs.
func TestLanesMatchCell(t *testing.T) {
	p := MustParams(NCA, 400)
	cell, err := NewCell(p)
	if err != nil {
		t.Fatal(err)
	}
	lanes, err := NewLanes(p, 3, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	const lane = 1 // a middle lane; others must stay untouched

	dt := 0.25
	step := 0
	for {
		step++
		// A deterministic schedule spanning idle, moderate and surge
		// loads with a slow temperature ramp.
		powerW := 2.0 + 3.5*math.Sin(float64(step)/40)
		if powerW < 0 {
			powerW = 0
		}
		if step%97 == 0 {
			powerW = 0 // rest ticks
		}
		tempC := 25 + 10*math.Sin(float64(step)/300)

		cres, cerr := cell.Step(powerW, tempC, dt)
		lres, code := lanes.Step(lane, powerW, tempC)

		if (cerr != nil) != code.Failed() {
			t.Fatalf("step %d: cell err %v, lane outcome %d", step, cerr, code)
		}
		if cerr != nil {
			if errors.Is(cerr, ErrDepleted) != (code == StepDepleted) {
				t.Fatalf("step %d: cell err %v vs lane outcome %d", step, cerr, code)
			}
			break
		}
		for name, pair := range map[string][2]float64{
			"current": {cres.Current, lres.Current},
			"voltage": {cres.Voltage, lres.Voltage},
			"heat":    {cres.HeatW, lres.HeatW},
			"soc":     {cell.SoC(), lanes.SoC(lane)},
		} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Fatalf("step %d: %s cell %v lane %v", step, name, pair[0], pair[1])
			}
		}
		if cell.Depleted() != lanes.Depleted(lane) {
			t.Fatalf("step %d: depleted cell %t lane %t", step, cell.Depleted(), lanes.Depleted(lane))
		}
		if step > 4_000_000 {
			t.Fatal("cell never depleted; schedule too light")
		}
	}

	// Neighbouring lanes were never stepped and must still be full.
	for _, i := range []int{0, 2} {
		if got := lanes.SoC(i); got != 1 {
			t.Errorf("untouched lane %d SoC = %v, want 1", i, got)
		}
	}
}

// TestLanesFailureLeavesStateUntouched: a failed step must not move the
// lane, mirroring Cell.Step's no-advance-on-error contract.
func TestLanesFailureLeavesStateUntouched(t *testing.T) {
	p := MustParams(NCA, 100)
	lanes, err := NewLanes(p, 1, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	before := []float64{lanes.Avail[0], lanes.Bound[0], lanes.VPol[0]}
	// Demand far beyond peak power.
	if _, code := lanes.Step(0, 1e6, 25); !code.Failed() {
		t.Fatalf("absurd demand served, outcome %d", code)
	}
	after := []float64{lanes.Avail[0], lanes.Bound[0], lanes.VPol[0]}
	for i := range before {
		if before[i] != after[i] {
			t.Errorf("state %d moved on failed step: %v -> %v", i, before[i], after[i])
		}
	}
}

// TestLanesReset restores the NewCell initial state.
func TestLanesReset(t *testing.T) {
	p := MustParams(LMO, 400)
	lanes, err := NewLanes(p, 2, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 100; k++ {
		lanes.Step(0, 2, 25)
	}
	if lanes.SoC(0) >= 1 {
		t.Fatal("stepping did not drain the lane")
	}
	lanes.Reset()
	cell, err := NewCell(p)
	if err != nil {
		t.Fatal(err)
	}
	if lanes.SoC(0) != cell.SoC() || lanes.SoC(0) != 1 {
		t.Errorf("reset SoC %v, fresh cell %v", lanes.SoC(0), cell.SoC())
	}
}

// TestStepOutcomeErrors: the outcome-to-error mapping must reproduce the
// scalar error classes.
func TestStepOutcomeErrors(t *testing.T) {
	p := MustParams(NCA, 400)
	for _, tc := range []struct {
		code StepOutcome
		want error
	}{
		{StepDepleted, ErrDepleted},
		{StepAtCutoff, ErrCannotSupply},
		{StepOverPeak, ErrCannotSupply},
		{StepBelowCutoff, ErrCannotSupply},
		{StepWellEmpty, ErrCannotSupply},
	} {
		if err := tc.code.toError(&p, 1, 0); !errors.Is(err, tc.want) {
			t.Errorf("outcome %d -> %v, want %v", tc.code, err, tc.want)
		}
	}
	if err := StepOK.toError(&p, 1, 0); err != nil {
		t.Errorf("StepOK -> %v, want nil", err)
	}
}
