package invariant

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/battery"
)

// cleanStep is a step with every contract comfortably satisfied.
func cleanStep(step int) *SimStep {
	return &SimStep{
		Now: float64(step) * 0.25, DT: 0.25, Step: step,
		CPUTempC: 35, BatteryTempC: 30, BodyTempC: 32,
		BigSoC: 0.9, BigAvailSoC: 0.8,
		LittleSoC: 0.9, LittleAvailSoC: 0.8,
		StepOK: true, ActivePowerW: 1.5, ActiveVoltageV: 3.7, ActiveCutoffV: 3.0,
		TECPowerW: 0.5, TECCoolingW: 1.0, TECCurrentA: 1.0, TECMaxCurrentA: 2.2,
		DecisionBattery: battery.SelectBig, ActiveBattery: battery.SelectBig,
	}
}

func TestCheckerCleanRunReportsNil(t *testing.T) {
	c := NewChecker(Config{})
	for i := 0; i < 100; i++ {
		c.CheckSim(cleanStep(i))
	}
	if c.Fatal() {
		t.Error("clean run latched fatal")
	}
	if c.Total() != 0 {
		t.Errorf("clean run counted %d violations", c.Total())
	}
	if rep := c.Report(); rep != nil {
		t.Errorf("clean run report = %+v, want nil", rep)
	}
}

func TestCheckerDetectsEachContract(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*SimStep)
		kind    Kind
		wantSev Severity
	}{
		{"cpu ceiling", func(s *SimStep) { s.CPUTempC = 85 }, KindThermalCeilingCPU, SeverityWarn},
		{"battery ceiling", func(s *SimStep) { s.BatteryTempC = 61 }, KindThermalCeilingBattery, SeverityWarn},
		{"body ceiling", func(s *SimStep) { s.BodyTempC = 70 }, KindThermalCeilingBody, SeverityWarn},
		{"soc above one", func(s *SimStep) { s.BigSoC = 1.2; s.BigAvailSoC = 0.9 }, KindSoCRange, SeverityFatal},
		{"soc negative", func(s *SimStep) { s.LittleSoC = -0.1; s.LittleAvailSoC = -0.1 }, KindSoCRange, SeverityFatal},
		{"soc rose", func(s *SimStep) { s.BigSoC = 0.95 }, KindSoCMonotone, SeverityFatal},
		{"avail above total", func(s *SimStep) { s.BigAvailSoC = 0.95 }, KindChargeConservation, SeverityFatal},
		{"negative well", func(s *SimStep) { s.LittleAvailSoC = -0.01 }, KindChargeConservation, SeverityFatal},
		{"tec over current", func(s *SimStep) { s.TECCurrentA = 2.5 }, KindTECLimit, SeverityFatal},
		{"tec negative power", func(s *SimStep) { s.TECPowerW = -0.1 }, KindTECLimit, SeverityFatal},
		{"tec on while forced off", func(s *SimStep) { s.TECForcedOff = true }, KindTECDropoutOn, SeverityFatal},
		{"flip while degraded", func(s *SimStep) {
			s.Degraded = true
			s.DecisionBattery = battery.SelectLittle
		}, KindTransition, SeverityFatal},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewChecker(Config{})
			c.CheckSim(cleanStep(0)) // establish prev baselines
			s := cleanStep(1)
			tc.mutate(s)
			c.CheckSim(s)
			rep := c.Report()
			if rep == nil {
				t.Fatalf("no violation for %s", tc.name)
			}
			if rep.Counts[tc.kind.String()] == 0 {
				t.Fatalf("counts %v missing %s", rep.Counts, tc.kind)
			}
			if got := rep.Violations[0].Severity; got != tc.wantSev {
				t.Errorf("severity %s, want %s", got, tc.wantSev)
			}
			if wantFatal := tc.wantSev == SeverityFatal; rep.Fatal != wantFatal {
				t.Errorf("Fatal = %v, want %v", rep.Fatal, wantFatal)
			}
		})
	}
}

// TestCheckerThermalRate: a zone jumping faster than MaxTempRateCps between
// consecutive steps is flagged; the first step has no baseline and never is.
func TestCheckerThermalRate(t *testing.T) {
	c := NewChecker(Config{})
	hot := cleanStep(0)
	hot.CPUTempC = 79 // huge jump, but no previous step yet
	c.CheckSim(hot)
	if c.Total() != 0 {
		t.Fatalf("first step flagged without a baseline: %+v", c.Report())
	}
	next := cleanStep(1)
	next.CPUTempC = 35 // 44C drop in 0.25s = 176 C/s
	c.CheckSim(next)
	rep := c.Report()
	if rep == nil || rep.Counts[KindThermalRate.String()] == 0 {
		t.Fatalf("rate breach not flagged: %+v", rep)
	}
	if rep.Fatal {
		t.Error("thermal rate should be a warning, not fatal")
	}
}

// TestCheckerVoltageCutoffCrossing: the single step that lands below the
// cutoff is legal; a second consecutive one on the same cell is not, and a
// battery switch resets the latch.
func TestCheckerVoltageCutoffCrossing(t *testing.T) {
	below := func(step int, sel battery.Selection) *SimStep {
		s := cleanStep(step)
		s.ActiveVoltageV = 2.98
		s.ActiveBattery = sel
		s.DecisionBattery = sel
		return s
	}

	c := NewChecker(Config{})
	c.CheckSim(below(0, battery.SelectBig))
	if c.Total() != 0 {
		t.Fatalf("crossing step flagged: %+v", c.Report())
	}
	c.CheckSim(below(1, battery.SelectBig))
	rep := c.Report()
	if rep == nil || rep.Counts[KindVoltageCutoff.String()] == 0 {
		t.Fatalf("sustained below-cutoff serving not flagged: %+v", rep)
	}

	c = NewChecker(Config{})
	c.CheckSim(below(0, battery.SelectBig))
	c.CheckSim(below(1, battery.SelectLittle)) // different cell: new crossing
	if c.Total() != 0 {
		t.Fatalf("cross-cell crossing flagged: %+v", c.Report())
	}
}

func TestCheckerBoundedDetailAndHook(t *testing.T) {
	c := NewChecker(Config{MaxViolations: 4})
	var streamed int
	c.SetOnViolation(func(v Violation) {
		streamed++
		if v.Twin != -1 {
			t.Errorf("scalar violation Twin = %d, want -1", v.Twin)
		}
	})
	c.CheckSim(cleanStep(0))
	for i := 1; i <= 10; i++ {
		s := cleanStep(i)
		s.TECCurrentA = 2.5 // over-current every step, nothing else
		c.CheckSim(s)
	}
	rep := c.Report()
	if rep.Total != 10 || streamed != 10 {
		t.Errorf("total %d streamed %d, want 10", rep.Total, streamed)
	}
	if len(rep.Violations) != 4 || rep.Truncated != 6 {
		t.Errorf("detail %d truncated %d, want 4/6", len(rep.Violations), rep.Truncated)
	}
	if !rep.Violations[0].First {
		t.Error("first violation not marked First")
	}
	if rep.Violations[1].First {
		t.Error("second violation marked First")
	}
}

func TestKindNamesAndSeverities(t *testing.T) {
	names := Kinds()
	if len(names) != int(numKinds) {
		t.Fatalf("Kinds() returned %d names, want %d", len(names), numKinds)
	}
	seen := map[string]bool{}
	for k := Kind(0); k < numKinds; k++ {
		name := k.String()
		if name == "" || seen[name] {
			t.Errorf("kind %d has empty or duplicate name %q", k, name)
		}
		seen[name] = true
		if got := SeverityOfName(name); got != k.Severity() {
			t.Errorf("SeverityOfName(%s) = %s, want %s", name, got, k.Severity())
		}
	}
	if got := SeverityOfName("no-such-contract"); got != SeverityWarn {
		t.Errorf("unknown contract severity = %s, want warn", got)
	}
}

func TestCheckerCleanPathAllocFree(t *testing.T) {
	c := NewChecker(Config{})
	s := cleanStep(0)
	allocs := testing.AllocsPerRun(200, func() {
		s.Step++
		c.CheckSim(s)
	})
	if allocs != 0 {
		t.Errorf("clean CheckSim allocates %.1f objects/step, want 0", allocs)
	}
}

// --- BatchChecker ---

func cleanLane(i int, now float64) LaneStep {
	return LaneStep{
		Twin: i, Now: now, DT: 0.25,
		AvailC: 300, BoundC: 500,
		StepOK: true, PowerW: 1.5, VoltageV: 3.7,
		CPUTempC: 35, BatteryTempC: 30, BodyTempC: 32,
		TECPowerW: 0.5, TECCurrentA: 1.0,
	}
}

func primedBatch(n int) *BatchChecker {
	b := NewBatchChecker(Config{}, n, BatchParams{CapacityC: 1000, CutoffV: 3.0, TECMaxCurrentA: 2.2})
	for i := 0; i < n; i++ {
		// Temperature baselines match cleanLane so priming never fakes a
		// first-step rate breach.
		b.Prime(i, 800, 35, 30, 32)
	}
	return b
}

func TestBatchCheckerCleanCohort(t *testing.T) {
	b := primedBatch(8)
	for step := 0; step < 50; step++ {
		for i := 0; i < 8; i++ {
			lane := cleanLane(i, float64(step)*0.25)
			lane.AvailC -= float64(step) // discharging
			b.CheckLane(lane)
		}
	}
	if b.Fatal() || b.Counts() != nil || b.Report() != nil {
		t.Errorf("clean cohort reported: fatal=%v counts=%v", b.Fatal(), b.Counts())
	}
}

func TestBatchCheckerLaneContracts(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*LaneStep)
		kind   Kind
	}{
		{"negative well", func(s *LaneStep) { s.AvailC = -1 }, KindChargeConservation},
		{"charge rose", func(s *LaneStep) { s.AvailC = 400 }, KindSoCMonotone},
		{"soc above one", func(s *LaneStep) { s.AvailC = 600; s.BoundC = 600 }, KindSoCRange},
		{"cpu ceiling", func(s *LaneStep) { s.CPUTempC = 85 }, KindThermalCeilingCPU},
		{"rate breach", func(s *LaneStep) { s.BatteryTempC = 55 }, KindThermalRate},
		{"tec over current", func(s *LaneStep) { s.TECCurrentA = 3 }, KindTECLimit},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := primedBatch(2)
			lane := cleanLane(1, 0.25)
			tc.mutate(&lane)
			b.CheckLane(lane)
			counts := b.Counts()
			if counts[tc.kind.String()] == 0 {
				t.Fatalf("counts %v missing %s", counts, tc.kind)
			}
			rep := b.Report()
			if rep.Violations[0].Twin != 1 {
				t.Errorf("violation twin = %d, want 1", rep.Violations[0].Twin)
			}
			// "charge rose" above 800 also trips nothing else; SoC-above-one
			// necessarily also rose. Either way fatality must match severity.
			if tc.kind.Severity() == SeverityFatal && !b.Fatal() {
				t.Error("fatal contract did not latch Fatal")
			}
		})
	}
}

// TestBatchCheckerVoltageCutoffCrossing mirrors the scalar semantics per
// lane: one crossing step is legal, the second consecutive one is not, and
// Prime resets the latch.
func TestBatchCheckerVoltageCutoffCrossing(t *testing.T) {
	b := primedBatch(2)
	lane := cleanLane(0, 0.25)
	lane.VoltageV = 2.9
	b.CheckLane(lane)
	if b.Counts() != nil {
		t.Fatalf("crossing step flagged: %v", b.Counts())
	}
	lane.Now = 0.5
	lane.AvailC -= 1
	b.CheckLane(lane)
	if b.Counts()[KindVoltageCutoff.String()] == 0 {
		t.Fatalf("sustained below-cutoff lane not flagged: %v", b.Counts())
	}
}

// TestBatchCheckerConcurrentDeterministic: the per-kind totals are identical
// whether the cohort is checked serially or by concurrent workers over
// disjoint twin ranges.
func TestBatchCheckerConcurrentDeterministic(t *testing.T) {
	const twins, steps = 64, 40
	drive := func(b *BatchChecker, lo, hi int) {
		for step := 0; step < steps; step++ {
			for i := lo; i < hi; i++ {
				lane := cleanLane(i, float64(step+1)*0.25)
				lane.AvailC -= float64(step)
				if i%7 == 0 {
					lane.CPUTempC = 90 // ceiling breach on some lanes
				}
				if i%13 == 0 && step == 20 {
					lane.AvailC = -5 // seeded well bug
				}
				b.CheckLane(lane)
			}
		}
	}

	serial := primedBatch(twins)
	drive(serial, 0, twins)

	concurrent := primedBatch(twins)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			drive(concurrent, w*twins/4, (w+1)*twins/4)
		}(w)
	}
	wg.Wait()

	if !reflect.DeepEqual(serial.Counts(), concurrent.Counts()) {
		t.Errorf("counts diverged:\nserial:     %v\nconcurrent: %v",
			serial.Counts(), concurrent.Counts())
	}
	if serial.Fatal() != concurrent.Fatal() {
		t.Errorf("fatal diverged: serial %v concurrent %v", serial.Fatal(), concurrent.Fatal())
	}
}

func TestBatchCheckerCleanPathAllocFree(t *testing.T) {
	b := primedBatch(4)
	step := 0
	allocs := testing.AllocsPerRun(200, func() {
		step++
		for i := 0; i < 4; i++ {
			b.CheckLane(cleanLane(i, float64(step)*0.25))
		}
	})
	if allocs != 0 {
		t.Errorf("clean CheckLane allocates %.1f objects/round, want 0", allocs)
	}
}
