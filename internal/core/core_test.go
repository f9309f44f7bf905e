package core

import (
	"bytes"
	"testing"

	"repro/internal/battery"
	"repro/internal/device"
	"repro/internal/mdp"
	"repro/internal/sched"
	"repro/internal/workload"
)

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Rho = 0 },
		func(c *Config) { c.Rho = 1 },
		func(c *Config) { c.RefreshIntervalS = 0 },
		func(c *Config) { c.Smoothing = -1 },
		func(c *Config) { c.ClusterTau = 1 },
		func(c *Config) { c.ExploreEpsilon0 = 2 },
		func(c *Config) { c.ExploreHalfLifeS = 0 },
		func(c *Config) { c.SimilarityEvery = 0 },
		func(c *Config) { c.OverheadScale = 0 },
	}
	for i, m := range mutations {
		cfg := DefaultConfig()
		m(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted a zero config")
	}
}

// stateFor builds a hardware state vector.
func stateFor(wifi device.WiFiState, freq int, sel battery.Selection) mdp.StateVec {
	return mdp.StateVec{
		CPU:     device.CPUC0,
		Freq:    freq,
		Screen:  device.ScreenOn,
		WiFi:    wifi,
		Battery: sel,
	}
}

// feedSyntheticCycle teaches the scheduler a simple world: base steps
// (WiFi idle) reward big, surge steps (WiFi send at top DVFS) reward
// LITTLE.
func feedSyntheticCycle(t *testing.T, s *Scheduler, steps int) {
	t.Helper()
	for i := 0; i < steps; i++ {
		surge := i%5 == 0
		wifi := device.WiFiIdle
		freq := 1
		demand := 1.2
		if surge {
			wifi = device.WiFiSend
			freq = 3
			demand = 3.8
		}
		sels := []battery.Selection{battery.SelectBig, battery.SelectLittle}
		for _, from := range sels {
			for _, applied := range sels {
				prev := sched.Context{
					Now:     float64(i),
					DT:      0.25,
					State:   stateFor(wifi, freq, from),
					Event:   workload.ActNone,
					DemandW: demand,
				}
				reward := 0.9 // big serving base
				switch {
				case surge && applied == battery.SelectBig:
					reward = 0.3
				case surge && applied == battery.SelectLittle:
					reward = 0.75
				case !surge && applied == battery.SelectLittle:
					reward = 0.72
				}
				next := stateFor(wifi, freq, applied)
				s.Observe(prev, applied, next, reward)
			}
		}
	}
}

func TestSchedulerLearnsSurgeRouting(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ExploreEpsilon0 = 0 // deterministic decisions
	cfg.RefreshIntervalS = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedSyntheticCycle(t, s, 400)

	// Trigger a refresh and decide.
	surgeCtx := sched.Context{
		Now:       1000,
		DT:        0.25,
		State:     stateFor(device.WiFiSend, 3, battery.SelectBig),
		DemandW:   3.8,
		CanBig:    true,
		CanLittle: true,
		Big:       battery.CellState{SoC: 0.6},
		Little:    battery.CellState{SoC: 0.6},
	}
	got := s.Decide(surgeCtx)
	if got.Battery != battery.SelectLittle {
		t.Errorf("surge state decided %v, want LITTLE", got.Battery)
	}
	baseCtx := surgeCtx
	baseCtx.State = stateFor(device.WiFiIdle, 1, battery.SelectBig)
	baseCtx.DemandW = 1.2
	if got := s.Decide(baseCtx); got.Battery != battery.SelectBig {
		t.Errorf("base state decided %v, want big", got.Battery)
	}

	st := s.Stats()
	if st.Refreshes == 0 || st.Observations == 0 || st.Decisions != 2 {
		t.Errorf("stats %+v", st)
	}
	if s.Solution() == nil {
		t.Error("no cached solution after refresh")
	}
	if s.Rho() != cfg.Rho {
		t.Errorf("rho accessor %v", s.Rho())
	}
}

func TestSchedulerColdStart(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ExploreEpsilon0 = 0
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Before any learning: surges route to LITTLE, base to big.
	surge := sched.Context{Now: 0, DemandW: 3.0, CanBig: true, CanLittle: true,
		State: stateFor(device.WiFiSend, 3, battery.SelectBig)}
	if got := s.Decide(surge); got.Battery != battery.SelectLittle {
		t.Errorf("cold-start surge: %v", got.Battery)
	}
	base := sched.Context{Now: 0, DemandW: 0.8, CanBig: true, CanLittle: true,
		State: stateFor(device.WiFiIdle, 0, battery.SelectBig)}
	if got := s.Decide(base); got.Battery != battery.SelectBig {
		t.Errorf("cold-start base: %v", got.Battery)
	}
}

func TestSchedulerFeasibilityGuard(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ExploreEpsilon0 = 0
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	surge := sched.Context{Now: 0, DemandW: 3.0, CanBig: true, CanLittle: false,
		State: stateFor(device.WiFiSend, 3, battery.SelectBig)}
	if got := s.Decide(surge); got.Battery != battery.SelectBig {
		t.Errorf("infeasible LITTLE should fall back to big, got %v", got.Battery)
	}
	if st := s.Stats(); st.Fallbacks != 1 {
		t.Errorf("fallbacks %d", st.Fallbacks)
	}
}

func TestSchedulerExplorationDecays(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ExploreEpsilon0 = 0.5
	cfg.ExploreHalfLifeS = 100
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	early := s.epsilon(0)
	mid := s.epsilon(100)
	late := s.epsilon(10000)
	if early != 0.5 {
		t.Errorf("epsilon(0) = %v", early)
	}
	if mid >= early || late >= mid {
		t.Errorf("epsilon not decaying: %v, %v, %v", early, mid, late)
	}
	if late > 1e-9 {
		t.Logf("late epsilon %v (expected near zero)", late)
	}
}

func TestSchedulerChargeBalanceTieBreak(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ExploreEpsilon0 = 0
	cfg.RefreshIntervalS = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Teach equal rewards for both controls in one state: a Q tie.
	state := stateFor(device.WiFiIdle, 1, battery.SelectBig)
	sels := []battery.Selection{battery.SelectBig, battery.SelectLittle}
	for i := 0; i < 200; i++ {
		for _, from := range sels {
			for _, applied := range sels {
				prev := sched.Context{Now: float64(i), State: state.WithBattery(from), DemandW: 1.2}
				s.Observe(prev, applied, state.WithBattery(applied), 0.8)
			}
		}
	}
	ctx := sched.Context{
		Now: 500, State: state, DemandW: 1.2,
		CanBig: true, CanLittle: true,
		Big:    battery.CellState{SoC: 0.2},
		Little: battery.CellState{SoC: 0.9},
	}
	if got := s.Decide(ctx); got.Battery != battery.SelectLittle {
		t.Errorf("tie with fuller LITTLE decided %v", got.Battery)
	}
	ctx.Big.SoC, ctx.Little.SoC = 0.9, 0.2
	if got := s.Decide(ctx); got.Battery != battery.SelectBig {
		t.Errorf("tie with fuller big decided %v", got.Battery)
	}
}

func TestSchedulerName(t *testing.T) {
	s, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "CAPMAN" {
		t.Errorf("name %q", s.Name())
	}
}

func TestSchedulerSaveRestoreWarmStart(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ExploreEpsilon0 = 0
	cfg.RefreshIntervalS = 1
	teacher, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedSyntheticCycle(t, teacher, 400)
	// Force a refresh so the teacher has a solution, then snapshot.
	surgeCtx := sched.Context{
		Now:       1000,
		State:     stateFor(device.WiFiSend, 3, battery.SelectBig),
		DemandW:   3.8,
		CanBig:    true,
		CanLittle: true,
	}
	teacher.Decide(surgeCtx)

	var buf bytes.Buffer
	if err := teacher.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}

	student, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := student.Restore(&buf); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	// The student decides like the trained teacher with zero warm-up.
	if got := student.Decide(surgeCtx); got.Battery != battery.SelectLittle {
		t.Errorf("restored scheduler decided %v on a surge", got.Battery)
	}
	if student.Solution() == nil {
		t.Error("restore did not re-solve the model")
	}
	if err := student.Restore(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("corrupt restore accepted")
	}
}

// TestRefreshDueAnnouncesRefreshes: RefreshDue(now), asked before Decide,
// is true exactly on the steps whose Decide runs the background refresh,
// so the sim engine can time those decisions exactly. The one due step
// that does not refresh is the first, whose estimator is still empty.
func TestRefreshDueAnnouncesRefreshes(t *testing.T) {
	cfg := DefaultConfig()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const dt = 0.25
	var refreshSteps []int
	for i := 0; i < 1500; i++ {
		ctx := sched.Context{
			Now: float64(i) * dt, DT: dt,
			State:   stateFor(device.WiFiIdle, 1+i%3, battery.SelectBig),
			DemandW: 1.2, CanBig: true, CanLittle: true,
		}
		due := s.RefreshDue(ctx.Now)
		before := s.Stats()
		s.Decide(ctx)
		refreshed := s.Stats().Refreshes > before.Refreshes
		switch {
		case i == 0:
			if !due || refreshed {
				t.Fatalf("step 0: due %v, refreshed %v; want due and skipped on an empty estimator", due, refreshed)
			}
		case due != refreshed:
			t.Fatalf("step %d: RefreshDue %v but Decide refreshed %v (observations %d)", i, due, refreshed, before.Observations)
		}
		if refreshed {
			refreshSteps = append(refreshSteps, i)
		}
		s.Observe(ctx, battery.SelectBig, stateFor(device.WiFiIdle, 1+(i+1)%3, battery.SelectBig), 0.9)
	}
	every := int(cfg.RefreshIntervalS / dt)
	if len(refreshSteps) != 1500/every {
		t.Fatalf("refreshed on steps %v, want every %d steps", refreshSteps, every)
	}
	for k, step := range refreshSteps {
		if step != (k+1)*every {
			t.Fatalf("refreshed on steps %v, want every %d steps", refreshSteps, every)
		}
	}
}
