package mdp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/battery"
	"repro/internal/device"
	"repro/internal/workload"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for s := 0; s < NumStates; s++ {
		vec, err := Decode(State(s))
		if err != nil {
			t.Fatalf("Decode(%d): %v", s, err)
		}
		if !vec.Valid() {
			t.Fatalf("Decode(%d) invalid vector %+v", s, vec)
		}
		if got := vec.Encode(); got != State(s) {
			t.Fatalf("roundtrip %d -> %+v -> %d", s, vec, got)
		}
	}
}

func TestDecodeOutOfRange(t *testing.T) {
	if _, err := Decode(-1); err == nil {
		t.Error("negative state accepted")
	}
	if _, err := Decode(NumStates); err == nil {
		t.Error("over-range state accepted")
	}
}

// Property: encoding is injective over random valid vectors.
func TestEncodeInjective(t *testing.T) {
	f := func(c, fq, sc, wf, tec, bt uint8) bool {
		v := StateVec{
			CPU:     device.CPUSleep + device.CPUState(c%4),
			Freq:    int(fq % MaxFreqLevels),
			Screen:  device.ScreenOff + device.ScreenState(sc%2),
			WiFi:    device.WiFiIdle + device.WiFiState(wf%3),
			TECOn:   tec%2 == 1,
			Battery: battery.SelectBig + battery.Selection(bt%2),
		}
		dec, err := Decode(v.Encode())
		return err == nil && dec == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestEncodeClampsFreq(t *testing.T) {
	v := StateVec{CPU: device.CPUC0, Freq: 99, Screen: device.ScreenOn,
		WiFi: device.WiFiIdle, Battery: battery.SelectBig}
	dec, err := Decode(v.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Freq != MaxFreqLevels-1 {
		t.Errorf("over-range freq decoded to %d", dec.Freq)
	}
}

func TestStateVecHelpers(t *testing.T) {
	v := StateVec{CPU: device.CPUC0, Screen: device.ScreenOn,
		WiFi: device.WiFiSend, TECOn: true, Battery: battery.SelectBig}
	w := v.WithBattery(battery.SelectLittle)
	if w.Battery != battery.SelectLittle || v.Battery != battery.SelectBig {
		t.Error("WithBattery mutated the receiver or failed")
	}
	if s := v.String(); s == "" {
		t.Error("empty String()")
	}
}

func TestControlHelpers(t *testing.T) {
	if UseBig.Selection() != battery.SelectBig || UseLittle.Selection() != battery.SelectLittle {
		t.Error("control selection mapping wrong")
	}
	if ControlFor(battery.SelectBig) != UseBig || ControlFor(battery.SelectLittle) != UseLittle {
		t.Error("ControlFor mapping wrong")
	}
	if UseBig.String() != "use_big" || UseLittle.String() != "use_LITTLE" {
		t.Error("control strings wrong")
	}
	if Control(5).String() != "Control(5)" {
		t.Error("unknown control string")
	}
}

func TestModelValidation(t *testing.T) {
	if _, err := NewModel(0); err == nil {
		t.Error("zero-state model accepted")
	}
	m, err := NewModel(4)
	if err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		name string
		s    State
		c    Control
		ts   []Transition
	}{
		{"state range", 9, UseBig, nil},
		{"control", 0, Control(7), nil},
		{"target range", 0, UseBig, []Transition{{Next: 10, P: 1}}},
		{"negative prob", 0, UseBig, []Transition{{Next: 1, P: -1}}},
		{"bad reward", 0, UseBig, []Transition{{Next: 1, P: 1, R: 2}}},
		{"bad sum", 0, UseBig, []Transition{{Next: 1, P: 0.4}}},
	}
	for _, tc := range bad {
		if err := m.SetTransitions(tc.s, tc.c, tc.ts); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	if got := m.Transitions(99, UseBig); got != nil {
		t.Error("out-of-range transitions non-nil")
	}
}

// twoStateModel is a hand-solvable MDP:
//
//	state 0: UseBig -> stay in 0, r=0.5; UseLittle -> go to 1, r=1.0
//	state 1: absorbing (no transitions)
//
// With discount rho, V(1)=0 and V(0) = max(0.5 + rho*V(0), 1.0) = 1.0 when
// 0.5/(1-rho) < 1, i.e. rho < 0.5.
func twoStateModel(t *testing.T) *Model {
	t.Helper()
	m, err := NewModel(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetTransitions(0, UseBig, []Transition{{Next: 0, P: 1, R: 0.5}}); err != nil {
		t.Fatal(err)
	}
	if err := m.SetTransitions(0, UseLittle, []Transition{{Next: 1, P: 1, R: 1.0}}); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestValueIterationHandSolved(t *testing.T) {
	m := twoStateModel(t)
	// rho = 0.25: loop value 0.5/(1-0.25) = 0.667 < 1 -> exit wins.
	sol, err := m.ValueIteration(0.25, 1e-9, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.V[0]-1.0) > 1e-6 || sol.Policy[0] != UseLittle {
		t.Errorf("rho=0.25: V=%v policy=%v", sol.V[0], sol.Policy[0])
	}
	// rho = 0.9: loop value 0.5/(1-0.9) = 5 > 1 -> stay wins.
	sol, err = m.ValueIteration(0.9, 1e-9, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.V[0]-5.0) > 1e-4 || sol.Policy[0] != UseBig {
		t.Errorf("rho=0.9: V=%v policy=%v", sol.V[0], sol.Policy[0])
	}
	if sol.V[1] != 0 {
		t.Errorf("absorbing state value %v", sol.V[1])
	}
}

func TestValueIterationValidation(t *testing.T) {
	m := twoStateModel(t)
	if _, err := m.ValueIteration(0, 1e-6, 100); err == nil {
		t.Error("rho=0 accepted")
	}
	if _, err := m.ValueIteration(1, 1e-6, 100); err == nil {
		t.Error("rho=1 accepted")
	}
	if _, err := m.ValueIteration(0.99999, 1e-12, 2); err == nil {
		t.Error("expected non-convergence with 2 sweeps")
	}
}

// Property: the solved value function has (near-)zero Bellman residual, and
// values are bounded by rmax/(1-rho).
func TestBellmanConsistency(t *testing.T) {
	m := twoStateModel(t)
	for _, rho := range []float64{0.1, 0.5, 0.9} {
		sol, err := m.ValueIteration(rho, 1e-10, 1000000)
		if err != nil {
			t.Fatalf("rho=%v: %v", rho, err)
		}
		if res := m.BellmanResidual(sol.V, rho); res > 1e-8 {
			t.Errorf("rho=%v residual %v", rho, res)
		}
		bound := 1 / (1 - rho)
		for s, v := range sol.V {
			if v < -1e-9 || v > bound+1e-9 {
				t.Errorf("rho=%v V[%d]=%v outside [0, %v]", rho, s, v, bound)
			}
		}
	}
}

func TestEstimatorBuildsProbabilities(t *testing.T) {
	e, err := NewEstimator(4)
	if err != nil {
		t.Fatal(err)
	}
	// 3 transitions 0->1 (r=0.9), 1 transition 0->2 (r=0.1) under UseBig.
	for i := 0; i < 3; i++ {
		if err := e.Observe(0, UseBig, 1, 0.9); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Observe(0, UseBig, 2, 0.1); err != nil {
		t.Fatal(err)
	}
	if e.Observations() != 4 || e.StateObservations(0) != 4 || e.StateObservations(1) != 0 {
		t.Errorf("counts: total %d, state0 %d", e.Observations(), e.StateObservations(0))
	}
	m, err := e.Model(0)
	if err != nil {
		t.Fatal(err)
	}
	ts := m.Transitions(0, UseBig)
	probs := map[State]float64{}
	rewards := map[State]float64{}
	for _, tr := range ts {
		probs[tr.Next] = tr.P
		rewards[tr.Next] = tr.R
	}
	if math.Abs(probs[1]-0.75) > 1e-12 || math.Abs(probs[2]-0.25) > 1e-12 {
		t.Errorf("probabilities %v", probs)
	}
	if math.Abs(rewards[1]-0.9) > 1e-12 {
		t.Errorf("reward %v", rewards[1])
	}
	// Unvisited pairs stay absorbing.
	if got := m.Transitions(1, UseBig); got != nil {
		t.Errorf("unvisited pair has transitions %v", got)
	}
}

func TestEstimatorSmoothingSelfLoop(t *testing.T) {
	e, err := NewEstimator(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Observe(0, UseBig, 1, 1.0); err != nil {
		t.Fatal(err)
	}
	m, err := e.Model(1.0)
	if err != nil {
		t.Fatal(err)
	}
	ts := m.Transitions(0, UseBig)
	var sum, selfP float64
	for _, tr := range ts {
		sum += tr.P
		if tr.Next == 0 {
			selfP = tr.P
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("smoothed probabilities sum to %v", sum)
	}
	if math.Abs(selfP-0.5) > 1e-9 {
		t.Errorf("self-loop mass %v, want 0.5", selfP)
	}
}

func TestEstimatorValidation(t *testing.T) {
	if _, err := NewEstimator(0); err == nil {
		t.Error("zero states accepted")
	}
	e, err := NewEstimator(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Observe(-1, UseBig, 0, 0.5); err == nil {
		t.Error("negative state accepted")
	}
	if err := e.Observe(0, Control(9), 0, 0.5); err == nil {
		t.Error("bad control accepted")
	}
	if _, err := e.Model(-1); err == nil {
		t.Error("negative smoothing accepted")
	}
	// Rewards clamp rather than error.
	if err := e.Observe(0, UseBig, 1, 7); err != nil {
		t.Errorf("over-range reward rejected: %v", err)
	}
	m, err := e.Model(0)
	if err != nil {
		t.Fatal(err)
	}
	if ts := m.Transitions(0, UseBig); ts[0].R != 1 {
		t.Errorf("reward not clamped: %v", ts[0].R)
	}
}

func TestEstimatorEventStats(t *testing.T) {
	e, err := NewEstimator(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := e.ObserveEvent(0, workload.ActWake); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.ObserveEvent(0, workload.ActSleep); err != nil {
		t.Fatal(err)
	}
	wake := e.EventRate(0, workload.ActWake)
	sleep := e.EventRate(0, workload.ActSleep)
	never := e.EventRate(0, workload.ActNetSend)
	if !(wake > sleep && sleep > never) {
		t.Errorf("event rates wake=%v sleep=%v never=%v", wake, sleep, never)
	}
	if never <= 0 {
		t.Error("Laplace smoothing should keep unseen events positive")
	}
	if err := e.ObserveEvent(-1, workload.ActWake); err == nil {
		t.Error("bad state accepted")
	}
	if got := e.EventRate(-1, workload.ActWake); got != 0 {
		t.Errorf("bad state rate %v", got)
	}
}

func TestBuildGraph(t *testing.T) {
	m := twoStateModel(t)
	// Full graph: both controls of state 0.
	g, err := BuildGraph(m, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumActions() != 2 {
		t.Errorf("full graph has %d action nodes", g.NumActions())
	}
	if !g.Absorbing(1) || g.Absorbing(0) {
		t.Error("absorbing detection wrong")
	}
	if g.MaxActionOutDegree() != 1 || g.MaxStateOutDegree() != 2 {
		t.Errorf("degrees K=%d L=%d", g.MaxActionOutDegree(), g.MaxStateOutDegree())
	}
	// Switch-only graph: state 0 is "big", so only UseLittle remains.
	batteryOf := func(State) Control { return UseBig }
	g2, err := BuildGraph(m, true, batteryOf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumActions() != 1 || g2.Actions[0].Control != UseLittle {
		t.Errorf("switch-only graph: %d nodes", g2.NumActions())
	}
	if g2.Actions[0].MeanReward != 1.0 {
		t.Errorf("mean reward %v", g2.Actions[0].MeanReward)
	}
}

func TestBuildGraphValidation(t *testing.T) {
	if _, err := BuildGraph(nil, false, nil); err == nil {
		t.Error("nil model accepted")
	}
	m := twoStateModel(t)
	if _, err := BuildGraph(m, true, nil); err == nil {
		t.Error("switch-only graph without batteryOf accepted")
	}
}

func TestStateBatteryOf(t *testing.T) {
	v := StateVec{CPU: device.CPUC0, Screen: device.ScreenOn,
		WiFi: device.WiFiIdle, Battery: battery.SelectLittle}
	if got := StateBatteryOf(v.Encode()); got != UseLittle {
		t.Errorf("battery control %v", got)
	}
	if got := StateBatteryOf(State(-1)); got != UseBig {
		t.Errorf("invalid state should default to big, got %v", got)
	}
}

func TestTopEvents(t *testing.T) {
	e, err := NewEstimator(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := e.ObserveEvent(1, workload.ActWake); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := e.ObserveEvent(1, workload.ActSleep); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.ObserveEvent(1, workload.ActNetSend); err != nil {
		t.Fatal(err)
	}
	top := e.TopEvents(1, 2)
	if len(top) != 2 || top[0].Action != workload.ActWake || top[0].Count != 5 ||
		top[1].Action != workload.ActSleep {
		t.Errorf("top events %+v", top)
	}
	if got := e.TopEvents(9, 2); got != nil {
		t.Errorf("out-of-range state returned %v", got)
	}
	if got := e.TopEvents(0, 3); len(got) != 0 {
		t.Errorf("eventless state returned %v", got)
	}
}

// fullSweepValueIteration is value iteration over every state, absorbing
// ones included: the reference the live-state sweep must match bit for bit.
func fullSweepValueIteration(m *Model, rho, eps float64, maxIter int) *Solution {
	v := make([]float64, m.NumStates())
	next := make([]float64, m.NumStates())
	policy := make([]Control, m.NumStates())
	for iter := 1; iter <= maxIter; iter++ {
		var residual float64
		for s := 0; s < m.NumStates(); s++ {
			best, bestC := math.Inf(-1), UseBig
			hasAny := false
			for c := Control(0); c < NumControls; c++ {
				if len(m.Transitions(State(s), c)) == 0 {
					continue
				}
				hasAny = true
				if q := m.QValue(State(s), c, v, rho); q > best {
					best, bestC = q, c
				}
			}
			if !hasAny {
				best = 0
			}
			next[s] = best
			policy[s] = bestC
			if d := math.Abs(next[s] - v[s]); d > residual {
				residual = d
			}
		}
		v, next = next, v
		if residual < eps {
			return &Solution{V: v, Policy: policy, Iterations: iter, Residual: residual}
		}
	}
	return nil
}

// sparseEstimator observes a fixed stream among a handful of states of the
// full state space, each (state, control) fanning out to several targets,
// so its model has mostly unvisited states and multi-entry distributions.
func sparseEstimator(t *testing.T) *Estimator {
	t.Helper()
	est, err := NewEstimator(NumStates)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	states := []State{3, 17, 40, 41, 96, 130, 201, 250, 287, 333, 350, 371}
	for i := 0; i < 5000; i++ {
		s := states[rng.Intn(len(states))]
		next := states[rng.Intn(len(states))]
		c := Control(rng.Intn(int(NumControls)))
		if err := est.Observe(s, c, next, rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	return est
}

// TestValueIterationSkipsUnvisitedStates: sweeping only states with
// transitions must reproduce a full sweep over the whole state space
// exactly, values, policy, iteration count and residual.
func TestValueIterationSkipsUnvisitedStates(t *testing.T) {
	model, err := sparseEstimator(t).Model(0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, rho := range []float64{0.3, 0.6, 0.9} {
		got, err := model.ValueIteration(rho, 1e-9, 100000)
		if err != nil {
			t.Fatalf("rho %v: %v", rho, err)
		}
		want := fullSweepValueIteration(model, rho, 1e-9, 100000)
		if want == nil {
			t.Fatalf("rho %v: reference did not converge", rho)
		}
		if got.Iterations != want.Iterations || got.Residual != want.Residual {
			t.Errorf("rho %v: iterations/residual %d/%v, reference %d/%v",
				rho, got.Iterations, got.Residual, want.Iterations, want.Residual)
		}
		for s := range want.V {
			if got.V[s] != want.V[s] || got.Policy[s] != want.Policy[s] {
				t.Fatalf("rho %v: state %d: V/policy %v/%v, reference %v/%v",
					rho, s, got.V[s], got.Policy[s], want.V[s], want.Policy[s])
			}
		}
	}
}

// TestModelMaterialisationDeterministic: materialising one estimator
// repeatedly must give models whose value iteration agrees bit for bit.
// The estimator keeps its counts in maps, so only the sorted-by-Next
// invariant of SetTransitions fixes the order of every Q-value sum.
func TestModelMaterialisationDeterministic(t *testing.T) {
	est := sparseEstimator(t)
	solve := func() *Solution {
		t.Helper()
		model, err := est.Model(0.5)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := model.ValueIteration(0.6, 1e-6, 10000)
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}
	first := solve()
	for run := 1; run < 20; run++ {
		sol := solve()
		if sol.Iterations != first.Iterations || sol.Residual != first.Residual {
			t.Fatalf("run %d: iterations/residual %d/%v, first %d/%v",
				run, sol.Iterations, sol.Residual, first.Iterations, first.Residual)
		}
		for s := range first.V {
			if sol.V[s] != first.V[s] {
				t.Fatalf("run %d: V[%d] = %v, first run %v", run, s, sol.V[s], first.V[s])
			}
		}
	}
}

// TestSetTransitionsSortsByNext: the installed distribution is a sorted
// copy, and the caller's slice is left as it was.
func TestSetTransitionsSortsByNext(t *testing.T) {
	m, err := NewModel(8)
	if err != nil {
		t.Fatal(err)
	}
	in := []Transition{{Next: 5, P: 0.2, R: 0.1}, {Next: 1, P: 0.5, R: 0.2}, {Next: 3, P: 0.3, R: 0.3}}
	if err := m.SetTransitions(0, UseLittle, in); err != nil {
		t.Fatal(err)
	}
	got := m.Transitions(0, UseLittle)
	for i, want := range []State{1, 3, 5} {
		if got[i].Next != want {
			t.Fatalf("transition %d goes to %d, want %d (%v)", i, got[i].Next, want, got)
		}
	}
	if in[0].Next != 5 {
		t.Errorf("caller's slice was reordered: %v", in)
	}
}
