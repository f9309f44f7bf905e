package simstruct

import (
	"errors"
	"math"
	"testing"

	"repro/internal/mdp"
)

// chainModel builds a 6-state model with two structurally identical wings:
//
//	0 --UseLittle(p=1,r=0.8)--> 2 (absorbing)
//	1 --UseLittle(p=1,r=0.8)--> 3 (absorbing)
//	4 --UseLittle(p=1,r=0.1)--> 5 (absorbing)
//
// States 0 and 1 are exactly similar; state 4 differs in reward.
func chainModel(t *testing.T) *mdp.Model {
	t.Helper()
	m, err := mdp.NewModel(6)
	if err != nil {
		t.Fatal(err)
	}
	set := func(s mdp.State, next mdp.State, r float64) {
		t.Helper()
		if err := m.SetTransitions(s, mdp.UseLittle, []mdp.Transition{{Next: next, P: 1, R: r}}); err != nil {
			t.Fatal(err)
		}
	}
	set(0, 2, 0.8)
	set(1, 3, 0.8)
	set(4, 5, 0.1)
	return m
}

func chainGraph(t *testing.T) *mdp.Graph {
	t.Helper()
	g, err := mdp.BuildGraph(chainModel(t), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestConfigValidation(t *testing.T) {
	good := DefaultConfig(0.6)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{CS: 0, CA: 0.5, Eps: 1e-4, MaxIter: 10},
		{CS: 1.5, CA: 0.5, Eps: 1e-4, MaxIter: 10},
		{CS: 1, CA: 0, Eps: 1e-4, MaxIter: 10},
		{CS: 1, CA: 1, Eps: 1e-4, MaxIter: 10},
		{CS: 1, CA: 0.5, Eps: 0, MaxIter: 10},
		{CS: 1, CA: 0.5, Eps: 1e-4, MaxIter: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestComputeValidation(t *testing.T) {
	if _, err := Compute(nil, DefaultConfig(0.5)); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := Compute(chainGraph(t), Config{}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestSimilarityIdenticalStructures(t *testing.T) {
	res, err := Compute(chainGraph(t), DefaultConfig(0.6))
	if err != nil {
		t.Fatal(err)
	}
	// States 0 and 1 have identical structure (same reward, transitions
	// into absorbing states identified as the same by default).
	if d := res.StateDistance(0, 1); d > 1e-6 {
		t.Errorf("identical wings at distance %v", d)
	}
	// State 4 differs from 0 in reward.
	if d := res.StateDistance(0, 4); d <= 1e-6 {
		t.Errorf("reward-divergent states at distance %v", d)
	}
	// Diagonal similarity is exactly one.
	for u := mdp.State(0); u < 6; u++ {
		if sim := res.StateSimilarity(u, u); sim != 1 {
			t.Errorf("S[%d][%d] = %v", u, u, sim)
		}
	}
}

func TestSimilarityBounds(t *testing.T) {
	res, err := Compute(chainGraph(t), DefaultConfig(0.6))
	if err != nil {
		t.Fatal(err)
	}
	for i := mdp.State(0); i < 6; i++ {
		for j := mdp.State(0); j < 6; j++ {
			if v := res.StateSimilarity(i, j); v < 0 || v > 1 {
				t.Fatalf("S[%d][%d] = %v outside [0,1]", i, j, v)
			}
			if math.Abs(res.StateSimilarity(i, j)-res.StateSimilarity(j, i)) > 1e-9 {
				t.Fatalf("S asymmetric at (%d,%d)", i, j)
			}
		}
	}
	for i := 0; i < res.A.N(); i++ {
		for j := 0; j < res.A.N(); j++ {
			if v := res.A.At(i, j); v < 0 || v > 1 {
				t.Fatalf("A[%d][%d] = %v outside [0,1]", i, j, v)
			}
		}
	}
}

// TestAbsorbingBaseCase: an absorbing and a non-absorbing state are at
// distance 1; two absorbing states are at the configured distance.
func TestAbsorbingBaseCase(t *testing.T) {
	res, err := Compute(chainGraph(t), DefaultConfig(0.6))
	if err != nil {
		t.Fatal(err)
	}
	// 2 is absorbing, 0 is not.
	if d := res.StateDistance(0, 2); d != 1 {
		t.Errorf("absorbing vs non-absorbing distance %v", d)
	}
	// 2 and 3 both absorbing with default d=0.
	if d := res.StateDistance(2, 3); d != 0 {
		t.Errorf("two absorbing distance %v", d)
	}
	// Custom absorbing distance.
	cfg := DefaultConfig(0.6)
	cfg.AbsorbingDist = func(u, v mdp.State) float64 { return 1 }
	res2, err := Compute(chainGraph(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := res2.StateDistance(2, 3); d != 1 {
		t.Errorf("custom absorbing distance %v", d)
	}
}

// TestValueBoundHolds: the paper's competitiveness bound
// |V*_u - V*_v| <= delta_S(u,v)/(1-rho) holds against the exactly solved
// values.
func TestValueBoundHolds(t *testing.T) {
	m := chainModel(t)
	g, err := mdp.BuildGraph(m, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, rho := range []float64{0.05, 0.3, 0.6, 0.9} {
		sol, err := m.ValueIteration(rho, 1e-10, 1000000)
		if err != nil {
			t.Fatalf("rho=%v: %v", rho, err)
		}
		res, err := Compute(g, DefaultConfig(rho))
		if err != nil {
			t.Fatalf("rho=%v similarity: %v", rho, err)
		}
		for u := 0; u < 6; u++ {
			for v := 0; v < 6; v++ {
				gap := math.Abs(sol.V[u] - sol.V[v])
				bound := res.ValueBound(mdp.State(u), mdp.State(v), rho)
				if gap > bound+1e-6 {
					t.Errorf("rho=%v: |V[%d]-V[%d]| = %v exceeds bound %v",
						rho, u, v, gap, bound)
				}
			}
		}
	}
}

func TestValueBoundInvalidRho(t *testing.T) {
	res, err := Compute(chainGraph(t), DefaultConfig(0.6))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.ValueBound(0, 1, 1.5); !math.IsInf(got, 1) {
		t.Errorf("invalid rho bound = %v", got)
	}
}

func TestClusters(t *testing.T) {
	res, err := Compute(chainGraph(t), DefaultConfig(0.6))
	if err != nil {
		t.Fatal(err)
	}
	clusters := res.Clusters(0.01)
	if clusters[0] != clusters[1] {
		t.Errorf("identical states 0 and 1 in different clusters: %v", clusters)
	}
	if clusters[0] == clusters[4] {
		t.Errorf("divergent state 4 merged with 0: %v", clusters)
	}
	// tau = 1 merges everything into the first leader.
	all := res.Clusters(1)
	for s, rep := range all {
		if rep != all[0] {
			t.Errorf("tau=1: state %d not merged (rep %d)", s, rep)
		}
	}
	// tau = 0 keeps only exact matches together.
	exact := res.Clusters(0)
	if exact[0] != exact[1] {
		t.Errorf("tau=0 should still merge exactly-identical states")
	}
}

func TestComputeNonConvergence(t *testing.T) {
	cfg := DefaultConfig(0.9)
	cfg.MaxIter = 1
	cfg.Eps = 1e-12
	_, err := Compute(chainGraph(t), cfg)
	if err == nil {
		return // converged in one sweep; nothing to assert
	}
	if !errors.Is(err, ErrNoConverge) {
		t.Errorf("error = %v, want ErrNoConverge", err)
	}
}

// TestConvergenceMonotone: the recursion terminates within the configured
// sweeps on a denser random-ish graph.
func TestConvergenceOnDenserGraph(t *testing.T) {
	m, err := mdp.NewModel(8)
	if err != nil {
		t.Fatal(err)
	}
	// Every non-absorbing state fans out to two successors under each
	// control.
	for s := mdp.State(0); s < 6; s++ {
		for c := mdp.Control(0); c < mdp.NumControls; c++ {
			r := 0.2 + 0.1*float64(s%3)
			ts := []mdp.Transition{
				{Next: (s + 1) % 8, P: 0.6, R: r},
				{Next: (s + 2) % 8, P: 0.4, R: r / 2},
			}
			if err := m.SetTransitions(s, c, ts); err != nil {
				t.Fatal(err)
			}
		}
	}
	g, err := mdp.BuildGraph(m, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compute(g, DefaultConfig(0.6))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations <= 0 || res.Iterations > 50 {
		t.Errorf("converged in %d sweeps", res.Iterations)
	}
}
