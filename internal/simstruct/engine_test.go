package simstruct

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/mdp"
	"repro/internal/obs"
)

// computeReference is the pre-engine serial implementation of Algorithm 1
// (nested [][]float64 matrices, per-pair distribution rebuilds, no caching),
// kept verbatim as the behavioural pin for the sweep engine.
func computeReference(g *mdp.Graph, cfg Config) ([][]float64, [][]float64, int, error) {
	n := g.NumStates
	m := g.NumActions()
	identity := func(n int) [][]float64 {
		mx := make([][]float64, n)
		for i := range mx {
			mx[i] = make([]float64, n)
			mx[i][i] = 1
		}
		return mx
	}
	maxAbsDiff := func(a, b [][]float64) float64 {
		var worst float64
		for i := range a {
			for j := range a[i] {
				if d := math.Abs(a[i][j] - b[i][j]); d > worst {
					worst = d
				}
			}
		}
		return worst
	}
	distributionOf := func(a mdp.ActionNode) Distribution {
		d := Distribution{
			Points: make([]int, 0, len(a.Out)),
			Probs:  make([]float64, 0, len(a.Out)),
		}
		for _, t := range a.Out {
			d.Points = append(d.Points, int(t.Next))
			d.Probs = append(d.Probs, t.P)
		}
		return d
	}

	s := identity(n)
	a := identity(m)
	absorbing := make([]bool, n)
	for u := 0; u < n; u++ {
		absorbing[u] = g.Absorbing(mdp.State(u))
	}
	baseS := func(u, v int) (float64, bool) {
		switch {
		case u == v:
			return 1, true
		case absorbing[u] && absorbing[v]:
			d := 0.0
			if cfg.AbsorbingDist != nil {
				d = clamp01(cfg.AbsorbingDist(mdp.State(u), mdp.State(v)))
			}
			return 1 - d, true
		case absorbing[u] || absorbing[v]:
			return 0, true
		default:
			return 0, false
		}
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if sim, fixed := baseS(u, v); fixed {
				s[u][v] = sim
			}
		}
	}

	nextS := identity(n)
	nextA := identity(m)
	for iter := 1; iter <= cfg.MaxIter; iter++ {
		groundDist := func(i, j int) float64 { return clamp01(1 - s[i][j]) }
		for i := 0; i < m; i++ {
			nextA[i][i] = 1
			for j := i + 1; j < m; j++ {
				ai, aj := g.Action(i), g.Action(j)
				dr := math.Abs(ai.MeanReward - aj.MeanReward)
				demd, err := EMD(distributionOf(ai), distributionOf(aj), groundDist)
				if err != nil {
					return nil, nil, 0, err
				}
				sim := clamp01(1 - (1-cfg.CA)*dr - cfg.CA*demd)
				nextA[i][j] = sim
				nextA[j][i] = sim
			}
		}
		actDist := func(i, j int) float64 { return clamp01(1 - nextA[i][j]) }
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if sim, fixed := baseS(u, v); fixed {
					nextS[u][v] = sim
					continue
				}
				h := Hausdorff(g.OutActions(mdp.State(u)), g.OutActions(mdp.State(v)), actDist)
				nextS[u][v] = clamp01(cfg.CS * (1 - h))
			}
		}
		delta := math.Max(maxAbsDiff(s, nextS), maxAbsDiff(a, nextA))
		s, nextS = nextS, s
		a, nextA = nextA, a
		if delta < cfg.Eps {
			return s, a, iter, nil
		}
	}
	return nil, nil, 0, ErrNoConverge
}

// randomGraph builds a seeded, moderately dense MDP graph with a mix of
// absorbing and non-absorbing states.
func randomGraph(t testing.TB, n int, seed int64) *mdp.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m, err := mdp.NewModel(n)
	if err != nil {
		t.Fatal(err)
	}
	absorbingFrom := n - n/4 // last quarter absorbing
	if absorbingFrom < 1 {
		absorbingFrom = 1
	}
	for s := 0; s < absorbingFrom; s++ {
		for c := mdp.Control(0); c < mdp.NumControls; c++ {
			if rng.Float64() < 0.2 {
				continue // some states expose only one control
			}
			fan := 1 + rng.Intn(3)
			seen := map[int]bool{}
			var ts []mdp.Transition
			var total float64
			for k := 0; k < fan; k++ {
				next := rng.Intn(n)
				if seen[next] {
					continue
				}
				seen[next] = true
				p := rng.Float64() + 0.1
				total += p
				ts = append(ts, mdp.Transition{
					Next: mdp.State(next),
					P:    p,
					R:    math.Round(rng.Float64()*100) / 100,
				})
			}
			for i := range ts {
				ts[i].P /= total
			}
			if err := m.SetTransitions(mdp.State(s), c, ts); err != nil {
				t.Fatal(err)
			}
		}
	}
	g, err := mdp.BuildGraph(m, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// capmanGraph builds the graph CAPMAN's scheduler indexes: an empirical
// model over the full encoded state space, materialised from a seeded
// stream of observations among a few visited states, with only
// battery-switching decisions as action nodes. Most of the state space is
// absorbing, and half the visited states never switch, so they are
// absorbing targets inside the live states' distributions.
func capmanGraph(t testing.TB, seed int64) *mdp.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	est, err := mdp.NewEstimator(mdp.NumStates)
	if err != nil {
		t.Fatal(err)
	}
	visited := make([]mdp.State, 12)
	for i := range visited {
		visited[i] = mdp.State(rng.Intn(mdp.NumStates))
	}
	for i := 0; i < 600; i++ {
		from := rng.Intn(len(visited))
		s := visited[from]
		next := visited[(from+rng.Intn(3))%len(visited)]
		c := mdp.Control(rng.Intn(int(mdp.NumControls)))
		if from%2 == 1 {
			// Never switching: an absorbing target in the graph.
			c = mdp.StateBatteryOf(s)
		}
		if err := est.Observe(s, c, next, math.Round(rng.Float64()*10)/10); err != nil {
			t.Fatal(err)
		}
	}
	model, err := est.Model(0.5)
	if err != nil {
		t.Fatal(err)
	}
	g, err := mdp.BuildGraph(model, true, mdp.StateBatteryOf)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestEngineMatchesReference pins the sweep engine bit-for-bit against
// the pre-engine serial implementation, including greedy cluster
// assignments at several thresholds. The capman-shaped cases cover the
// live sub-graph: most states are absorbing, so nearly every entry is an
// Equation (3) base case answered by rule, with and without a configured
// absorbing distance.
func TestEngineMatchesReference(t *testing.T) {
	// A symmetric absorbing distance that also exceeds 1 (and is clamped)
	// for far-apart states.
	spread := func(u, v mdp.State) float64 { return math.Abs(float64(u-v)) / 200 }
	type testCase struct {
		name string
		g    *mdp.Graph
		cfg  Config
	}
	var cases []testCase
	for _, seed := range []int64{1, 7, 23} {
		cases = append(cases, testCase{fmt.Sprintf("random/seed%d", seed), randomGraph(t, 18, seed), DefaultConfig(0.6)})
	}
	for _, seed := range []int64{3, 11} {
		withDist := DefaultConfig(0.6)
		withDist.AbsorbingDist = spread
		cases = append(cases,
			testCase{fmt.Sprintf("capman/seed%d", seed), capmanGraph(t, seed), DefaultConfig(0.6)},
			testCase{fmt.Sprintf("capman/seed%d/absorbing-dist", seed), capmanGraph(t, seed), withDist})
	}
	for _, tc := range cases {
		g, cfg := tc.g, tc.cfg
		refS, refA, refIter, err := computeReference(g, cfg)
		if err != nil {
			t.Fatalf("%s: reference: %v", tc.name, err)
		}
		res, err := Compute(g, cfg)
		if err != nil {
			t.Fatalf("%s: engine: %v", tc.name, err)
		}
		if res.Iterations != refIter {
			t.Errorf("%s: iterations %d, reference %d", tc.name, res.Iterations, refIter)
		}
		for u := 0; u < g.NumStates; u++ {
			for v := 0; v < g.NumStates; v++ {
				if got, want := res.StateSimilarity(mdp.State(u), mdp.State(v)), refS[u][v]; got != want {
					t.Fatalf("%s: S[%d][%d] = %v, reference %v", tc.name, u, v, got, want)
				}
			}
		}
		for i := 0; i < g.NumActions(); i++ {
			for j := 0; j < g.NumActions(); j++ {
				if got, want := res.A.At(i, j), refA[i][j]; got != want {
					t.Fatalf("%s: A[%d][%d] = %v, reference %v", tc.name, i, j, got, want)
				}
			}
		}
		// The greedy leader clustering over bit-identical matrices must
		// reproduce the old assignments exactly.
		refClusters := func(tau float64) []int {
			cluster := make([]int, g.NumStates)
			var leaders []int
			for u := 0; u < g.NumStates; u++ {
				assigned := false
				for _, l := range leaders {
					if clamp01(1-refS[u][l]) <= tau {
						cluster[u] = l
						assigned = true
						break
					}
				}
				if !assigned {
					leaders = append(leaders, u)
					cluster[u] = u
				}
			}
			return cluster
		}
		for _, tau := range []float64{0, 0.05, 0.3, 1} {
			got := res.Clusters(tau)
			want := refClusters(tau)
			for s := range got {
				if got[s] != want[s] {
					t.Fatalf("%s tau %v: cluster[%d] = %d, reference %d", tc.name, tau, s, got[s], want[s])
				}
			}
		}
	}
}

// TestComputeAllocsLiveSubgraph bounds the heap a capman-shaped Compute
// allocates: the engine sizes its state sweep by the live states, not by
// the full state space (a dense 384×384 engine allocates ~3 MB per call).
func TestComputeAllocsLiveSubgraph(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not exact under the race detector")
	}
	g := capmanGraph(t, 3)
	cfg := DefaultConfig(0.6)
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := Compute(g, cfg); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	const limit = 64 << 10
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > limit {
		t.Errorf("Compute on the %d-state graph allocates %d B/op, limit %d", g.NumStates, got, limit)
	}
}

// TestDirtyPairCacheSkips: the exact dirty-pair cache must actually skip
// re-solves on multi-sweep runs without changing the fixed point.
func TestDirtyPairCacheSkips(t *testing.T) {
	g := randomGraph(t, 24, 42)
	res, err := Compute(g, DefaultConfig(0.6))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 2 {
		t.Skipf("converged in %d sweep(s); no reuse opportunity", res.Iterations)
	}
	if res.EMDSkips == 0 {
		t.Errorf("no EMD reuse across %d sweeps (%d solves)", res.Iterations, res.EMDSolves)
	}
	pairs := 0
	m := g.NumActions()
	pairs = m * (m - 1) / 2
	if got, want := res.EMDSolves+res.EMDSkips, pairs*res.Iterations; got != want {
		t.Errorf("solves+skips = %d, want pairs·iterations = %d", got, want)
	}
}

// TestComputeContextCancelled: a cancelled context aborts the recursion
// with an error wrapping context.Canceled.
func TestComputeContextCancelled(t *testing.T) {
	g := randomGraph(t, 24, 42)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ComputeContext(ctx, g, DefaultConfig(0.6))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error = %v, want context.Canceled", err)
	}
}

// TestComputeCancelledMidSweep: a cancel that lands inside a sweep aborts
// it at the next cancelStride boundary instead of running it to the end.
// The cancel comes from the first absorbing-distance lookup, which a
// first-sweep EMD makes; every first-sweep pair is a solve (the cache is
// empty), so the EMD latency histogram counts the pairs evaluated.
func TestComputeCancelledMidSweep(t *testing.T) {
	g := randomGraph(t, 48, 42)
	m := g.NumActions()
	pairs := m * (m - 1) / 2
	if pairs <= cancelStride {
		t.Fatalf("%d action pairs, need more than %d", pairs, cancelStride)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hist := obs.MustHistogram(obs.LatencyBuckets()...)
	atCancel := uint64(math.MaxUint64)
	cfg := DefaultConfig(0.6)
	cfg.EMDLatency = hist
	cfg.AbsorbingDist = func(u, v mdp.State) float64 {
		if atCancel == math.MaxUint64 {
			atCancel = hist.Count() // pairs solved before the current one
			cancel()
		}
		return 0
	}
	_, err := ComputeContext(ctx, g, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if atCancel == math.MaxUint64 {
		t.Fatal("AbsorbingDist never called")
	}
	evaluated := hist.Count()
	if evaluated >= uint64(pairs) {
		t.Fatalf("first sweep ran all %d pairs after a cancel at pair %d", pairs, atCancel)
	}
	if further := evaluated - atCancel - 1; further >= cancelStride {
		t.Errorf("%d pairs evaluated after the cancel, want fewer than %d", further, cancelStride)
	}
}

// TestComputeRecordsSweepSpans: with an ambient recorder, the engine emits
// a simstruct.compute root with one child span per sweep.
func TestComputeRecordsSweepSpans(t *testing.T) {
	g := randomGraph(t, 12, 3)
	rec := obs.NewRecorder(0)
	hist := obs.MustHistogram(obs.LatencyBuckets()...)
	cfg := DefaultConfig(0.6)
	cfg.EMDLatency = hist
	res, err := ComputeContext(obs.WithRecorder(context.Background(), rec), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tree := rec.Tree()
	if len(tree) != 1 || tree[0].Name != "simstruct.compute" {
		t.Fatalf("span roots = %+v, want one simstruct.compute", tree)
	}
	if got := len(tree[0].Children); got != res.Iterations {
		t.Errorf("%d sweep spans for %d iterations", got, res.Iterations)
	}
	if hist.Count() != uint64(res.EMDSolves) {
		t.Errorf("EMD latency histogram has %d observations, want %d solves", hist.Count(), res.EMDSolves)
	}
}
