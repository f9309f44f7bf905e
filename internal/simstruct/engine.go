// Package simstruct implements the structural-similarity approximation of
// CAPMAN's Section III-C/D: a SimRank-style recursion over the bipartite
// MDP graph that computes state similarities (via Hausdorff distance over
// action neighbourhoods) and action similarities (via reward distance and
// the Earth Mover's Distance between transition distributions). The EMD is
// solved, as the paper prescribes, with a successive-shortest-path min-cost
// flow.
//
// The recursion runs on a serial, scratch-reusing sweep engine over the
// live sub-graph: only non-absorbing states evolve, so the state sweep, its
// matrix and its dirty-pair bookkeeping are sized by the live states while
// every Equation (3) base case is answered by rule. Per-action
// distributions are hoisted and validated once, both similarity matrices
// are flattened row-major and only their upper triangles are computed (the
// recursion is symmetric), one allocation-free EMDSolver serves every
// solve, and a dirty-pair cache skips EMDs whose ground distances have not
// moved since their last solve.
package simstruct

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/mdp"
	"repro/internal/obs"
)

// Compute runs Algorithm 1 on the bipartite MDP graph with a background
// context.
func Compute(g *mdp.Graph, cfg Config) (*Result, error) {
	return ComputeContext(context.Background(), g, cfg)
}

// ComputeContext runs Algorithm 1 under a context. Cancellation is
// cooperative: the engine checks the context before every sweep and every
// cancelStride pairs within one, so a cancel aborts within a fraction of a
// sweep and the returned error wraps the context error. When a recorder is
// attached to the context (obs.WithRecorder), the engine records one span
// per sweep under a simstruct.compute root.
func ComputeContext(ctx context.Context, g *mdp.Graph, cfg Config) (*Result, error) {
	if g == nil {
		return nil, errors.New("simstruct: nil graph")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e, err := newEngine(g, cfg)
	if err != nil {
		return nil, err
	}
	return e.run(ctx)
}

// pair32 is one canonical (u < v) pair of the upper triangle.
type pair32 struct{ u, v int32 }

// cancelStride is how many pairs a sweep evaluates between context checks.
const cancelStride = 256

// engine is one Compute invocation: the hoisted invariants, the flattened
// sweep state, and the EMD scratch of Algorithm 1.
type engine struct {
	g    *mdp.Graph
	cfg  Config
	k, m int // live states, action nodes

	// live maps graph states onto the compact indices of the sweep
	// matrices and answers the Equation (3) base cases by rule.
	live liveStates

	// Hoisted invariants, built once and read-only during sweeps. dists
	// and rewards are indexed by action node, outActs by compact state.
	dists   []Distribution
	rewards []float64
	outActs [][]int

	// Sweep state over the live sub-graph (k×k) and the action nodes
	// (m×m); the pair lists cover the upper triangles that evolve.
	s, nextS    *Matrix
	a, nextA    *Matrix
	statePairs  []pair32
	actionPairs []pair32

	// Dirty-pair EMD cache, indexed i*m+j over canonical action pairs.
	// emdSweep is the sweep an entry was solved at (0 = never);
	// lastChanged, indexed a*k+b over canonical compact state pairs, is
	// the sweep the state similarity last changed at.
	emdCache    []float64
	emdSweep    []int32
	lastChanged []int32

	solver      *EMDSolver
	totalSolves int
	totalSkips  int
}

// newEngine hoists the invariants of one Compute call.
func newEngine(g *mdp.Graph, cfg Config) (*engine, error) {
	m := g.NumActions()
	e := &engine{
		g:      g,
		cfg:    cfg,
		m:      m,
		solver: NewEMDSolver(),
		live: liveStates{
			index:         make([]int32, g.NumStates),
			absorbingDist: cfg.AbsorbingDist,
		},
	}

	// Only non-absorbing states enter the sweep. Compact indices follow
	// state order, so the pair list visits live pairs in the same order
	// as a sweep over the full state space would.
	for u := 0; u < g.NumStates; u++ {
		out := g.OutActions(mdp.State(u))
		if len(out) == 0 {
			e.live.index[u] = -1
			continue
		}
		e.live.index[u] = int32(len(e.outActs))
		e.outActs = append(e.outActs, out)
	}
	e.k = len(e.outActs)

	// Per-action distributions share two backing arrays and are validated
	// exactly once; the inner loop then goes through EMDSolver.Solve,
	// which skips validation.
	total := g.NumTransitions()
	points := make([]int, 0, total)
	probs := make([]float64, 0, total)
	e.dists = make([]Distribution, m)
	e.rewards = make([]float64, m)
	for i := 0; i < m; i++ {
		act := g.Action(i)
		start := len(points)
		for _, t := range act.Out {
			points = append(points, int(t.Next))
			probs = append(probs, t.P)
		}
		e.dists[i] = Distribution{
			Points: points[start:len(points):len(points)],
			Probs:  probs[start:len(probs):len(probs)],
		}
		if err := e.dists[i].Validate(); err != nil {
			return nil, fmt.Errorf("simstruct: action %d: %w", i, err)
		}
		e.rewards[i] = act.MeanReward
	}

	e.s, e.nextS = newIdentityMatrix(e.k), newIdentityMatrix(e.k)
	e.a, e.nextA = newIdentityMatrix(m), newIdentityMatrix(m)
	e.statePairs = upperPairs(e.k)
	e.actionPairs = upperPairs(m)

	e.emdCache = make([]float64, m*m)
	e.emdSweep = make([]int32, m*m)
	e.lastChanged = make([]int32, e.k*e.k)
	return e, nil
}

// upperPairs lists the canonical pairs (i < j) of an n×n upper triangle in
// row-major order.
func upperPairs(n int) []pair32 {
	pairs := make([]pair32, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, pair32{int32(i), int32(j)})
		}
	}
	return pairs
}

// run drives the sweeps to the fixed point.
func (e *engine) run(ctx context.Context) (*Result, error) {
	ctx, root := obs.StartSpan(ctx, "simstruct.compute")
	if root != nil {
		root.SetAttr("states", e.g.NumStates)
		root.SetAttr("actions", e.m)
		defer root.End()
	}
	for iter := 1; iter <= e.cfg.MaxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("simstruct: %w", err)
		}
		_, span := obs.StartSpan(ctx, "simstruct.sweep")
		deltaA, err := e.sweepActions(ctx, int32(iter))
		if err != nil {
			span.End()
			return nil, err
		}
		deltaS, err := e.sweepStates(ctx, int32(iter))
		if err != nil {
			span.End()
			return nil, err
		}
		delta := math.Max(deltaA, deltaS)
		e.s, e.nextS = e.nextS, e.s
		e.a, e.nextA = e.nextA, e.a
		if span != nil {
			span.SetAttr("iter", iter)
			span.SetAttr("delta", delta)
			span.SetAttr("emd_solves", e.totalSolves)
			span.SetAttr("emd_skips", e.totalSkips)
			span.End()
		}
		if delta < e.cfg.Eps {
			if root != nil {
				root.SetAttr("iterations", iter)
				root.SetAttr("emd_solves", e.totalSolves)
				root.SetAttr("emd_skips", e.totalSkips)
			}
			return &Result{
				A:          e.a,
				Iterations: iter,
				CA:         e.cfg.CA,
				EMDSolves:  e.totalSolves,
				EMDSkips:   e.totalSkips,
				s:          e.s,
				live:       e.live,
			}, nil
		}
	}
	return nil, fmt.Errorf("%w after %d sweeps", ErrNoConverge, e.cfg.MaxIter)
}

// sweepActions evaluates Equation (4) over the action-pair upper triangle
// (Algorithm 1 lines 3-5) and returns the sup-norm change of sigma_A.
func (e *engine) sweepActions(ctx context.Context, sweep int32) (float64, error) {
	ground := func(u, v int) float64 { return clamp01(1 - e.live.similarity(e.s, u, v)) }
	timed := e.cfg.EMDLatency != nil
	var worst float64
	for k, p := range e.actionPairs {
		if k%cancelStride == 0 && k != 0 {
			if err := ctx.Err(); err != nil {
				return 0, fmt.Errorf("simstruct: %w", err)
			}
		}
		i, j := int(p.u), int(p.v)
		idx := i*e.m + j
		var demd float64
		if e.cacheValid(i, j, idx) {
			demd = e.emdCache[idx]
			e.totalSkips++
		} else {
			var start time.Time
			if timed {
				start = time.Now()
			}
			d, err := e.solver.Solve(e.dists[i], e.dists[j], ground)
			if err != nil {
				return 0, fmt.Errorf("action pair (%d,%d): %w", i, j, err)
			}
			if timed {
				e.cfg.EMDLatency.Observe(time.Since(start).Seconds())
			}
			demd = d
			e.emdCache[idx] = d
			e.emdSweep[idx] = sweep
			e.totalSolves++
		}
		dr := math.Abs(e.rewards[i] - e.rewards[j])
		sim := clamp01(1 - (1-e.cfg.CA)*dr - e.cfg.CA*demd)
		e.nextA.set(i, j, sim)
		e.nextA.set(j, i, sim)
		if d := math.Abs(sim - e.a.At(i, j)); d > worst {
			worst = d
		}
	}
	return worst, nil
}

// cacheValid reports whether the cached EMD for action pair (i, j) is still
// exact: every state-pair similarity its ground distance read must be
// unchanged since the cached solve. Pairs with an absorbing end are base
// cases and never change.
func (e *engine) cacheValid(i, j, idx int) bool {
	t0 := e.emdSweep[idx]
	if t0 == 0 {
		return false
	}
	for _, u := range e.dists[i].Points {
		for _, v := range e.dists[j].Points {
			a, b, ok := e.live.pair(u, v)
			if !ok || a == b {
				continue // base case, or the diagonal pinned at 1
			}
			if a > b {
				a, b = b, a
			}
			if e.lastChanged[a*e.k+b] >= t0 {
				return false
			}
		}
	}
	return true
}

// sweepStates evaluates the Hausdorff recursion over the live state-pair
// upper triangle (Algorithm 1 lines 6-7), mirrors the results,
// maintains the dirty-pair bookkeeping, and returns the sup-norm change of
// sigma_S.
func (e *engine) sweepStates(ctx context.Context, sweep int32) (float64, error) {
	actDist := func(i, j int) float64 { return clamp01(1 - e.nextA.At(i, j)) }
	var worst float64
	for k, p := range e.statePairs {
		if k%cancelStride == 0 && k != 0 {
			if err := ctx.Err(); err != nil {
				return 0, fmt.Errorf("simstruct: %w", err)
			}
		}
		u, v := int(p.u), int(p.v)
		h := Hausdorff(e.outActs[u], e.outActs[v], actDist)
		sim := clamp01(e.cfg.CS * (1 - h))
		d := math.Abs(sim - e.s.At(u, v))
		e.nextS.set(u, v, sim)
		e.nextS.set(v, u, sim)
		if d > worst {
			worst = d
		}
		if d != 0 {
			e.lastChanged[u*e.k+v] = sweep
		}
	}
	return worst, nil
}
