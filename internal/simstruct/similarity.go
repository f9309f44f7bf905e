package simstruct

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mdp"
	"repro/internal/obs"
)

// Config parameterises Algorithm 1.
type Config struct {
	// CS and CA are the discount factors of Equation (4), both in (0, 1].
	// The competitiveness proof uses CS = 1 and CA = rho.
	CS float64
	CA float64
	// Eps is the convergence tolerance on the similarity matrices.
	Eps float64
	// MaxIter bounds the number of recursion sweeps.
	MaxIter int
	// AbsorbingDist is d_{u,v} of Equation (3): the configured distance
	// between two absorbing states. Nil means identically zero (all
	// target states identified).
	AbsorbingDist func(u, v mdp.State) float64
	// EMDLatency, when non-nil, receives one observation per EMD
	// transportation solve, in seconds. Leaving it nil keeps the inner
	// loop free of clock reads.
	EMDLatency *obs.Histogram
}

// DefaultConfig mirrors the paper's bound-preserving setting for discount
// factor rho.
func DefaultConfig(rho float64) Config {
	return Config{CS: 1, CA: rho, Eps: 1e-4, MaxIter: 50}
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	switch {
	case c.CS <= 0 || c.CS > 1:
		return fmt.Errorf("simstruct: C_S %v outside (0,1]", c.CS)
	case c.CA <= 0 || c.CA >= 1:
		return fmt.Errorf("simstruct: C_A %v outside (0,1)", c.CA)
	case c.Eps <= 0:
		return fmt.Errorf("simstruct: eps %v", c.Eps)
	case c.MaxIter <= 0:
		return fmt.Errorf("simstruct: max iterations %d", c.MaxIter)
	}
	return nil
}

// Result holds the fixed point (sigma_S*, sigma_A*) of the recursion.
type Result struct {
	// A is the action-similarity matrix over the graph's action node
	// indices.
	A *Matrix
	// Iterations is the number of sweeps until convergence.
	Iterations int
	// CA is the action discount used (needed for the value bound).
	CA float64
	// EMDSolves and EMDSkips count the transportation problems solved
	// versus reused from the dirty-pair cache across all sweeps. Both are
	// deterministic for a given graph and config.
	EMDSolves int
	EMDSkips  int

	// s is sigma_S* over the live (non-absorbing) states only; live maps
	// graph states onto it and answers every other entry by rule.
	s    *Matrix
	live liveStates
}

// liveStates maps a graph's states onto the compact indices of the live
// sub-graph, the non-absorbing states the recursion actually evolves.
// Every other state-pair similarity is an Equation (3) base case: 1 on the
// diagonal, 0 between an absorbing and a live state, and 1 - d_{u,v}
// between two absorbing states.
type liveStates struct {
	index         []int32 // state -> compact index; -1 for absorbing states
	absorbingDist func(u, v mdp.State) float64
}

// pair returns the compact indices of states u and v, and whether both are
// live.
func (l *liveStates) pair(u, v int) (a, b int, ok bool) {
	a, b = int(l.index[u]), int(l.index[v])
	return a, b, a >= 0 && b >= 0
}

// similarity returns sigma_S(u, v) for graph states u and v: the live
// sub-graph entry of s when both are live (its diagonal is 1), the base
// case otherwise.
func (l *liveStates) similarity(s *Matrix, u, v int) float64 {
	a, b, ok := l.pair(u, v)
	switch {
	case ok:
		return s.At(a, b)
	case u == v:
		return 1
	case a >= 0 || b >= 0:
		return 0
	}
	if u > v {
		u, v = v, u
	}
	d := 0.0
	if l.absorbingDist != nil {
		d = clamp01(l.absorbingDist(mdp.State(u), mdp.State(v)))
	}
	return 1 - d
}

// Computation errors.
var ErrNoConverge = errors.New("simstruct: similarity recursion did not converge")

// StateSimilarity returns sigma_S*(u, v) in [0, 1].
func (r *Result) StateSimilarity(u, v mdp.State) float64 {
	return r.live.similarity(r.s, int(u), int(v))
}

// StateDistance returns delta_S*(u, v) = 1 - sigma_S*(u, v).
func (r *Result) StateDistance(u, v mdp.State) float64 {
	return clamp01(1 - r.StateSimilarity(u, v))
}

// ActionDistance returns delta_A*(i, j) over action node indices.
func (r *Result) ActionDistance(i, j int) float64 {
	return clamp01(1 - r.A.At(i, j))
}

// ValueBound returns the paper's competitiveness bound on the optimal value
// gap: |V*_u - V*_v| <= delta_S*(u,v) / (1 - rho).
func (r *Result) ValueBound(u, v mdp.State, rho float64) float64 {
	if rho <= 0 || rho >= 1 {
		return math.Inf(1)
	}
	return r.StateDistance(u, v) / (1 - rho)
}

// Clusters groups states whose pairwise distance is at most tau using
// greedy leader clustering in state order. It returns, for each state, the
// id (leader state) of its cluster — the index CAPMAN uses to share cached
// decisions between structurally similar states.
func (r *Result) Clusters(tau float64) []int {
	n := len(r.live.index)
	cluster := make([]int, n)
	var leaders []int
	for u := 0; u < n; u++ {
		assigned := false
		for _, l := range leaders {
			// Similarities lie in [0,1], so 1-sim is already the
			// clamped distance.
			if 1-r.live.similarity(r.s, u, l) <= tau {
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

func clamp01(x float64) float64 {
	switch {
	case x < 0:
		return 0
	case x > 1:
		return 1
	default:
		return x
	}
}
