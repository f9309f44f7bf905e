package mdp

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Transition is one outcome of taking a control in a state.
type Transition struct {
	Next State
	P    float64 // probability, sums to 1 over the (state, control) pair
	R    float64 // expected reward in [0, 1]
}

// Model is a finite MDP over the encoded state space with the two battery
// controls. Transitions are stored sparsely.
type Model struct {
	numStates int
	trans     [][]Transition // indexed by state*NumControls+control
}

// NewModel builds an empty model over n states.
func NewModel(n int) (*Model, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mdp: non-positive state count %d", n)
	}
	return &Model{
		numStates: n,
		trans:     make([][]Transition, n*NumControls),
	}, nil
}

// NumStates returns the state-space size.
func (m *Model) NumStates() int { return m.numStates }

// SetTransitions installs a copy of the outcome distribution for (s, c),
// sorted by Next (stably, so equal targets keep their order). The
// probabilities must sum to 1 within tolerance and rewards must lie in
// [0, 1]. The fixed order makes every sum over a distribution, QValue's
// among them, independent of the order the caller built it in.
func (m *Model) SetTransitions(s State, c Control, ts []Transition) error {
	return m.setTransitions(s, c, append([]Transition(nil), ts...))
}

// setTransitions validates ts, sorts it in place by Next and installs it
// as (s, c)'s row without copying.
func (m *Model) setTransitions(s State, c Control, ts []Transition) error {
	if err := m.check(s, c); err != nil {
		return err
	}
	var sum float64
	for _, t := range ts {
		if t.Next < 0 || int(t.Next) >= m.numStates {
			return fmt.Errorf("mdp: transition target %d out of range", t.Next)
		}
		if t.P < 0 {
			return fmt.Errorf("mdp: negative probability %v", t.P)
		}
		if t.R < -1e-9 || t.R > 1+1e-9 {
			return fmt.Errorf("mdp: reward %v outside [0,1]", t.R)
		}
		sum += t.P
	}
	if len(ts) > 0 && math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("mdp: probabilities for (%d,%v) sum to %v", s, c, sum)
	}
	slices.SortStableFunc(ts, func(a, b Transition) int { return cmp.Compare(a.Next, b.Next) })
	m.trans[int(s)*NumControls+int(c)] = ts
	return nil
}

// Transitions returns the outcome distribution for (s, c), sorted by Next;
// the slice is shared and must not be modified.
func (m *Model) Transitions(s State, c Control) []Transition {
	if s < 0 || int(s) >= m.numStates {
		return nil
	}
	return m.trans[int(s)*NumControls+int(c)]
}

func (m *Model) check(s State, c Control) error {
	if s < 0 || int(s) >= m.numStates {
		return fmt.Errorf("mdp: state %d out of range [0,%d)", s, m.numStates)
	}
	if c != UseBig && c != UseLittle {
		return fmt.Errorf("mdp: invalid control %d", c)
	}
	return nil
}

// Solution is the result of value iteration.
type Solution struct {
	V          []float64
	Policy     []Control
	Iterations int
	Residual   float64

	// next and live are ValueIterationInto's scratch, kept for reuse.
	next []float64
	live []State
}

// Value-iteration errors.
var (
	ErrBadDiscount = errors.New("mdp: discount factor must be in (0,1)")
	ErrNoConverge  = errors.New("mdp: value iteration did not converge")
)

// QValue evaluates the action value of (s, c) under the value function v:
// Q(s,c) = sum_s' p (r + rho * v[s']). States with no recorded outcomes
// return 0 (absorbing).
func (m *Model) QValue(s State, c Control, v []float64, rho float64) float64 {
	var q float64
	for _, t := range m.Transitions(s, c) {
		q += t.P * (t.R + rho*v[t.Next])
	}
	return q
}

// ValueIteration solves the MDP to precision eps with discount rho using
// at most maxIter sweeps. It implements the Bellman optimality recursion of
// Equations (8)-(9). Sweeps visit only states with transitions: every other
// state is absorbing, keeps V = 0 and policy UseBig, and never moves the
// residual, so skipping it changes no output bit.
func (m *Model) ValueIteration(rho, eps float64, maxIter int) (*Solution, error) {
	return m.ValueIterationInto(nil, rho, eps, maxIter)
}

// ValueIterationInto is ValueIteration solving into sol's storage, which
// it reuses when sol is non-nil and sized for this model; the result is
// bit-identical either way. On error sol's contents are unspecified.
func (m *Model) ValueIterationInto(sol *Solution, rho, eps float64, maxIter int) (*Solution, error) {
	if rho <= 0 || rho >= 1 {
		return nil, fmt.Errorf("%w: %v", ErrBadDiscount, rho)
	}
	if eps <= 0 {
		eps = 1e-6
	}
	if maxIter <= 0 {
		maxIter = 10000
	}
	if sol == nil || len(sol.V) != m.numStates {
		sol = &Solution{
			V:      make([]float64, m.numStates),
			Policy: make([]Control, m.numStates),
			next:   make([]float64, m.numStates),
		}
	} else {
		clear(sol.V)
		clear(sol.next)
		clear(sol.Policy)
	}
	live := sol.live[:0]
	for s := 0; s < m.numStates; s++ {
		for c := Control(0); c < NumControls; c++ {
			if len(m.Transitions(State(s), c)) > 0 {
				live = append(live, State(s))
				break
			}
		}
	}
	sol.live = live
	v, next, policy := sol.V, sol.next, sol.Policy
	var residual float64
	for iter := 1; iter <= maxIter; iter++ {
		residual = 0
		for _, s := range live {
			best, bestC := math.Inf(-1), UseBig
			for c := Control(0); c < NumControls; c++ {
				if len(m.Transitions(s, c)) == 0 {
					continue
				}
				if q := m.QValue(s, c, v, rho); q > best {
					best, bestC = q, c
				}
			}
			next[s] = best
			policy[s] = bestC
			if d := math.Abs(next[s] - v[s]); d > residual {
				residual = d
			}
		}
		v, next = next, v
		if residual < eps {
			sol.V, sol.next = v, next
			sol.Iterations, sol.Residual = iter, residual
			return sol, nil
		}
	}
	return nil, fmt.Errorf("%w: residual %v after %d sweeps", ErrNoConverge, residual, maxIter)
}

// BellmanResidual returns the sup-norm of one Bellman backup applied to v,
// a correctness probe used by tests.
func (m *Model) BellmanResidual(v []float64, rho float64) float64 {
	var worst float64
	for s := 0; s < m.numStates; s++ {
		best := math.Inf(-1)
		hasAny := false
		for c := Control(0); c < NumControls; c++ {
			if len(m.Transitions(State(s), c)) == 0 {
				continue
			}
			hasAny = true
			if q := m.QValue(State(s), c, v, rho); q > best {
				best = q
			}
		}
		if !hasAny {
			best = 0
		}
		if d := math.Abs(best - v[s]); d > worst {
			worst = d
		}
	}
	return worst
}
