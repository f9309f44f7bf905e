package mdp

import "fmt"

// Graph is the bipartite MDP graph G_M = {V, Λ, E, Ψ, p, r} of Section
// III-B: state nodes connect through action nodes; decision edges (E, state
// to action) are unweighted, transition edges (Ψ, action to state) carry a
// probability and a reward. Following the paper, action nodes are generated
// only for decisions that change the battery state; same-battery dynamics
// stay internal.
type Graph struct {
	// NumStates is the number of state nodes (V).
	NumStates int
	// Actions are the action nodes (Λ).
	Actions []ActionNode
	// outActions[s] lists indices into Actions for state s's decisions.
	outActions [][]int
}

// ActionNode is one node of Λ: a (state, control) decision with its outcome
// distribution.
type ActionNode struct {
	From    State
	Control Control
	// Out is the transition-edge fan-out, sorted by Next for determinism.
	// It is the model's own slice (Model.SetTransitions keeps it sorted)
	// and must not be modified.
	Out []Transition
	// MeanReward is the probability-weighted reward of the fan-out.
	MeanReward float64
}

// BuildGraph converts a model into its bipartite graph. When onlySwitch is
// true, only decisions whose control differs from the state's current
// battery component become action nodes (the paper's construction);
// batteryOf must then map a state to its battery control. With onlySwitch
// false every (state, control) pair with outcomes becomes an action node.
func BuildGraph(m *Model, onlySwitch bool, batteryOf func(State) Control) (*Graph, error) {
	if m == nil {
		return nil, fmt.Errorf("mdp: nil model")
	}
	if onlySwitch && batteryOf == nil {
		return nil, fmt.Errorf("mdp: onlySwitch graph requires batteryOf")
	}
	g := &Graph{
		NumStates:  m.NumStates(),
		outActions: make([][]int, m.NumStates()),
	}
	for s := 0; s < m.NumStates(); s++ {
		for c := Control(0); c < NumControls; c++ {
			ts := m.Transitions(State(s), c)
			if len(ts) == 0 {
				continue
			}
			if onlySwitch && batteryOf(State(s)) == c {
				continue
			}
			var mean float64
			for _, t := range ts {
				mean += t.P * t.R
			}
			idx := len(g.Actions)
			g.Actions = append(g.Actions, ActionNode{
				From:       State(s),
				Control:    c,
				Out:        ts,
				MeanReward: mean,
			})
			g.outActions[s] = append(g.outActions[s], idx)
		}
	}
	return g, nil
}

// StateBatteryOf is the standard batteryOf for the combinatorial state
// space: it decodes the battery component of the state vector.
func StateBatteryOf(s State) Control {
	v, err := Decode(s)
	if err != nil {
		return UseBig
	}
	return ControlFor(v.Battery)
}

// Action returns action node i by value. The contained Out slice is shared
// with the graph and must not be modified. i must be in [0, NumActions).
func (g *Graph) Action(i int) ActionNode { return g.Actions[i] }

// OutDegree returns the decision fan-out of state s (0 for out-of-range or
// absorbing states).
func (g *Graph) OutDegree(s State) int { return len(g.OutActions(s)) }

// NumTransitions returns |Ψ|, the total transition-edge count across all
// action nodes — the backing-array size the similarity engine preallocates
// when it hoists per-action distributions.
func (g *Graph) NumTransitions() int {
	var t int
	for _, a := range g.Actions {
		t += len(a.Out)
	}
	return t
}

// OutActions returns the indices of state s's action nodes.
func (g *Graph) OutActions(s State) []int {
	if s < 0 || int(s) >= len(g.outActions) {
		return nil
	}
	return g.outActions[s]
}

// Absorbing reports whether state s has no outgoing action nodes, the
// paper's definition of a target state.
func (g *Graph) Absorbing(s State) bool { return len(g.OutActions(s)) == 0 }

// NumActions returns |Λ|.
func (g *Graph) NumActions() int { return len(g.Actions) }

// MaxActionOutDegree returns K_max, the largest transition fan-out of any
// action node (used by the complexity analysis of Section III-D).
func (g *Graph) MaxActionOutDegree() int {
	var k int
	for _, a := range g.Actions {
		if len(a.Out) > k {
			k = len(a.Out)
		}
	}
	return k
}

// MaxStateOutDegree returns L_max, the largest decision fan-out of any
// state node.
func (g *Graph) MaxStateOutDegree() int {
	var l int
	for _, out := range g.outActions {
		if len(out) > l {
			l = len(out)
		}
	}
	return l
}
