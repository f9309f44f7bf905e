package mdp

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/workload"
)

// Estimator accumulates empirical transition and reward statistics from the
// running system — the "Profile and Monitor" layer of the implementation
// section — and materialises them into a Model on demand.
type Estimator struct {
	numStates int

	// rows[s*NumControls+c] holds the outcomes observed after control c
	// in state s, sorted by successor. A workload reaches only a few
	// successors per pair, so a short sorted slice, scanned linearly,
	// beats a map both to update and to walk.
	rows [][]outcome

	// events[s] counts observed action symbols in state s, sorted by
	// action: the paper's "system call vector" statistics.
	events [][]EventCount

	// stateObs[s] counts transitions observed out of state s.
	stateObs []int

	observations int
}

// outcome is one successor's statistics within a (state, control) row:
// how often it followed and the rewards summed over those steps.
type outcome struct {
	next   State
	count  float64
	reward float64
}

// NewEstimator builds an estimator over n states.
func NewEstimator(n int) (*Estimator, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mdp: non-positive state count %d", n)
	}
	return &Estimator{
		numStates: n,
		rows:      make([][]outcome, n*NumControls),
		events:    make([][]EventCount, n),
		stateObs:  make([]int, n),
	}, nil
}

// StateObservations returns how many transitions were observed out of s.
func (e *Estimator) StateObservations(s State) int {
	if s < 0 || int(s) >= e.numStates {
		return 0
	}
	return e.stateObs[s]
}

// Observations returns how many transitions have been recorded.
func (e *Estimator) Observations() int { return e.observations }

// Observe records one transition: in state s the scheduler applied control
// c, the system moved to next, and the step produced reward r in [0, 1].
func (e *Estimator) Observe(s State, c Control, next State, r float64) error {
	if s < 0 || int(s) >= e.numStates || next < 0 || int(next) >= e.numStates {
		return fmt.Errorf("mdp: observation states %d -> %d out of range", s, next)
	}
	if c != UseBig && c != UseLittle {
		return fmt.Errorf("mdp: invalid control %d", c)
	}
	if r < 0 {
		r = 0
	}
	if r > 1 {
		r = 1
	}
	o := e.outcome(int(s)*NumControls+int(c), next)
	o.count++
	o.reward += r
	e.stateObs[s]++
	e.observations++
	return nil
}

// outcome returns row idx's entry for next, inserting a zero entry in
// sorted position on first sight.
func (e *Estimator) outcome(idx int, next State) *outcome {
	row := e.rows[idx]
	i := 0
	for i < len(row) && row[i].next < next {
		i++
	}
	if i == len(row) || row[i].next != next {
		row = slices.Insert(row, i, outcome{next: next})
		e.rows[idx] = row
	}
	return &row[i]
}

// event returns state s's counter for action a, inserting a zero counter
// in sorted position on first sight.
func (e *Estimator) event(s State, a workload.Action) *EventCount {
	evs := e.events[s]
	i := 0
	for i < len(evs) && evs[i].Action < a {
		i++
	}
	if i == len(evs) || evs[i].Action != a {
		evs = slices.Insert(evs, i, EventCount{Action: a})
		e.events[s] = evs
	}
	return &evs[i]
}

// ObserveEvent records an action symbol seen while in state s.
func (e *Estimator) ObserveEvent(s State, a workload.Action) error {
	if s < 0 || int(s) >= e.numStates {
		return fmt.Errorf("mdp: event state %d out of range", s)
	}
	e.event(s, a).Count++
	return nil
}

// EventCount is one (action, occurrences) pair.
type EventCount struct {
	Action workload.Action
	Count  float64
}

// TopEvents returns up to n action symbols most frequently observed in
// state s, in descending count order — the "system call vector" statistics
// the paper's profiling layer records per state.
func (e *Estimator) TopEvents(s State, n int) []EventCount {
	if s < 0 || int(s) >= e.numStates || n <= 0 {
		return nil
	}
	out := slices.Clone(e.events[s])
	sort.SliceStable(out, func(i, j int) bool { return out[i].Count > out[j].Count })
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// EventRate returns the empirical probability of seeing action a in state
// s, with Laplace smoothing over the vocabulary.
func (e *Estimator) EventRate(s State, a workload.Action) float64 {
	if s < 0 || int(s) >= e.numStates {
		return 0
	}
	var total, seen float64
	for _, ev := range e.events[s] {
		total += ev.Count
		if ev.Action == a {
			seen = ev.Count
		}
	}
	return (seen + 1) / (total + float64(workload.NumActions))
}

// Model materialises the current statistics into an MDP. smoothing is a
// Laplace pseudo-count spread over a self-loop with neutral reward. Only
// visited (state, control) pairs receive transitions: unvisited pairs stay
// absorbing, keeping the MDP graph (and the similarity recursion over it)
// proportional to the states the workload actually exercises.
func (e *Estimator) Model(smoothing float64) (*Model, error) {
	return e.ModelInto(nil, smoothing)
}

// ModelInto is Model materialising into m's storage, which it reuses when
// m is non-nil and sized for this estimator: a scheduler that refreshes
// its model every minute builds each one into the buffers of the last but
// one. The result is bit-identical either way. On error m's contents are
// unspecified.
func (e *Estimator) ModelInto(m *Model, smoothing float64) (*Model, error) {
	if smoothing < 0 {
		return nil, fmt.Errorf("mdp: negative smoothing %v", smoothing)
	}
	if m == nil || m.numStates != e.numStates {
		var err error
		if m, err = NewModel(e.numStates); err != nil {
			return nil, err
		}
	}
	for s := 0; s < e.numStates; s++ {
		for c := Control(0); c < NumControls; c++ {
			idx := s*NumControls + int(c)
			row := e.rows[idx]
			var total float64
			for _, o := range row {
				total += o.count
			}
			ts := m.trans[idx][:0]
			if total == 0 {
				m.trans[idx] = ts // absorbing under this control
				continue
			}
			denom := total + smoothing
			for _, o := range row {
				ts = append(ts, Transition{
					Next: o.next,
					P:    o.count / denom,
					R:    o.reward / o.count,
				})
			}
			if smoothing > 0 {
				// Self-loop pseudo-transition with mid reward.
				ts = mergeSelfLoop(ts, State(s), smoothing/denom, 0.5)
			}
			if err := m.setTransitions(State(s), c, ts); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

// mergeSelfLoop adds probability mass p on a self-loop with reward r,
// merging with an existing self-loop entry if present.
func mergeSelfLoop(ts []Transition, s State, p, r float64) []Transition {
	for i := range ts {
		if ts[i].Next == s {
			// Reward blends proportionally to mass.
			tot := ts[i].P + p
			ts[i].R = (ts[i].R*ts[i].P + r*p) / tot
			ts[i].P = tot
			return ts
		}
	}
	return append(ts, Transition{Next: s, P: p, R: r})
}
