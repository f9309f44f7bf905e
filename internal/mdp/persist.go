package mdp

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/workload"
)

// Persistence for the empirical estimator. The paper builds CAPMAN "within
// the OS ROM"; a real deployment keeps its learned statistics across
// reboots, so the estimator serialises to JSON.

// snapshotVersion guards the on-disk format.
const snapshotVersion = 1

// estimatorSnapshot is the serialised form.
type estimatorSnapshot struct {
	Version   int             `json:"version"`
	NumStates int             `json:"numStates"`
	Entries   []snapshotEntry `json:"entries"`
	Events    []snapshotEvent `json:"events,omitempty"`
}

// snapshotEntry is one (state, control, next) cell.
type snapshotEntry struct {
	State   int     `json:"s"`
	Control int     `json:"c"`
	Next    int     `json:"n"`
	Count   float64 `json:"k"`
	Reward  float64 `json:"r"` // accumulated reward sum
}

// snapshotEvent is one (state, action) count.
type snapshotEvent struct {
	State  int     `json:"s"`
	Action int     `json:"a"`
	Count  float64 `json:"k"`
}

// Save serialises the estimator's statistics.
func (e *Estimator) Save(w io.Writer) error {
	snap := estimatorSnapshot{Version: snapshotVersion, NumStates: e.numStates}
	for s := 0; s < e.numStates; s++ {
		for c := Control(0); c < NumControls; c++ {
			for _, o := range e.rows[s*NumControls+int(c)] {
				snap.Entries = append(snap.Entries, snapshotEntry{
					State:   s,
					Control: int(c),
					Next:    int(o.next),
					Count:   o.count,
					Reward:  o.reward,
				})
			}
		}
		for _, ev := range e.events[s] {
			snap.Events = append(snap.Events, snapshotEvent{
				State: s, Action: int(ev.Action), Count: ev.Count,
			})
		}
	}
	if err := json.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("encode estimator: %w", err)
	}
	return nil
}

// Load errors.
var (
	ErrBadSnapshot = errors.New("mdp: invalid estimator snapshot")
)

// LoadEstimator rebuilds an estimator from a Save stream.
func LoadEstimator(r io.Reader) (*Estimator, error) {
	var snap estimatorSnapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decode estimator: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("%w: version %d", ErrBadSnapshot, snap.Version)
	}
	if snap.NumStates <= 0 {
		return nil, fmt.Errorf("%w: %d states", ErrBadSnapshot, snap.NumStates)
	}
	e, err := NewEstimator(snap.NumStates)
	if err != nil {
		return nil, err
	}
	for _, entry := range snap.Entries {
		switch {
		case entry.State < 0 || entry.State >= snap.NumStates:
			return nil, fmt.Errorf("%w: state %d", ErrBadSnapshot, entry.State)
		case entry.Next < 0 || entry.Next >= snap.NumStates:
			return nil, fmt.Errorf("%w: next %d", ErrBadSnapshot, entry.Next)
		case entry.Control < 0 || entry.Control >= NumControls:
			return nil, fmt.Errorf("%w: control %d", ErrBadSnapshot, entry.Control)
		case entry.Count <= 0:
			return nil, fmt.Errorf("%w: count %v", ErrBadSnapshot, entry.Count)
		case entry.Reward < 0 || entry.Reward > entry.Count:
			return nil, fmt.Errorf("%w: reward sum %v over count %v", ErrBadSnapshot, entry.Reward, entry.Count)
		}
		o := e.outcome(entry.State*NumControls+entry.Control, State(entry.Next))
		o.count, o.reward = entry.Count, entry.Reward
		e.stateObs[entry.State] += int(entry.Count)
		e.observations += int(entry.Count)
	}
	for _, ev := range snap.Events {
		if ev.State < 0 || ev.State >= snap.NumStates || ev.Count <= 0 {
			return nil, fmt.Errorf("%w: event at state %d count %v", ErrBadSnapshot, ev.State, ev.Count)
		}
		e.event(State(ev.State), workload.Action(ev.Action)).Count = ev.Count
	}
	return e, nil
}
