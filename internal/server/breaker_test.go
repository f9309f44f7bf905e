package server

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs/metrics"
)

// fakeClock drives the breaker's now seam.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// newClockedSet builds a breaker set on a fake clock that publishes its
// states to a fresh panel's capmand_breaker_state gauge, as the
// executor's set does; the panel's registry is returned for reading them.
func newClockedSet() (*breakerSet, *fakeClock, *metrics.Registry) {
	s := newBreakerSet()
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	s.now = clk.now
	m := NewMetrics()
	s.gauge = m.BreakerState
	return s, clk, m.Registry()
}

// trip records breakerThreshold consecutive failures for key, the last
// of which opens its breaker.
func trip(t *testing.T, s *breakerSet, key string) {
	t.Helper()
	for i := 1; i < breakerThreshold; i++ {
		if s.Record(key, true) {
			t.Fatalf("breaker tripped after %d failures, threshold %d", i, breakerThreshold)
		}
	}
	if !s.Record(key, true) {
		t.Fatalf("breaker did not trip after %d failures", breakerThreshold)
	}
}

// capmand_breaker_state values: 0 closed, 1 half-open, 2 open.
const (
	gaugeClosed   = 0
	gaugeHalfOpen = 1
	gaugeOpen     = 2
)

// gaugeStates reads every breaker's state the way production exposes
// it: the stored capmand_breaker_state{entry} gauge, by entry.
func gaugeStates(reg *metrics.Registry) map[string]float64 {
	return byLabel(reg, "capmand_breaker_state", "entry")
}

// byLabel sums one stored family's series by the value of one label.
func byLabel(reg *metrics.Registry, name, label string) map[string]float64 {
	v := labelSums{name: name, label: label, out: map[string]float64{}}
	reg.VisitStored(&v)
	return v.out
}

type labelSums struct {
	name, label string
	out         map[string]float64
}

func (v *labelSums) VisitStored(s metrics.StoredSample) {
	for i, l := range s.Labels {
		if s.Name == v.name && l == v.label {
			v.out[s.Values[i]] += s.Value
		}
	}
}

func TestBreakerLifecycle(t *testing.T) {
	s, clk, reg := newClockedSet()
	const key = "video/dual"

	// Closed: everything admitted, failures below threshold don't trip.
	for i := 1; i < breakerThreshold; i++ {
		if err := s.Admit(key); err != nil {
			t.Fatalf("closed Admit #%d: %v", i, err)
		}
		if s.Record(key, true) {
			t.Fatalf("breaker tripped after %d failures, threshold %d", i, breakerThreshold)
		}
	}
	// A success resets the consecutive-failure count.
	s.Record(key, false)
	trip(t, s, key)
	states := gaugeStates(reg)
	if got := states[key]; got != gaugeOpen {
		t.Fatalf("state %v after trip, want open (%d)", got, gaugeOpen)
	}
	open := 0
	for _, st := range states {
		if st == gaugeOpen {
			open++
		}
	}
	if open != 1 {
		t.Fatalf("%d breakers open, want 1", open)
	}

	// Open: submissions shed until the cooldown elapses.
	if err := s.Admit(key); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open Admit error %v, want ErrBreakerOpen", err)
	}
	clk.advance(breakerCooldown + time.Second)

	// Half-open: exactly one probe through; a second waits on its verdict.
	if err := s.Admit(key); err != nil {
		t.Fatalf("probe Admit: %v", err)
	}
	if err := s.Admit(key); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("second probe Admit error %v, want ErrBreakerOpen", err)
	}
	if got := gaugeStates(reg)[key]; got != gaugeHalfOpen {
		t.Fatalf("state %v during probe, want half-open (%d)", got, gaugeHalfOpen)
	}

	// A failed probe reopens immediately.
	if !s.Record(key, true) {
		t.Fatal("failed probe did not reopen the breaker")
	}
	clk.advance(breakerCooldown + time.Second)
	if err := s.Admit(key); err != nil {
		t.Fatalf("second probe Admit: %v", err)
	}
	// A successful probe closes the breaker for good.
	if s.Record(key, false) {
		t.Fatal("successful probe reported a trip")
	}
	if got := gaugeStates(reg)[key]; got != gaugeClosed {
		t.Fatalf("state %v after successful probe, want closed (%d)", got, gaugeClosed)
	}
	if err := s.Admit(key); err != nil {
		t.Fatalf("post-recovery Admit: %v", err)
	}
}

// TestBreakerStateInJobDeltas: a breaker that a job's failure trips
// shows in the metric deltas measured from the job's baseline, as
// capmand_breaker_state moving from closed (0) to open (2).
func TestBreakerStateInJobDeltas(t *testing.T) {
	m := NewMetrics()
	s := newBreakerSet()
	s.gauge = m.BreakerState
	const key = "video/dual"
	for i := 1; i < breakerThreshold; i++ {
		s.Record(key, true)
	}
	var base metrics.Baseline
	base.Take(m.Registry())
	if !s.Record(key, true) {
		t.Fatal("breaker did not trip")
	}
	for _, d := range base.Delta() {
		if d.Name == "capmand_breaker_state" && d.Labels["entry"] == key {
			if d.Before != 0 || d.After != 2 {
				t.Errorf("breaker state delta %v -> %v, want 0 -> 2", d.Before, d.After)
			}
			return
		}
	}
	t.Errorf("capmand_breaker_state{entry=%q} missing from deltas %v", key, base.Delta())
}

// admitConcurrently fires n simultaneous Admit calls and returns how many
// were admitted. A start barrier maximizes the actual interleaving so the
// race detector gets real contention to look at.
func admitConcurrently(t *testing.T, s *breakerSet, key string, n int) int {
	t.Helper()
	var (
		start    = make(chan struct{})
		wg       sync.WaitGroup
		admitted atomic.Int64
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			err := s.Admit(key)
			switch {
			case err == nil:
				admitted.Add(1)
			case !errors.Is(err, ErrBreakerOpen):
				t.Errorf("concurrent Admit: unexpected error %v", err)
			}
		}()
	}
	close(start)
	wg.Wait()
	return int(admitted.Load())
}

// TestBreakerHalfOpenConcurrentProbes nails down the half-open contract
// under contention: when the cooldown elapses and a stampede of submissions
// arrives at once, exactly one wins the probe slot, and the probe's verdict
// — not the stampede — decides whether the entry closes or reopens.
func TestBreakerHalfOpenConcurrentProbes(t *testing.T) {
	const (
		key      = "video/dual"
		stampede = 32
	)

	t.Run("successful probe closes", func(t *testing.T) {
		s, clk, reg := newClockedSet()
		trip(t, s, key)
		clk.advance(breakerCooldown + time.Second)

		if got := admitConcurrently(t, s, key, stampede); got != 1 {
			t.Fatalf("%d of %d concurrent submissions admitted as probes, want exactly 1", got, stampede)
		}
		if got := gaugeStates(reg)[key]; got != gaugeHalfOpen {
			t.Fatalf("state %v after probe grant, want half-open (%d)", got, gaugeHalfOpen)
		}
		if s.Record(key, false) {
			t.Fatal("successful probe reported a trip")
		}
		if got := gaugeStates(reg)[key]; got != gaugeClosed {
			t.Fatalf("state %v after successful probe, want closed (%d)", got, gaugeClosed)
		}
		// Closed again: the next stampede is admitted wholesale.
		if got := admitConcurrently(t, s, key, stampede); got != stampede {
			t.Fatalf("%d of %d admitted after recovery, want all", got, stampede)
		}
	})

	t.Run("failed probe reopens", func(t *testing.T) {
		s, clk, reg := newClockedSet()
		trip(t, s, key)
		clk.advance(breakerCooldown + time.Second)

		if got := admitConcurrently(t, s, key, stampede); got != 1 {
			t.Fatalf("%d probes admitted, want exactly 1", got)
		}
		if !s.Record(key, true) {
			t.Fatal("failed probe did not reopen the breaker")
		}
		if got := gaugeStates(reg)[key]; got != gaugeOpen {
			t.Fatalf("state %v after failed probe, want open (%d)", got, gaugeOpen)
		}
		// Reopened with a fresh cooldown: everyone sheds again.
		if got := admitConcurrently(t, s, key, stampede); got != 0 {
			t.Fatalf("%d admitted while reopened, want 0", got)
		}
		// And the next cooldown grants exactly one new probe slot.
		clk.advance(breakerCooldown + time.Second)
		if got := admitConcurrently(t, s, key, stampede); got != 1 {
			t.Fatalf("%d probes after second cooldown, want exactly 1", got)
		}
	})
}

func TestBreakerSeparatesEntries(t *testing.T) {
	s, _, _ := newClockedSet()
	trip(t, s, "video/dual")
	if err := s.Admit("video/dual"); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("tripped entry Admit error %v, want ErrBreakerOpen", err)
	}
	if err := s.Admit("video/capman"); err != nil {
		t.Fatalf("healthy entry rejected: %v", err)
	}
}
