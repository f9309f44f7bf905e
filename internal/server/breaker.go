package server

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs/metrics"
)

// ErrBreakerOpen rejects submissions for a registry entry whose recent
// jobs kept failing; mapped to HTTP 503 so clients back off.
var ErrBreakerOpen = errors.New("server: circuit breaker open")

// Every registry entry's breaker opens after breakerThreshold consecutive
// failures and, once open, refuses its entry for breakerCooldown before
// letting one probe job through.
const (
	breakerThreshold = 5
	breakerCooldown  = 30 * time.Second
)

// breakerState is the classic three-state lifecycle.
type breakerState int

const (
	breakerClosed   breakerState = iota // healthy, everything admitted
	breakerOpen                         // shedding load until cooldown passes
	breakerHalfOpen                     // one probe in flight decides
)

// level is the state's capmand_breaker_state value: 0 closed, 1
// half-open, 2 open.
func (s breakerState) level() int64 {
	switch s {
	case breakerOpen:
		return 2
	case breakerHalfOpen:
		return 1
	default:
		return 0
	}
}

// breaker guards one registry entry (a workload/policy pair).
type breaker struct {
	state    breakerState
	failures int       // consecutive failures while closed
	openedAt time.Time // when the breaker last opened
	probing  bool      // a half-open probe is in flight
}

// breakerSet owns every per-entry breaker. It is its own lock domain so
// the executor's job lock is never held across breaker decisions.
type breakerSet struct {
	mu       sync.Mutex
	breakers map[string]*breaker
	now      func() time.Time // test seam

	// gauge, when set (the executor installs its panel's), carries each
	// breaker's state from its first Record on, updated at every
	// transition.
	gauge *metrics.GaugeVec
}

func newBreakerSet() *breakerSet {
	return &breakerSet{
		breakers: make(map[string]*breaker),
		now:      time.Now,
	}
}

// Admit decides whether a submission for the entry may proceed. An open
// breaker whose cooldown has elapsed admits exactly one probe (half-open);
// everything else waits for that probe's verdict.
func (s *breakerSet) Admit(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.breakers[key]
	if !ok {
		return nil
	}
	switch b.state {
	case breakerClosed:
		return nil
	case breakerOpen:
		if s.now().Sub(b.openedAt) < breakerCooldown {
			return fmt.Errorf("%w for %q (retry after %s)", ErrBreakerOpen, key, breakerCooldown)
		}
		s.setState(key, b, breakerHalfOpen)
		b.probing = true
		return nil
	default: // half-open
		if b.probing {
			return fmt.Errorf("%w for %q (probe in flight)", ErrBreakerOpen, key)
		}
		b.probing = true
		return nil
	}
}

// Record feeds one terminal job outcome back into the entry's breaker and
// reports whether the breaker just tripped open.
func (s *breakerSet) Record(key string, failed bool) (tripped bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.breakers[key]
	if b == nil {
		b = &breaker{}
		s.breakers[key] = b
		s.setState(key, b, breakerClosed)
	}
	switch {
	case b.state == breakerHalfOpen:
		b.probing = false
		if failed {
			s.setState(key, b, breakerOpen)
			b.openedAt = s.now()
			return true
		}
		s.setState(key, b, breakerClosed)
		b.failures = 0
	case failed:
		b.failures++
		if b.state == breakerClosed && b.failures >= breakerThreshold {
			s.setState(key, b, breakerOpen)
			b.openedAt = s.now()
			return true
		}
	default:
		b.failures = 0
	}
	return false
}

// setState moves b to st and publishes it. Callers hold s.mu.
func (s *breakerSet) setState(key string, b *breaker, st breakerState) {
	b.state = st
	if s.gauge != nil {
		s.gauge.WithLabelValues(key).Set(st.level())
	}
}
