package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Tail-based sampling: the keep/drop decision for a trace is made when
// the request finishes, not when it starts, so the store can afford to
// keep every interesting trace (sheds, errors, SLO breaches, fatal
// invariant violations) and thin only the healthy ones.
// The healthy-path decision is a pure hash of the trace ID and the
// store's seed — deterministic across runs and across replicas sharing a
// seed, and computed without locks or allocation so the "trace dropped"
// path costs a few arithmetic ops.

// DefaultTraceStoreLimit bounds how many retained traces the store keeps
// before evicting the oldest.
const DefaultTraceStoreLimit = 512

// DefaultTraceSampleRate is the fraction of healthy traces retained when
// the caller does not configure one.
const DefaultTraceSampleRate = 0.1

// Trace retention decisions, in the order the store tries them. These
// are also the label values of capmand_traces_total{decision}.
const (
	TraceDecisionSignal  = "signal"  // shed/error/SLO/invariant: always kept
	TraceDecisionSampled = "sampled" // healthy, won the hash draw
	TraceDecisionDropped = "dropped" // healthy, lost the hash draw
)

// StoredTrace is one request's record: identity, outcome, the signal
// flags that force retention (empty for healthy traces), and the span
// forest. It is what the tail sampler retains, what capmand serves for a
// job at /v1/jobs/{id}/trace, and what capman-sim -trace writes.
type StoredTrace struct {
	TraceID string `json:"trace_id"`
	JobID   string `json:"job_id,omitempty"`
	// Kind is the job kind (sim|tte); a request refused at admission
	// keeps its spec's kind and reads outcome "shed".
	Kind    string `json:"kind,omitempty"`
	Outcome string `json:"outcome"`
	// Flags lists why the tail sampler had to keep this trace: "shed",
	// "error", "slo-breach", "fatal-invariant". Empty for healthy traces
	// that survived the probability draw.
	Flags        []string   `json:"flags,omitempty"`
	Start        time.Time  `json:"start"`
	DurationS    float64    `json:"duration_s"`
	Spans        []SpanNode `json:"spans,omitempty"`
	DroppedSpans int        `json:"dropped_spans,omitempty"`
	// MetricDeltas lists every registry series that moved while a failed
	// job ran, from its dequeue to its failure. Jobs on other workers can
	// bleed in, since the panel is shared, but on a quiet daemon this is
	// the job's own metric footprint. Empty unless the job failed.
	MetricDeltas []MetricDelta `json:"metric_deltas,omitempty"`
}

// MetricDelta is the change of one registry series between two
// snapshots (metrics.Baseline.Delta).
type MetricDelta struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Kind   string            `json:"kind"`
	Before float64           `json:"before"`
	After  float64           `json:"after"`
}

// TraceStoreStats is a point-in-time accounting snapshot. KeptSignal +
// KeptSampled + Dropped equals the number of Decide calls, and Len +
// Evicted equals the number of Keep calls — the invariant the eviction
// tests pin under -race.
type TraceStoreStats struct {
	KeptSignal  uint64 `json:"kept_signal"`
	KeptSampled uint64 `json:"kept_sampled"`
	Dropped     uint64 `json:"dropped"`
	Evicted     uint64 `json:"evicted"`
	Len         int    `json:"len"`
}

// TraceQuery filters Search results. Zero values match everything.
type TraceQuery struct {
	// MinDuration keeps traces at least this long.
	MinDuration time.Duration
	// Outcome matches StoredTrace.Outcome exactly when non-empty.
	Outcome string
	// Kind matches StoredTrace.Kind exactly when non-empty.
	Kind string
	// Limit caps the result count (0 = DefaultTraceSearchLimit).
	Limit int
}

// DefaultTraceSearchLimit caps Search results when the query asks for no
// explicit limit.
const DefaultTraceSearchLimit = 50

// TraceStore is the bounded retained-trace buffer behind /v1/traces. A
// nil *TraceStore is valid and never retains anything, which is the
// "tracing disabled" fast path.
type TraceStore struct {
	threshold uint64 // keep healthy trace when hash <= threshold
	seed      uint64

	keptSignal  atomic.Uint64
	keptSampled atomic.Uint64
	dropped     atomic.Uint64
	evicted     atomic.Uint64

	mu    sync.Mutex
	byID  map[string]*StoredTrace
	order []string // oldest at head; head indexes the current front
	head  int
	limit int
}

// NewTraceStore builds a store retaining at most limit traces
// (DefaultTraceStoreLimit when limit <= 0), keeping healthy traces with
// probability rate (clamped to [0,1]; negative means
// DefaultTraceSampleRate), deterministically in the trace ID under seed.
func NewTraceStore(limit int, rate float64, seed uint64) *TraceStore {
	if limit <= 0 {
		limit = DefaultTraceStoreLimit
	}
	if rate < 0 || math.IsNaN(rate) {
		rate = DefaultTraceSampleRate
	}
	var threshold uint64
	switch {
	case rate >= 1:
		threshold = math.MaxUint64
	case rate <= 0:
		threshold = 0
	default:
		threshold = uint64(rate * float64(math.MaxUint64))
	}
	return &TraceStore{
		threshold: threshold,
		seed:      seed,
		byID:      make(map[string]*StoredTrace, limit),
		limit:     limit,
	}
}

// splitmix64 is the 64-bit finalizer from Vigna's SplitMix64 — a cheap,
// well-mixed hash that turns (seed, trace ID) into the sampling draw.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Decide makes the tail-sampling call for a finished trace: signal
// traces are always kept; healthy ones are kept when their seeded hash
// draw lands under the configured rate. It returns the retention
// decision string (TraceDecision*) alongside the verdict so callers can
// feed a metrics label without re-deriving it. Decide allocates nothing
// and takes no locks — the dropped path is the common one at scale.
func (s *TraceStore) Decide(id TraceID, signal bool) (keep bool, decision string) {
	if s == nil {
		return false, TraceDecisionDropped
	}
	if signal {
		s.keptSignal.Add(1)
		return true, TraceDecisionSignal
	}
	if s.threshold != 0 && splitmix64(s.seed^id.Low64()) <= s.threshold {
		s.keptSampled.Add(1)
		return true, TraceDecisionSampled
	}
	s.dropped.Add(1)
	return false, TraceDecisionDropped
}

// Keep inserts a retained trace, evicting the oldest once the store is
// full. Re-keeping an ID refreshes its record without consuming a slot.
func (s *TraceStore) Keep(t *StoredTrace) {
	if s == nil || t == nil || t.TraceID == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.byID[t.TraceID]; ok {
		s.byID[t.TraceID] = t
		return
	}
	if len(s.byID) >= s.limit {
		// Evict the oldest still-present entry. Replaced IDs stay in
		// order but are gone from byID; skip them.
		for s.head < len(s.order) {
			old := s.order[s.head]
			s.head++
			if _, ok := s.byID[old]; ok {
				delete(s.byID, old)
				s.evicted.Add(1)
				break
			}
		}
	}
	s.byID[t.TraceID] = t
	s.order = append(s.order, t.TraceID)
	// Compact the consumed head once it dominates the slice, keeping
	// append amortized O(1) without unbounded growth.
	if s.head > s.limit && s.head*2 > len(s.order) {
		s.order = append(s.order[:0], s.order[s.head:]...)
		s.head = 0
	}
}

// Get returns the retained trace with the given hex ID.
func (s *TraceStore) Get(id string) (*StoredTrace, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.byID[id]
	return t, ok
}

// Search returns retained traces matching q, newest first.
func (s *TraceStore) Search(q TraceQuery) []*StoredTrace {
	if s == nil {
		return nil
	}
	limit := q.Limit
	if limit <= 0 {
		limit = DefaultTraceSearchLimit
	}
	minS := q.MinDuration.Seconds()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*StoredTrace, 0, min(limit, len(s.byID)))
	seen := make(map[string]bool, len(s.byID))
	for i := len(s.order) - 1; i >= s.head && len(out) < limit; i-- {
		id := s.order[i]
		if seen[id] {
			continue
		}
		seen[id] = true
		t, ok := s.byID[id]
		if !ok {
			continue
		}
		if t.DurationS < minS {
			continue
		}
		if q.Outcome != "" && t.Outcome != q.Outcome {
			continue
		}
		if q.Kind != "" && t.Kind != q.Kind {
			continue
		}
		out = append(out, t)
	}
	return out
}

// Stats snapshots the retention counters.
func (s *TraceStore) Stats() TraceStoreStats {
	if s == nil {
		return TraceStoreStats{}
	}
	s.mu.Lock()
	n := len(s.byID)
	s.mu.Unlock()
	return TraceStoreStats{
		KeptSignal:  s.keptSignal.Load(),
		KeptSampled: s.keptSampled.Load(),
		Dropped:     s.dropped.Load(),
		Evicted:     s.evicted.Load(),
		Len:         n,
	}
}
