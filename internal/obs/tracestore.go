package obs

import (
	"sync"
	"time"
)

// DefaultTraceStoreLimit bounds how many records a TraceStore keeps
// before evicting the oldest. capmand's job table keeps the same number
// of finished jobs.
const DefaultTraceStoreLimit = 512

// StoredTrace is one request's record: identity, outcome, the signal
// flags that mark it as worth a look (empty for healthy requests), and
// the span forest. It is what capmand serves for a job at
// /v1/jobs/{id}/trace and /v1/traces/{id}, what a TraceStore keeps for a
// request that never became a job, and what capman-sim -trace writes.
type StoredTrace struct {
	TraceID string `json:"trace_id"`
	JobID   string `json:"job_id,omitempty"`
	// Kind is the job kind (sim|tte); a request refused at admission
	// keeps its spec's kind and reads outcome "shed".
	Kind    string `json:"kind,omitempty"`
	Outcome string `json:"outcome"`
	// Flags lists why the request deserves a look: "shed", "error",
	// "slo-breach", "fatal-invariant". Empty for healthy requests.
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

// TraceStoreStats is a point-in-time accounting snapshot: Len + Evicted
// equals the number of Keep calls, the invariant the eviction test pins
// under -race.
type TraceStoreStats struct {
	Evicted uint64 `json:"evicted"`
	Len     int    `json:"len"`
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

// Max is the query's result cap, DefaultTraceSearchLimit when unset.
func (q TraceQuery) Max() int {
	if q.Limit <= 0 {
		return DefaultTraceSearchLimit
	}
	return q.Limit
}

// Match reports whether t passes the query's filters (the limit aside).
func (q TraceQuery) Match(t *StoredTrace) bool {
	return t.DurationS >= q.MinDuration.Seconds() &&
		(q.Outcome == "" || t.Outcome == q.Outcome) &&
		(q.Kind == "" || t.Kind == q.Kind)
}

// TraceStore is a bounded ring of records, one mutex around it. It keeps
// every record it is given; once full, each new record evicts the
// oldest. Records may share a trace ID (two submissions under one
// traceparent); each takes its own slot. A nil *TraceStore keeps
// nothing, which is the "tracing disabled" path.
type TraceStore struct {
	mu      sync.Mutex
	ring    []*StoredTrace // grows to limit, then wraps at next
	next    int
	limit   int
	evicted uint64
}

// NewTraceStore builds a store keeping at most limit records
// (DefaultTraceStoreLimit when limit <= 0).
func NewTraceStore(limit int) *TraceStore {
	if limit <= 0 {
		limit = DefaultTraceStoreLimit
	}
	return &TraceStore{limit: limit}
}

// Keep inserts a record, evicting the oldest once the store is full.
func (s *TraceStore) Keep(t *StoredTrace) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.ring) < s.limit {
		s.ring = append(s.ring, t)
		return
	}
	s.ring[s.next] = t
	s.next = (s.next + 1) % s.limit
	s.evicted++
}

// newest returns the i-th newest record (0 = newest). Callers hold s.mu
// and keep i below len(s.ring).
func (s *TraceStore) newest(i int) *StoredTrace {
	n := len(s.ring)
	return s.ring[((s.next-1-i)%n+n)%n]
}

// Get returns the newest record with the given hex trace ID.
func (s *TraceStore) Get(id string) (*StoredTrace, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.ring {
		if t := s.newest(i); t.TraceID == id {
			return t, true
		}
	}
	return nil, false
}

// Search returns the records matching q, newest first.
func (s *TraceStore) Search(q TraceQuery) []*StoredTrace {
	if s == nil {
		return nil
	}
	limit := q.Max()
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*StoredTrace
	for i := 0; i < len(s.ring) && len(out) < limit; i++ {
		if t := s.newest(i); q.Match(t) {
			out = append(out, t)
		}
	}
	return out
}

// Stats snapshots the store's accounting.
func (s *TraceStore) Stats() TraceStoreStats {
	if s == nil {
		return TraceStoreStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return TraceStoreStats{Evicted: s.evicted, Len: len(s.ring)}
}
