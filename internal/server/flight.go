package server

import (
	"errors"

	"repro/internal/obs"
	"repro/internal/obs/metrics"
)

// ErrNoFlight reports that a job exists but has no flight box: it has not
// failed (boxes are cut only when a job's retries are exhausted).
var ErrNoFlight = errors.New("server: no flight box recorded for job")

// JobFlight is a failed job's "black box", cut from its span recorder:
// every span's events merged by time (lifecycle transitions, degradation
// and invariant breadcrumbs, teed log records), the span tree, and the
// registry metric deltas the job caused — everything needed to
// reconstruct the failure after the fact, served at
// GET /v1/jobs/{id}/flight.
type JobFlight struct {
	ID        string `json:"id"`
	RequestID string `json:"requestId,omitempty"`
	// TraceID is the job's request trace, and TraceURL the daemon-local
	// link ("/v1/traces/{id}") to its waterfall — a failed job is a
	// signal trace, so the tail sampler always retained it and the link
	// resolves. Both empty when the job ran untraced.
	TraceID  string `json:"trace_id,omitempty"`
	TraceURL string `json:"trace_url,omitempty"`
	State    State  `json:"state"`
	Error    string `json:"error,omitempty"`
	Attempts int    `json:"attempts,omitempty"`

	// Box holds the recorder's snapshot: events oldest first (each span
	// keeps its newest obs.DefaultSpanEvents) plus the span tree.
	Box obs.FlightBox `json:"box"`

	// MetricDeltas lists every registry series that moved between the
	// job's dequeue and the box cut. Neighbouring jobs on other workers can
	// bleed in — the panel is shared — but on a quiet daemon this is the
	// job's own metric footprint.
	MetricDeltas []metrics.Delta `json:"metricDeltas,omitempty"`
}

// Flight returns a job's black box, ErrNotFound for unknown jobs, and
// ErrNoFlight for jobs that have no box (not failed).
func (e *Executor) Flight(id string) (*JobFlight, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	job, ok := e.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	if job.flight == nil {
		return nil, ErrNoFlight
	}
	return job.flight, nil
}
