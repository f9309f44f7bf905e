package server

import (
	"context"
	"encoding/json"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/metrics"
	"repro/internal/sim"
	"repro/internal/twin"
)

// State is a job's position in its lifecycle.
type State string

// Job lifecycle. Queued and running jobs are "in flight"; the other three
// states are terminal.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Outcome is what a finished job produced: a single discharge cycle's
// Result, a multi-cycle run's CyclesResult when the spec asked for
// Cycles > 1, or a Monte Carlo time-to-empty Summary for tte-kind jobs.
// Exactly one field is set. Outcomes are immutable once published and are
// what the content-addressed cache stores.
type Outcome struct {
	Run    *sim.Result       `json:"run,omitempty"`
	Cycles *sim.CyclesResult `json:"cycles,omitempty"`
	TTE    *twin.Summary     `json:"tte,omitempty"`

	// raw is the outcome's JSON encoding, primed once by the worker that
	// produced it (primeRaw) so every cache hit reuses the bytes instead
	// of re-marshaling a large result. Never written after publication.
	raw []byte
}

// outcomePlain strips Outcome's methods so primeRaw/MarshalJSON can use
// the stock struct encoding without recursing.
type outcomePlain Outcome

// primeRaw encodes the outcome once and memoizes the bytes. Idempotent;
// called by the worker before the outcome is published, so raw needs no
// lock afterwards.
func (o *Outcome) primeRaw() {
	if o == nil || o.raw != nil {
		return
	}
	if b, err := json.Marshal((*outcomePlain)(o)); err == nil {
		o.raw = b
	}
}

// MarshalJSON serves the primed bytes when present, falling back to stock
// encoding for outcomes that never passed through a worker (tests, and
// capbench's in-process marshal timing).
func (o *Outcome) MarshalJSON() ([]byte, error) {
	if o.raw != nil {
		return o.raw, nil
	}
	return json.Marshal((*outcomePlain)(o))
}

// Job is one submitted simulation. All mutable fields are guarded by the
// owning Executor's lock; handlers read through Executor methods that
// return immutable View snapshots.
type Job struct {
	ID string
	// RequestID identifies the submission that created the job: its trace
	// ID in hex (coalesced submissions share the job; their request IDs
	// appear in its lifecycle events). It tags every log line and event
	// for the job, and keys its trace at /v1/traces/{id}.
	RequestID string
	Hash      string
	Spec      JobSpec
	// key is the raw content address (Hash is its hex form); the cache is
	// indexed by it so completion paths never re-decode the hex string.
	key CacheKey

	State    State
	Err      string
	Outcome  *Outcome
	CacheHit bool

	SubmittedAt time.Time
	StartedAt   time.Time
	FinishedAt  time.Time

	// deltas are the registry series a failed job moved between its
	// dequeue and its failure; nil for jobs that did not fail.
	deltas []obs.MetricDelta

	// The job's record (trace.go), rendered at GET /v1/jobs/{id}/trace:
	// the span recorder rooted at admission, whose request span carries
	// the lifecycle events, and the request/queue spans the worker
	// closes; plus the trace context behind RequestID, whose span ID is
	// the root span's, and whether the record is served at /v1/traces
	// (false when tracing is disabled). Written once at submission; the
	// span pointers never change afterwards.
	trace     obs.TraceContext
	traced    bool
	rec       *obs.Recorder
	rootSpan  *obs.Span
	queueSpan *obs.Span

	// runner is the job's executable form, resolved at submission and
	// released at its end. latency and latencySLO are its kind's own
	// latency histogram and SLO threshold (runner.latency), which outlive
	// the runner. fatal marks a done job whose outcome carries a fatal
	// safety-contract violation. cancelReason, when set, is why Drain
	// cancelled the job: the detail of its cancelled event and the tail of
	// its Err.
	runner       runner
	latency      *metrics.Histogram
	latencySLO   time.Duration
	fatal        bool
	cancel       context.CancelFunc
	cancelReason string
}

// releaseConfig drops the job's resolved engine configuration once the job
// is terminal. The config holds the run's whole policy (a CAPMAN scheduler
// keeps its estimator, model and similarity index), and the newest
// finished jobs stay in the job table as retained traces, so keeping it
// would pin hundreds of engines. Callers hold the executor lock.
func (j *Job) releaseConfig() { j.runner = nil }

// traceID links the job to its record at /v1/traces/{id}: its request
// ID, or "" when tracing is disabled and there is nothing to link to.
func (j *Job) traceID() string {
	if !j.traced {
		return ""
	}
	return j.RequestID
}

// View is the JSON representation of a job returned by the HTTP API.
type View struct {
	ID        string `json:"id"`
	RequestID string `json:"requestId,omitempty"`
	// TraceID joins the job to its record at /v1/traces/{id}, served
	// once the job has finished and until it ages out of the job table;
	// it equals RequestID, and is empty when tracing is disabled and for
	// cache-hit views, which mint nothing.
	TraceID  string   `json:"traceId,omitempty"`
	Hash     string   `json:"hash"`
	Spec     JobSpec  `json:"spec"`
	State    State    `json:"state"`
	Error    string   `json:"error,omitempty"`
	Outcome  *Outcome `json:"outcome,omitempty"`
	CacheHit bool     `json:"cacheHit"`

	SubmittedAt time.Time  `json:"submittedAt"`
	StartedAt   *time.Time `json:"startedAt,omitempty"`
	FinishedAt  *time.Time `json:"finishedAt,omitempty"`
	// QueueWaitS is submit→dequeue; WallS is dequeue→finish. The job
	// timeout covers only the latter.
	QueueWaitS float64 `json:"queueWaitS,omitempty"`
	WallS      float64 `json:"wallS,omitempty"`
}

// view snapshots the job; callers must hold the executor lock.
func (j *Job) view() View {
	v := View{
		ID:          j.ID,
		RequestID:   j.RequestID,
		TraceID:     j.traceID(),
		Hash:        j.Hash,
		Spec:        j.Spec,
		State:       j.State,
		Error:       j.Err,
		Outcome:     j.Outcome,
		CacheHit:    j.CacheHit,
		SubmittedAt: j.SubmittedAt,
	}
	if !j.StartedAt.IsZero() {
		t := j.StartedAt
		v.StartedAt = &t
		v.QueueWaitS = j.StartedAt.Sub(j.SubmittedAt).Seconds()
	}
	if !j.FinishedAt.IsZero() {
		t := j.FinishedAt
		v.FinishedAt = &t
		if !j.StartedAt.IsZero() {
			v.WallS = j.FinishedAt.Sub(j.StartedAt).Seconds()
		}
	}
	return v
}
