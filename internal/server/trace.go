package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tsdb"
)

// errTracingOff answers /v1/traces requests on a daemon built with
// TraceConfig.Disable.
var errTracingOff = errors.New("server: request tracing is disabled")

// Request tracing: every submission that reaches the slow path carries
// one 128-bit ID — taken from its W3C traceparent header, else from an
// X-Request-ID that is itself a valid trace ID, else minted — which is
// both its request ID (logs, events, pprof label) and its trace ID. Each
// job also carries a span recorder rooted at admission, so one trace
// covers queue wait, the job's run, and the engine's per-phase spans.
// The keep/drop decision is tail-based — made at completion by
// obs.TraceStore — so sheds, errors, SLO breaches, and fatal invariant
// violations are always retained while healthy traces thin to a
// deterministic sample. Retained traces are served at GET /v1/traces
// (search) and GET /v1/traces/{id} (waterfall), streamed as `trace`
// frames on /v1/stream, and linked from job views (traceId). Whatever
// the sampler decides, a job's record is rendered on every read at
// GET /v1/jobs/{id}/trace by the same function that renders the
// retained copy (Executor.record).

// TraceConfig tunes the request-tracing subsystem. The zero value traces
// every job and retains healthy traces at the default sample rate.
type TraceConfig struct {
	// Disable withholds retention: nothing is retained, /v1/traces
	// answers 503, and views carry no traceId link. Every submission still gets its one request ID, and every job
	// still records its span tree and events, so /v1/jobs/{id}/trace
	// serves the same record either way.
	Disable bool
	// SampleRate is the fraction of healthy (non-signal) traces retained
	// (0 = default obs.DefaultTraceSampleRate; negative retains none;
	// >= 1 retains all). Signal traces are always retained.
	SampleRate float64
	// Seed drives the deterministic tail sampler: the same trace IDs and
	// seed yield the same keep set across runs and replicas.
	Seed uint64
	// StoreSize bounds the retained-trace buffer (0 = default
	// obs.DefaultTraceStoreLimit); the oldest retained trace is evicted
	// first.
	StoreSize int
}

// tailSampleRate maps the config's SampleRate onto the store's rate:
// zero means default, negative means "sample no healthy traces".
func (c TraceConfig) tailSampleRate() float64 {
	switch {
	case c.SampleRate == 0:
		return obs.DefaultTraceSampleRate
	case c.SampleRate < 0:
		return 0
	default:
		return c.SampleRate
	}
}

// SubmitOpts carries a submission's inbound identity. The zero value
// mints it server-side.
type SubmitOpts struct {
	// Trace is the parsed inbound traceparent (or X-Request-ID trace ID);
	// its trace ID becomes the submission's request ID. An invalid (zero)
	// context makes the executor mint a fresh one on the slow path.
	Trace obs.TraceContext
}

// TraceSummary is the compact form of a retained trace: what /v1/traces
// lists and what `trace` frames on /v1/stream carry (full span trees stay
// behind /v1/traces/{id}).
type TraceSummary struct {
	TraceID   string    `json:"trace_id"`
	JobID     string    `json:"job_id,omitempty"`
	Kind      string    `json:"kind,omitempty"`
	Outcome   string    `json:"outcome"`
	Flags     []string  `json:"flags,omitempty"`
	Start     time.Time `json:"start"`
	DurationS float64   `json:"duration_s"`
	Spans     int       `json:"spans"`
}

// summarize compacts a stored trace for list responses and SSE frames.
func summarize(t *obs.StoredTrace) TraceSummary {
	return TraceSummary{
		TraceID:   t.TraceID,
		JobID:     t.JobID,
		Kind:      t.Kind,
		Outcome:   t.Outcome,
		Flags:     t.Flags,
		Start:     t.Start,
		DurationS: t.DurationS,
		Spans:     countSpans(t.Spans),
	}
}

func countSpans(nodes []obs.SpanNode) int {
	n := len(nodes)
	for i := range nodes {
		n += countSpans(nodes[i].Children)
	}
	return n
}

// submitOptsFrom extracts the inbound identity from request headers: a
// valid traceparent, else an X-Request-ID that passes the same strict
// trace-ID check (a traceparent without a parent span). Any other
// X-Request-ID is ignored, so outside input never reaches a log line.
func submitOptsFrom(r *http.Request) SubmitOpts {
	tc := obs.ParseTraceparent(r.Header.Get("traceparent"))
	if !tc.Valid {
		tc = obs.ParseTraceID(r.Header.Get("X-Request-ID"))
	}
	return SubmitOpts{Trace: tc}
}

// traceDecisionCounter returns the cached capmand_traces_total handle for
// a retention decision.
func (e *Executor) traceDecisionCounter(decision string) {
	switch decision {
	case obs.TraceDecisionSignal:
		e.traceSignal.Inc()
	case obs.TraceDecisionSampled:
		e.traceSampled.Inc()
	default:
		e.traceDropped.Inc()
	}
}

// armTraceSLO installs the per-request SLO thresholds the tail sampler
// flags against: a job whose queue wait exceeds queueWait, or a tte job
// whose wall clock exceeds tte, is retained as "slo-breach". The Server
// calls this once at construction, before any submission.
func (e *Executor) armTraceSLO(queueWait, tte time.Duration) {
	e.sloQueueWait = queueWait
	e.sloTTE = tte
}

// Traces exposes the retained-trace store; nil when tracing is disabled.
func (e *Executor) Traces() *obs.TraceStore { return e.traces }

// mintTrace opens a job's admission-rooted span recorder — the job's one
// record — under the submission's identity, whose trace ID is already
// the job's RequestID. Called on the submit slow path under e.mu, after
// the job ID is known.
func (e *Executor) mintTrace(job *Job, opts SubmitOpts) {
	job.rec = obs.NewRecorder(0)
	job.rootSpan = job.rec.StartChild(nil, "request")
	job.rootSpan.SetAttr("job_id", job.ID)
	job.rootSpan.SetAttr("request_id", job.RequestID)
	job.rootSpan.SetAttr("kind", job.Spec.kindName())
	job.queueSpan = job.rec.StartChild(job.rootSpan, "queue")
	// The span ID becomes our root ("request") span; the client's span ID,
	// if any, was its parent and is not re-exported.
	job.trace = opts.Trace
	job.trace.SpanID = obs.NewSpanID()
	job.traced = e.traces != nil
}

// recordRequestTrace retains a one-span trace, under the submission's
// one ID, for a submission that never became a job: a cache hit whose
// client asked to be traced (sent a valid traceparent), or a refusal at
// admission — by the shed gate, an open circuit breaker
// ("breaker-open"), a full queue ("queue-full") or a draining executor
// ("draining"). Refusals are signal traces, flagged with their outcome,
// which the tail sampler always keeps, so a 429 or 503 storm is fully
// reconstructible after the fact. The one attribute (key, value) goes on
// the root "request" span. Untraced hits never call this, which keeps
// the zero-allocation admission fast path intact.
func (e *Executor) recordRequestTrace(spec JobSpec, opts SubmitOpts, signal bool, outcome, key, value string) {
	if e.traces == nil {
		return
	}
	keep, decision := e.traces.Decide(opts.Trace.TraceID, signal)
	e.traceDecisionCounter(decision)
	if !keep {
		return
	}
	now := time.Now()
	st := &obs.StoredTrace{
		TraceID: opts.Trace.TraceID.String(),
		Kind:    spec.kindName(),
		Outcome: outcome,
		Start:   now,
		Spans: []obs.SpanNode{{
			Name:   "request",
			SpanID: obs.NewSpanID().String(),
			Start:  now,
			Attrs:  map[string]any{key: value},
		}},
	}
	if signal {
		st.Flags = []string{outcome}
	}
	e.traces.Keep(st)
	e.publishTrace(st)
}

// record renders a job's one record: the span tree from the job's own
// recorder, plus outcome, flags, start and duration derived from its
// fields, and a failed job's metric deltas. It backs both
// GET /v1/jobs/{id}/trace and the trace the tail sampler retains, so a
// finished job's record reads the same from either. An unfinished job
// renders as a live snapshot, timed to now. Callers hold e.mu or pass a
// copy of the job taken under it.
func (e *Executor) record(j *Job) *obs.StoredTrace {
	end := j.FinishedAt
	if end.IsZero() {
		end = time.Now()
	}
	return &obs.StoredTrace{
		TraceID:      j.RequestID,
		JobID:        j.ID,
		Kind:         j.Spec.kindName(),
		Outcome:      string(j.State),
		Flags:        e.traceFlags(j, end),
		Start:        j.SubmittedAt,
		DurationS:    end.Sub(j.SubmittedAt).Seconds(),
		Spans:        j.rec.TraceTree(j.trace.SpanID),
		DroppedSpans: j.rec.Dropped(),
		MetricDeltas: j.deltas,
	}
}

// finalizeTrace makes the tail-sampling decision for a finished job and,
// when the trace is retained, stores its record and emits a `trace`
// frame on the live stream.
// Called by finish, under e.mu, before the terminal state is visible.
func (e *Executor) finalizeTrace(job *Job) {
	if e.traces == nil {
		return
	}
	keep, decision := e.traces.Decide(job.trace.TraceID, len(e.traceFlags(job, job.FinishedAt)) > 0)
	e.traceDecisionCounter(decision)
	if !keep {
		return
	}
	st := e.record(job)
	e.traces.Keep(st)
	e.publishTrace(st)
}

// publishTrace mirrors a retained trace onto the live event stream.
func (e *Executor) publishTrace(st *obs.StoredTrace) {
	if e.stream != nil {
		e.stream.Publish(tsdb.EventTrace, time.Now(), summarize(st))
	}
}

// traceFlags derives the signal flags that force retention from a job's
// fields, as of end. An empty result marks the trace healthy (retained
// only by the sample draw). A job that never left the queue counts its
// whole life as queue wait.
func (e *Executor) traceFlags(j *Job, end time.Time) []string {
	started := j.StartedAt
	if started.IsZero() {
		started = end
	}
	wait, wall := started.Sub(j.SubmittedAt), end.Sub(started)
	var flags []string
	if j.State == StateFailed {
		flags = append(flags, "error")
	}
	if e.sloQueueWait > 0 && wait > e.sloQueueWait {
		flags = append(flags, "slo-breach")
	} else if j.latencySLO > 0 && wall > j.latencySLO {
		flags = append(flags, "slo-breach")
	}
	if j.fatal {
		flags = append(flags, "fatal-invariant")
	}
	return flags
}

// handleTraces serves GET /v1/traces: search over the retained traces.
//
//	min_dur  minimum end-to-end duration, as a Go duration ("250ms")
//	outcome  exact outcome match: done|failed|cancelled|shed
//	kind     exact job-kind match: sim|tte
//	limit    result cap (default 50)
//
// Results are compact summaries, newest first; the full span waterfall
// is one GET /v1/traces/{id} away. The response carries the store's
// retention stats so a searcher can tell "nothing matched" from
// "everything healthy was sampled away".
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	store := s.exec.Traces()
	if store == nil {
		writeError(w, http.StatusServiceUnavailable, errTracingOff)
		return
	}
	p := r.URL.Query()
	var q obs.TraceQuery
	if v := p.Get("min_dur"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("min_dur: %w", err))
			return
		}
		q.MinDuration = d
	}
	q.Outcome = p.Get("outcome")
	q.Kind = p.Get("kind")
	if v := p.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("limit: want a positive integer, got %q", v))
			return
		}
		q.Limit = n
	}
	found := store.Search(q)
	sums := make([]TraceSummary, 0, len(found))
	for _, t := range found {
		sums = append(sums, summarize(t))
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"traces": sums,
		"stats":  store.Stats(),
	})
}

// handleTraceGet serves GET /v1/traces/{id}: one retained trace's full
// span waterfall. Unknown IDs — never minted, tail-dropped, or evicted —
// are 404s.
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	store := s.exec.Traces()
	if store == nil {
		writeError(w, http.StatusServiceUnavailable, errTracingOff)
		return
	}
	id := r.PathValue("id")
	t, ok := store.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("server: no retained trace %q (dropped by the tail sampler, evicted, or never seen)", id))
		return
	}
	writeJSON(w, http.StatusOK, t)
}

// handleJobTrace serves GET /v1/jobs/{id}/trace: the job's record,
// rendered on every read, whether or not tracing is on and whatever the
// trace store has evicted. Unknown job IDs are 404s.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	st, err := s.exec.JobTrace(r.PathValue("id"))
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}
