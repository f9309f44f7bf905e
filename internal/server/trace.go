package server

import (
	"errors"
	"fmt"
	"net/http"
	"slices"
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
// job also carries a span recorder rooted at admission, so one record
// covers queue wait, the job's run, and the engine's per-phase spans.
// There is one store of job records: the job table, which keeps every
// queued and running job plus the newest obs.DefaultTraceStoreLimit
// finished ones. Every finished job in it is a retained trace, rendered
// on each read by Executor.record, so GET /v1/jobs/{id}/trace and
// GET /v1/traces/{id} serve the same bytes. Requests that never became
// jobs (refusals at admission, traced cache hits) leave a one-span
// record in the bounded obs.TraceStore. Both are searched at
// GET /v1/traces, finished jobs are announced as `trace` frames on
// /v1/stream, and job views link their record (traceId).

// TraceConfig tunes the request-tracing subsystem. The zero value traces
// every job and retains every record the bounds allow.
type TraceConfig struct {
	// Disable withholds the trace surfaces: /v1/traces answers 503,
	// views carry no traceId link, requests that never became jobs leave
	// no record, and /v1/stream carries no trace frames. Every submission
	// still gets its one request ID, and every job still records its span
	// tree and events, so /v1/jobs/{id}/trace serves the same record
	// either way.
	Disable bool
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

// summarize compacts a record whose span forest has spans nodes, for
// list responses and SSE frames.
func summarize(t *obs.StoredTrace, spans int) TraceSummary {
	return TraceSummary{
		TraceID:   t.TraceID,
		JobID:     t.JobID,
		Kind:      t.Kind,
		Outcome:   t.Outcome,
		Flags:     t.Flags,
		Start:     t.Start,
		DurationS: t.DurationS,
		Spans:     spans,
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

// armTraceSLO installs the per-request SLO thresholds a record is
// flagged against: a job whose queue wait exceeds queueWait, or a tte job
// whose wall clock exceeds tte, is flagged "slo-breach". The Server calls
// this once at construction, before any submission.
func (e *Executor) armTraceSLO(queueWait, tte time.Duration) {
	e.sloQueueWait = queueWait
	e.sloTTE = tte
}

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

// recordRequestTrace keeps a one-span record, under the submission's
// one ID, for a submission that never became a job: a cache hit whose
// client asked to be traced (sent a valid traceparent), or a refusal at
// admission — by a full queue ("queue-full"), an open circuit breaker
// ("breaker-open") or a draining executor ("draining"). A refusal is flagged with its outcome, so a 429 or 503
// storm is reconstructible after the fact. The one attribute (key,
// value) goes on the root "request" span. Untraced hits never call
// this, which keeps the zero-allocation admission fast path intact.
func (e *Executor) recordRequestTrace(spec JobSpec, opts SubmitOpts, signal bool, outcome, key, value string) {
	if e.traces == nil {
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
	e.publishTrace(summarize(st, 1))
}

// recordHead is a job's record without its span tree: outcome, flags,
// start and duration derived from the job's fields, and a failed job's
// metric deltas. An unfinished job is timed to now. Callers hold e.mu or
// pass a copy of the job taken under it.
func (e *Executor) recordHead(j *Job) *obs.StoredTrace {
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
		MetricDeltas: j.deltas,
	}
}

// record renders a job's one record: recordHead plus the span tree from
// the job's own recorder. It backs both GET /v1/jobs/{id}/trace and
// GET /v1/traces/{id}, so a finished job's record reads the same from
// either. An unfinished job renders as a live snapshot.
func (e *Executor) record(j *Job) *obs.StoredTrace {
	st := e.recordHead(j)
	st.Spans = j.rec.TraceTree(j.trace.SpanID)
	st.DroppedSpans = j.rec.Dropped()
	return st
}

// publishTrace announces a retained record as a `trace` frame on the
// live event stream.
func (e *Executor) publishTrace(sum TraceSummary) {
	if e.stream != nil {
		e.stream.Publish(tsdb.EventTrace, time.Now(), sum)
	}
}

// Trace returns the newest retained record with the given trace ID: a
// finished job still in the table, or a request that never became a
// job. It reports false for unknown IDs and when tracing is disabled.
func (e *Executor) Trace(id string) (*obs.StoredTrace, bool) {
	if e.traces == nil {
		return nil, false
	}
	e.mu.Lock()
	var snap *Job
	for _, j := range e.done {
		if j != nil && j.RequestID == id && (snap == nil || j.FinishedAt.After(snap.FinishedAt)) {
			c := *j
			snap = &c
		}
	}
	e.mu.Unlock()
	// A request that never became a job has no duration: it ends at its
	// start.
	if req, ok := e.traces.Get(id); ok && (snap == nil || req.Start.After(snap.FinishedAt)) {
		return req, true
	}
	if snap == nil {
		return nil, false
	}
	return e.record(snap), true
}

// SearchTraces summarizes the retained records matching q, newest
// first by end time, and accounts for what is retained: Len records in
// all, Evicted aged out of the job table or the store. Only the records
// within q's limit have their spans counted.
func (e *Executor) SearchTraces(q obs.TraceQuery) ([]TraceSummary, obs.TraceStoreStats) {
	type match struct {
		t   *obs.StoredTrace
		rec *obs.Recorder // a job's recorder; nil for a store record, which holds its spans
	}
	var found []match
	stats := e.traces.Stats()
	e.mu.Lock()
	for _, j := range e.done {
		if j == nil {
			continue
		}
		stats.Len++
		if head := e.recordHead(j); q.Match(head) {
			found = append(found, match{head, j.rec})
		}
	}
	stats.Evicted += e.agedOut
	e.mu.Unlock()
	for _, t := range e.traces.Search(q) {
		found = append(found, match{t: t})
	}
	end := func(m match) time.Time {
		return m.t.Start.Add(time.Duration(m.t.DurationS * float64(time.Second)))
	}
	slices.SortStableFunc(found, func(a, b match) int { return end(b).Compare(end(a)) })
	sums := make([]TraceSummary, min(len(found), q.Max()))
	for i, m := range found[:len(sums)] {
		spans := countSpans(m.t.Spans)
		if m.rec != nil {
			spans = m.rec.Len()
		}
		sums[i] = summarize(m.t, spans)
	}
	return sums, stats
}

// traceFlags derives a record's signal flags from a job's fields, as of
// end. An empty result marks the job healthy. A job that never left the
// queue counts its whole life as queue wait.
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
// is one GET /v1/traces/{id} away. The response carries the retention
// stats, so a searcher can tell "nothing matched" from "aged out".
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if s.exec.traces == nil {
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
	sums, stats := s.exec.SearchTraces(q)
	writeJSON(w, http.StatusOK, map[string]any{
		"traces": sums,
		"stats":  stats,
	})
}

// handleTraceGet serves GET /v1/traces/{id}: the newest retained record
// with that trace ID, with its full span waterfall. Unknown IDs — never
// minted, still in flight, or aged out — are 404s.
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	if s.exec.traces == nil {
		writeError(w, http.StatusServiceUnavailable, errTracingOff)
		return
	}
	id := r.PathValue("id")
	t, ok := s.exec.Trace(id)
	if !ok {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("server: no retained trace %q (in flight, aged out, or never seen)", id))
		return
	}
	writeJSON(w, http.StatusOK, t)
}

// handleJobTrace serves GET /v1/jobs/{id}/trace: the job's record,
// rendered on every read, whether or not tracing is on. Unknown and
// aged-out job IDs are 404s.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	st, err := s.exec.JobTrace(r.PathValue("id"))
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}
