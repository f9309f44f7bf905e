package server

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/obs/metrics"
	"repro/internal/obs/tsdb"
)

// Executor errors, mapped onto HTTP statuses by the handler layer.
var (
	ErrNotFound = errors.New("server: no such job")
	ErrDraining = errors.New("server: draining, not accepting jobs")
	// ErrShed refuses fresh work while the daemon is overloaded: the
	// queue is full. The client should come back in a second: mapped to
	// HTTP 429 with Retry-After: 1.
	ErrShed = errors.New("server: shedding load")
)

// ExecutorConfig sizes the worker pool.
type ExecutorConfig struct {
	// Workers is the pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the FIFO backlog (default 64): a submission that
	// finds the queue full is shed with ErrShed rather than blocking.
	QueueDepth int
	// JobTimeout caps each job's wall-clock execution; zero means no
	// timeout. A timed-out job fails with context.DeadlineExceeded. The
	// clock starts when a worker dequeues the job, not at submission —
	// time spent queued is reported separately as queue_wait_seconds.
	JobTimeout time.Duration
	// CacheSize bounds the content-addressed result cache, one LRU of
	// this many outcomes (default 256; negative disables caching).
	CacheSize int
	// QueueWaitWarn is the queue-wait threshold above which a dequeued
	// job logs a warning (with its request ID) and increments
	// capmand_queue_wait_warnings_total (default 30s; negative disables).
	QueueWaitWarn time.Duration
	// DisableInvariants turns off the runtime safety-invariant checker.
	// The default (zero value) runs every sim job and twin batch under the
	// checker: violations stream into
	// capman_invariant_violations_total{invariant,severity} and onto the
	// job's engine span, and a fatal violation trips the sim's degradation
	// guard. The checker observes without perturbing physics, so cached
	// outcomes of clean runs are byte-identical either way.
	DisableInvariants bool
	// Invariants overrides the checker's envelopes (nil = calibrated
	// defaults). Ignored when DisableInvariants is set.
	Invariants *invariant.Config
	// Registry resolves job specs (default DefaultRegistry()).
	Registry *Registry
	// Metrics receives the executor's instrumentation (default a fresh
	// panel; share one with the Server to expose it over /metrics).
	Metrics *Metrics
	// Stream, when set, receives live ops events: every job lifecycle
	// transition (tsdb.EventJob carrying a JobStreamEvent), plus degrade
	// and invariant events streamed out of running simulations. The
	// Server wires its /v1/stream bus here.
	Stream *tsdb.Bus
	// Trace tunes the request-tracing subsystem (trace IDs, /v1/traces,
	// trace frames). The zero value traces every job; see TraceConfig.
	Trace TraceConfig
	// Logger receives job lifecycle logs, each line tagged with the
	// submission's request ID (default: discard).
	Logger *slog.Logger
}

func (c ExecutorConfig) withDefaults() ExecutorConfig {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.QueueWaitWarn == 0 {
		c.QueueWaitWarn = 30 * time.Second
	}
	if c.QueueWaitWarn < 0 {
		c.QueueWaitWarn = 0 // any negative value means "never warn"
	}
	if c.Registry == nil {
		c.Registry = DefaultRegistry()
	}
	if c.Metrics == nil {
		c.Metrics = NewMetrics()
	}
	if c.Logger == nil {
		c.Logger = obs.Nop()
	}
	return c
}

// Executor owns the job table and the bounded worker pool that drains the
// FIFO queue. The table keeps every queued and running job and the newest
// obs.DefaultTraceStoreLimit finished ones; an older job's ID answers
// ErrNotFound, as an unknown ID does. Concurrent identical submissions
// coalesce onto one in-flight job through the flights table, and finished
// outcomes are served from the content-addressed cache — the hot path
// touches only the cache lock and allocates nothing.
//
// Lock order: e.mu before Cache.mu; the cache lock is a leaf. The flights
// table lives under e.mu beside the job table, so the two can never
// disagree; the Submit fast path takes only the cache lock.
type Executor struct {
	registry   *Registry
	metrics    *Metrics
	cache      *Cache
	timeout    time.Duration
	queueWarn  time.Duration
	breakers   *breakerSet
	logger     *slog.Logger
	invariants *invariant.Config                               // nil when DisableInvariants
	stream     *tsdb.Bus                                       // nil: no live event stream
	runFn      func(context.Context, runner) (*Outcome, error) // test seam

	// Request tracing (trace.go). traces keeps the records of requests
	// that never became jobs; nil when TraceConfig.Disable was set.
	traces *obs.TraceStore
	// sloQueueWait / sloTTE are the per-request SLO thresholds records
	// are flagged against; set once via armTraceSLO before any Submit.
	sloQueueWait time.Duration
	sloTTE       time.Duration

	// draining is read lock-free on the Submit fast path; it is only ever
	// set under e.mu (Drain), which also serializes the queue close.
	draining atomic.Bool

	mu      sync.Mutex
	jobs    map[string]*Job
	flights map[CacheKey]*Job // the queued or running job computing each key
	seq     int
	// done is the FIFO of finished jobs still in the table, a ring whose
	// oldest entry sits at doneNext once full; agedOut counts the jobs it
	// has pushed out of the table.
	done     []*Job
	doneNext int
	agedOut  uint64

	queue chan *Job
	wg    sync.WaitGroup
}

// NewExecutor builds the executor and starts its workers.
func NewExecutor(cfg ExecutorConfig) *Executor {
	cfg = cfg.withDefaults()
	e := &Executor{
		registry:   cfg.Registry,
		metrics:    cfg.Metrics,
		cache:      NewCache(cfg.CacheSize),
		timeout:    cfg.JobTimeout,
		queueWarn:  cfg.QueueWaitWarn,
		breakers:   newBreakerSet(),
		logger:     cfg.Logger,
		invariants: cfg.Invariants,
		stream:     cfg.Stream,
		runFn:      func(ctx context.Context, r runner) (*Outcome, error) { return r.run(ctx) },
		jobs:       make(map[string]*Job),
		flights:    make(map[CacheKey]*Job),
		done:       make([]*Job, obs.DefaultTraceStoreLimit),
		queue:      make(chan *Job, cfg.QueueDepth),
	}
	if cfg.DisableInvariants {
		e.invariants = nil
	} else if e.invariants == nil {
		def := invariant.DefaultConfig()
		e.invariants = &def
	}
	if !cfg.Trace.Disable {
		e.traces = obs.NewTraceStore(0)
	}
	e.metrics.Workers.Set(int64(cfg.Workers))
	e.breakers.gauge = e.metrics.BreakerState
	for w := 0; w < cfg.Workers; w++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

// event records one job lifecycle transition as an event on the job's
// root span and publishes the same type and detail as a "job" frame on
// the live event stream. Callers hold the executor lock.
func (e *Executor) event(job *Job, typ, detail string) {
	job.rootSpan.Event(obs.FlightLifecycle, typ, detail, nil)
	e.publish(job, typ, detail)
}

// publish emits a lifecycle event already on the job's root span as a
// "job" frame. Callers hold the executor lock; the publish is
// non-blocking (the bus drops for slow consumers).
func (e *Executor) publish(job *Job, typ, detail string) {
	if e.stream == nil {
		return
	}
	e.stream.Publish(tsdb.EventJob, time.Now(), JobStreamEvent{
		JobID: job.ID, RequestID: job.RequestID, State: job.State,
		Type: typ, Detail: detail,
	})
}

// Submit validates and enqueues one job, returning its snapshot. A spec
// whose outcome is already cached is served straight from the cache — a
// terminal cache-hit View with no job ID, since nothing was minted; the
// steady-state hit path performs zero heap allocations (pooled canonical
// buffer, stack hash, one cache-lock lookup). A spec identical to a queued
// or running job coalesces onto that job instead of enqueueing a duplicate.
// A submission that finds the queue full is shed with ErrShed, and one
// for a registry entry whose recent jobs kept failing is refused with
// ErrBreakerOpen — but cache hits and coalesced submissions still
// succeed, since they run nothing.
func (e *Executor) Submit(spec JobSpec) (View, error) {
	return e.SubmitWith(spec, SubmitOpts{})
}

// SubmitWith is Submit carrying the request's inbound identity: a parsed
// traceparent (or X-Request-ID trace ID), whose trace ID becomes the
// request ID. Identity never enters the cache key — caching stays content-addressed by spec alone — and a
// submission without a valid inbound trace pays nothing on the cache-hit
// fast path (minting happens only for jobs, on the slow path).
func (e *Executor) SubmitWith(spec JobSpec, opts SubmitOpts) (View, error) {
	if e.draining.Load() {
		return View{}, e.refuse(spec, opts, "draining", ErrDraining)
	}
	key, ok := specKey(spec)
	if !ok {
		// Non-finite floats, which Validate names as a bad spec.
		if err := spec.Validate(); err != nil {
			return View{}, err
		}
		return View{}, fmt.Errorf("%w: spec not canonicalizable", ErrBadSpec)
	}
	if ent, hit := e.cache.lookup(key); hit {
		e.metrics.JobsSubmitted.Inc()
		e.metrics.CacheHits.Inc()
		now := time.Now()
		if opts.Trace.Valid {
			// The client asked to be traced; record the hit as a one-span
			// trace. Untraced hits skip this branch entirely.
			e.recordRequestTrace(spec, opts, false, "done", "cache", "hit")
		}
		return ent.hitView(now), nil
	}
	return e.submitSlow(spec, key, opts)
}

// submitSlow is the cache-miss continuation of Submit: resolve through
// the registry, then under the executor lock re-check the cache (a
// concurrent worker may have just published), coalesce onto an in-flight
// job, find the queue room and pass the entry's circuit breaker, and
// only then build and enqueue the job. Sends happen only under e.mu and
// workers only take from the queue, so room found here is still there at
// the send; a refusal mints no job, ID or trace beyond its shed record.
func (e *Executor) submitSlow(spec JobSpec, key CacheKey, opts SubmitOpts) (View, error) {
	run, err := e.resolve(spec)
	if err != nil {
		return View{}, err
	}
	spec = spec.withDefaults()
	// The submission's one ID: its request ID and its trace ID.
	if !opts.Trace.Valid {
		opts.Trace = obs.NewTraceContext()
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.draining.Load() {
		return View{}, e.refuse(spec, opts, "draining", ErrDraining)
	}
	e.metrics.JobsSubmitted.Inc()

	if ent, ok := e.cache.lookup(key); ok { // published since the fast path
		e.metrics.CacheHits.Inc()
		e.logger.Info("job served from cache", "request_id", opts.Trace.TraceID.String(),
			"hash", short(hex.EncodeToString(key[:])))
		return ent.hitView(time.Now()), nil
	}
	if job, ok := e.flights[key]; ok {
		reqID := opts.Trace.TraceID.String()
		e.metrics.CacheHits.Inc()
		e.event(job, EventCoalesced, "request "+reqID+" coalesced onto this job")
		e.logger.Info("submission coalesced onto in-flight job", "request_id", reqID,
			"job_id", job.ID, "job_request_id", job.RequestID, "hash", short(job.Hash))
		return job.view(), nil
	}
	if len(e.queue) == cap(e.queue) {
		return View{}, e.refuse(spec, opts, "queue-full",
			fmt.Errorf("%w: queue full (depth %d)", ErrShed, cap(e.queue)))
	}
	if err := e.breakers.Admit(run.breakerKey(spec)); err != nil {
		return View{}, e.refuse(spec, opts, "breaker-open", err)
	}

	job := &Job{
		ID: e.nextID(), RequestID: opts.Trace.TraceID.String(), Hash: hex.EncodeToString(key[:]),
		Spec: spec, key: key, State: StateQueued, SubmittedAt: time.Now(), runner: run,
	}
	job.latency, job.latencySLO = run.latency(e)
	e.mintTrace(job, opts)
	e.queue <- job
	e.metrics.CacheMisses.Inc()
	// A worker that already dequeued the job blocks on e.mu until these
	// two events are in, so the root span's events open with them.
	e.event(job, EventSubmitted, run.detail(spec))
	e.event(job, EventQueued, fmt.Sprintf("position %d", len(e.queue)))
	e.jobs[job.ID] = job
	e.flights[key] = job
	e.metrics.QueueDepth.Set(int64(len(e.queue)))
	e.logger.Info("job submitted", "request_id", job.RequestID, "job_id", job.ID,
		"hash", short(job.Hash), "workload", spec.Workload, "policy", spec.Policy,
		"queue_depth", len(e.queue))
	return job.view(), nil
}

// refuse turns a submission away at admission and returns err. reason
// is "queue-full", "breaker-open" or "draining": the
// capmand_shed_total{reason} label, the shed trace's shed_reason and the
// log line's reason. Its one-span shed trace is all a refusal builds.
// The trace and the line carry the submission's one ID, minted here when
// the client sent none, so admitted submissions never pay for it on the
// fast path.
func (e *Executor) refuse(spec JobSpec, opts SubmitOpts, reason string, err error) error {
	if !opts.Trace.Valid {
		opts.Trace = obs.NewTraceContext()
	}
	e.metrics.Shed.WithLabelValues(reason).Inc()
	e.recordRequestTrace(spec, opts, true, "shed", "shed_reason", reason)
	e.logger.Warn("submission refused", "request_id", opts.Trace.TraceID.String(),
		"reason", reason, "error", err.Error())
	return err
}

// short abbreviates a content hash for log lines.
func short(hash string) string {
	if len(hash) > 12 {
		return hash[:12]
	}
	return hash
}

// nextID mints a job identifier; callers hold the lock.
func (e *Executor) nextID() string {
	e.seq++
	return fmt.Sprintf("j%08d", e.seq)
}

// Get snapshots a job by ID.
func (e *Executor) Get(id string) (View, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	job, ok := e.jobs[id]
	if !ok {
		return View{}, ErrNotFound
	}
	return job.view(), nil
}

// List snapshots every job in the table, newest first. Only the snapshot
// holds the lock; the sort runs after it is released.
func (e *Executor) List() []View {
	e.mu.Lock()
	views := make([]View, 0, len(e.jobs))
	for _, job := range e.jobs {
		views = append(views, job.view())
	}
	e.mu.Unlock()
	// Jobs carry monotonically increasing IDs; sort newest first.
	slices.SortFunc(views, func(a, b View) int { return strings.Compare(b.ID, a.ID) })
	return views
}

// Cancel stops a job: a queued job is dropped before it runs, a running
// job has its context cancelled and reaches the cancelled state as soon as
// the simulator observes it (step granularity). Cancelling a terminal job
// is a no-op. Note that a coalesced submission shares its job with the
// original submitter, so cancellation affects both.
func (e *Executor) Cancel(id string) (View, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	job, ok := e.jobs[id]
	if !ok {
		return View{}, ErrNotFound
	}
	switch job.State {
	case StateQueued:
		e.cancelQueued(job)
	case StateRunning:
		job.cancel() // worker publishes the terminal state
	}
	return job.view(), nil
}

// cancelQueued ends a job that never left the queue (the worker that
// dequeues it skips it): its queue span closes and it takes the same
// finish step as a job a worker ran. Callers hold e.mu.
func (e *Executor) cancelQueued(job *Job) {
	detail := "cancelled while queued"
	job.Err = context.Canceled.Error()
	if job.cancelReason != "" { // a drain's cancel reads apart from a DELETE
		detail = job.cancelReason
		job.Err += ": " + detail
	}
	job.queueSpan.End()
	job.FinishedAt = time.Now()
	e.metrics.JobsCancelled.Inc()
	e.logger.Info("job cancelled while queued",
		"request_id", job.RequestID, "job_id", job.ID, "reason", detail)
	e.finish(job, StateCancelled, EventCancelled, detail)
}

// finish publishes a job's terminal state; every job that ends takes
// this step. In order: the terminal event and state on its root span,
// its place in the FIFO of finished jobs (ageing the oldest out of the
// table once the FIFO is full), the cache entry, and the terminal "job"
// and "trace" frames. Callers hold e.mu and have already set the job's
// other terminal fields, so a client that sees the state can already
// read everything else.
func (e *Executor) finish(job *Job, state State, typ, detail string) {
	job.rootSpan.Event(obs.FlightLifecycle, typ, detail, nil)
	job.rootSpan.SetAttr("state", string(state))
	job.rootSpan.End()
	job.State = state
	job.releaseConfig()
	if old := e.done[e.doneNext]; old != nil {
		delete(e.jobs, old.ID)
		e.agedOut++
	}
	e.done[e.doneNext] = job
	e.doneNext = (e.doneNext + 1) % len(e.done)
	if e.flights[job.key] == job { // a raced replacement keeps its flight
		delete(e.flights, job.key)
	}
	if state == StateDone {
		e.cache.putOutcome(job, job.Outcome)
	}
	e.publish(job, typ, detail)
	if job.traced { // summarized without rendering the span tree
		e.publishTrace(summarize(e.recordHead(job), job.rec.Len()))
	}
}

// JobTrace renders a job's record (Executor.record): a live snapshot
// while the job is queued or running, its final record once it ends.
func (e *Executor) JobTrace(id string) (*obs.StoredTrace, error) {
	e.mu.Lock()
	job, ok := e.jobs[id]
	var snap Job
	if ok {
		snap = *job
	}
	e.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	return e.record(&snap), nil
}

// QueueDepth reports the current backlog.
func (e *Executor) QueueDepth() int {
	return len(e.queue)
}

// worker drains the FIFO queue until Drain closes it.
func (e *Executor) worker() {
	defer e.wg.Done()
	// base is this worker's registry baseline, retaken at every dequeue
	// into the same buffer; only a failed job's deltas read it.
	var base metrics.Baseline
	for job := range e.queue {
		e.metrics.QueueDepth.Set(int64(len(e.queue)))
		ctx, cancel, ok := e.start(job)
		if !ok { // cancelled while queued
			continue
		}
		// Only this worker and finish touch a running job's runner.
		run := job.runner
		run.prepare(e)
		base.Take(e.metrics.Registry())

		// Label the execution for CPU profiles: with -pprof, samples segment
		// by job kind and the request that submitted the work.
		var (
			out *Outcome
			err error
		)
		e.metrics.WorkersBusy.Add(1)
		pprof.Do(ctx, pprof.Labels("kind", job.Spec.kindName(), "request_id", job.RequestID),
			func(ctx context.Context) {
				out, err = e.runRecovered(ctx, run)
			})
		cancel()
		e.metrics.WorkersBusy.Add(-1)
		e.complete(job, run, out, err, &base)
	}
}

// start moves a dequeued job to running and returns its context, which
// carries the job timeout, a request-tagged logger and the job's record.
// It reports false for a job cancelled while queued.
func (e *Executor) start(job *Job) (context.Context, context.CancelFunc, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if job.State != StateQueued {
		return nil, nil, false
	}
	// The job timeout starts here, at dequeue: time spent waiting in
	// the queue never counts against JobTimeout and is recorded
	// separately in the queue_wait_seconds histogram.
	ctx := context.Background()
	var cancel context.CancelFunc
	if e.timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, e.timeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	job.State = StateRunning
	job.StartedAt = time.Now()
	job.cancel = cancel
	wait := job.StartedAt.Sub(job.SubmittedAt)
	job.queueSpan.SetAttr("wait_s", wait.Seconds())
	job.queueSpan.End() // admission-rooted queue span closes at dequeue
	e.metrics.QueueWaitSeconds.Observe(wait.Seconds())
	e.event(job, EventRunning, fmt.Sprintf("after %.3fs queued", wait.Seconds()))
	if e.queueWarn > 0 && wait > e.queueWarn {
		e.metrics.QueueWaitWarnings.Inc()
		e.event(job, EventQueueWaitWarning,
			fmt.Sprintf("queued %.3fs, threshold %s", wait.Seconds(), e.queueWarn))
		e.logger.Warn("pathological queue wait",
			"request_id", job.RequestID, "job_id", job.ID,
			"wait_s", wait.Seconds(), "threshold", e.queueWarn.String())
	}
	// Everything downstream — sim runs, twin batches — logs under the
	// submission's identity, and the job's span recorder, minted at
	// admission, is its one record: lifecycle events on the root span,
	// engine breadcrumbs on sim.run/twin.run. Engine spans opened down the
	// call chain nest under the request's root span.
	ctx = obs.WithLogger(ctx, e.logger.With("request_id", job.RequestID, "job_id", job.ID))
	return obs.WithSpan(obs.WithRecorder(ctx, job.rec), job.rootSpan), cancel, true
}

// complete publishes the end of a job a worker ran. Everything a terminal
// observer may read next — counters, the wall histograms, the metric
// deltas — is recorded before finish publishes the terminal state, so a
// client that sees done or failed never finds them missing.
func (e *Executor) complete(job *Job, run runner, out *Outcome, err error, base *metrics.Baseline) {
	if err == nil {
		// Encode the outcome once, outside the lock, so every future
		// cache hit reuses the bytes instead of re-marshaling.
		out.primeRaw()
	}
	finished := time.Now()
	wall := finished.Sub(job.StartedAt)
	state, typ, detail := StateDone, EventDone, ""
	switch {
	case err == nil:
		e.metrics.JobsCompleted.Inc()
		e.logger.Info("job done", "request_id", job.RequestID, "job_id", job.ID, "wall_s", wall.Seconds(),
			"queue_wait_s", job.StartedAt.Sub(job.SubmittedAt).Seconds())
	case errors.Is(err, context.Canceled):
		state, typ, detail = StateCancelled, EventCancelled, err.Error()
		e.metrics.JobsCancelled.Inc()
		e.logger.Info("job cancelled", "request_id", job.RequestID, "job_id", job.ID,
			"wall_s", wall.Seconds())
	default:
		state, typ, detail = StateFailed, EventFailed, err.Error()
		e.metrics.JobsFailed.Inc()
		e.logger.Warn("job failed", "request_id", job.RequestID, "job_id", job.ID,
			"wall_s", wall.Seconds(), "error", err)
	}
	e.metrics.JobWallSeconds.Observe(wall.Seconds())
	job.latency.Observe(wall.Seconds())
	fatal := run.account(e, out)
	// A cancellation says nothing about the registry entry's health,
	// so the breaker skips it.
	if state != StateCancelled && e.breakers.Record(run.breakerKey(job.Spec), state == StateFailed) {
		e.metrics.BreakerTrips.Inc()
	}
	// A failed job's deltas are taken after the counters, so they
	// include everything the failure moved (failed counter, wall
	// histogram).
	var deltas []obs.MetricDelta
	if state == StateFailed {
		deltas = base.Delta()
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	job.FinishedAt = finished
	job.deltas = deltas
	if state == StateDone {
		job.Outcome, job.fatal = out, fatal
	} else {
		job.Err = err.Error()
	}
	if state == StateCancelled && job.cancelReason != "" {
		detail = job.cancelReason
		job.Err += ": " + detail // a drain's cancel reads apart from a DELETE
	}
	e.finish(job, state, typ, detail)
}

// runRecovered invokes the run function with panic isolation: a panic in
// a policy or workload becomes this job's error, so the worker goroutine
// — and with it the pool — survives.
func (e *Executor) runRecovered(ctx context.Context, run runner) (out *Outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			e.metrics.JobPanics.Inc()
			out, err = nil, fmt.Errorf("server: job panicked: %v", r)
		}
	}()
	return e.runFn(ctx, run)
}

// drainExhausted is the detail of the cancelled event that ends each job
// a drain budget ran out on.
const drainExhausted = "drain budget exhausted"

// Drain stops accepting submissions, lets queued and running jobs finish,
// and returns when the pool is idle. If ctx expires first, every in-flight
// job is cancelled, its record saying why, and Drain still waits for the
// workers to observe the cancellation before returning the context's
// error.
func (e *Executor) Drain(ctx context.Context) error {
	e.mu.Lock()
	var queued, running int
	for _, job := range e.jobs {
		switch job.State {
		case StateQueued:
			queued++
		case StateRunning:
			running++
		}
	}
	if !e.draining.Swap(true) {
		close(e.queue) // e.mu serializes the close against queue sends
	}
	e.mu.Unlock()
	e.logger.Info("drain started", "queued", queued, "running", running)

	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		e.logger.Info("drain complete: all jobs finished")
		return nil
	case <-ctx.Done():
		e.mu.Lock()
		var cancelled int
		for _, job := range e.jobs {
			if job.State.Terminal() {
				continue
			}
			job.cancelReason = drainExhausted
			if job.State == StateRunning {
				job.cancel()
			} else {
				e.cancelQueued(job)
			}
			cancelled++
		}
		e.mu.Unlock()
		e.logger.Warn("drain budget exhausted; cancelling in-flight jobs",
			"cancelled", cancelled)
		<-done
		return ctx.Err()
	}
}
