package server

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/sim"
)

const testTraceparent = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"

func testOpts() SubmitOpts {
	return SubmitOpts{Trace: obs.ParseTraceparent(testTraceparent)}
}

// spanNames flattens a span forest into "name" and "parent>child" paths.
func spanNames(nodes []obs.SpanNode, prefix string, into map[string]int) {
	for _, n := range nodes {
		path := n.Name
		if prefix != "" {
			path = prefix + ">" + n.Name
		}
		into[path]++
		spanNames(n.Children, path, into)
	}
}

// TestTraceEndToEnd submits a traced sim job and checks the whole
// pipeline: the inbound traceparent's ID is adopted, the job view links
// it, and the retained waterfall covers admission → queue → attempt →
// engine phases.
func TestTraceEndToEnd(t *testing.T) {
	e := newTestExecutor(t, ExecutorConfig{Workers: 1})
	v, err := e.SubmitWith(fastSpec(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if v.TraceID != "0af7651916cd43dd8448eb211c80319c" {
		t.Errorf("view trace ID %q, want the inbound traceparent's", v.TraceID)
	}
	if v.RequestID != "0af7651916cd43dd8448eb211c80319c" {
		t.Errorf("view request ID %q, want the inbound traceparent's trace ID", v.RequestID)
	}
	done := awaitExec(t, e, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")
	if done.State != StateDone {
		t.Fatalf("job ended %q: %s", done.State, done.Error)
	}

	tr, ok := e.Trace(v.TraceID)
	if !ok {
		t.Fatal("finished traced job not retained")
	}
	if tr.JobID != v.ID || tr.Outcome != "done" || tr.Kind != "sim" {
		t.Errorf("stored trace = job %s outcome %s kind %s", tr.JobID, tr.Outcome, tr.Kind)
	}
	if len(tr.Flags) != 0 {
		t.Errorf("healthy trace carries flags %v", tr.Flags)
	}
	if tr.DurationS <= 0 {
		t.Errorf("trace duration %v, want > 0", tr.DurationS)
	}

	names := map[string]int{}
	spanNames(tr.Spans, "", names)
	for _, want := range []string{
		"request",
		"request>queue",
		"request>sim.run",
		"request>sim.run>phase:policy",
	} {
		if names[want] == 0 {
			t.Errorf("waterfall missing span path %q (have %v)", want, names)
		}
	}

	// Root carries the admission-minted span ID and links children to it.
	if tr.Spans[0].SpanID == "" || tr.Spans[0].SpanID == "b7ad6b7169203331" {
		t.Errorf("root span ID %q: must be minted server-side, not the client's", tr.Spans[0].SpanID)
	}
	for _, c := range tr.Spans[0].Children {
		if c.ParentSpanID != tr.Spans[0].SpanID {
			t.Errorf("child %s parent %q, want root %q", c.Name, c.ParentSpanID, tr.Spans[0].SpanID)
		}
	}
}

// TestTerminalStatePublishedLast pins the worker's publication order:
// the first observation of a terminal state already finds the job's
// retained trace and its final record, with a failed job's metric
// deltas. Pollers spin on every job of a batch (one job failing) from
// before the jobs may run.
func TestTerminalStatePublishedLast(t *testing.T) {
	e := newTestExecutor(t, ExecutorConfig{Workers: 2})
	const failSeed = 5
	start := make(chan struct{})
	var failing runner // the failSeed job's, set before start closes
	e.runFn = func(ctx context.Context, r runner) (*Outcome, error) {
		<-start
		if r == failing {
			return nil, errors.New("engine fault")
		}
		return &Outcome{}, nil
	}

	var wg sync.WaitGroup
	for seed := int64(1); seed <= 12; seed++ {
		v, err := e.Submit(seededSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		if seed == failSeed {
			e.mu.Lock()
			failing = e.jobs[v.ID].runner
			e.mu.Unlock()
		}
		wg.Add(1)
		go func(v View) {
			defer wg.Done()
			deadline := time.Now().Add(10 * time.Second)
			for time.Now().Before(deadline) {
				cur, err := e.Get(v.ID)
				if err != nil || !cur.State.Terminal() {
					runtime.Gosched()
					continue
				}
				if _, ok := e.Trace(v.TraceID); !ok {
					t.Errorf("job %s seen %s before its trace was retained", v.ID, cur.State)
				}
				if tr, err := e.JobTrace(v.ID); err != nil || tr.Outcome != string(cur.State) {
					t.Errorf("job %s seen %s before its record: %v", v.ID, cur.State, err)
				} else if cur.State == StateFailed && len(tr.MetricDeltas) == 0 {
					t.Errorf("job %s seen failed before its record's metric deltas", v.ID)
				}
				return
			}
			t.Errorf("job %s never reached a terminal state", v.ID)
		}(v)
	}
	close(start)
	wg.Wait()
}

// TestTraceMintedWithoutInbound: untraced submissions still get a
// server-minted trace ID on the slow path (cache hits mint nothing).
func TestTraceMintedWithoutInbound(t *testing.T) {
	e := newTestExecutor(t, ExecutorConfig{Workers: 1})
	v, err := e.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(v.TraceID) != 32 {
		t.Fatalf("minted trace ID %q, want 32 hex chars", v.TraceID)
	}
	awaitExec(t, e, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")
	if _, ok := e.Trace(v.TraceID); !ok {
		t.Error("server-minted trace not retained")
	}

	// A duplicate submission is a cache hit: no trace work without an
	// inbound traceparent, so the view has no trace ID.
	hit, err := e.Submit(fastSpec())
	if err != nil || !hit.CacheHit {
		t.Fatalf("dup submit: %+v %v", hit, err)
	}
	if hit.TraceID != "" {
		t.Errorf("untraced cache hit carries trace ID %q", hit.TraceID)
	}
}

// TestTraceCacheHitWithInbound: a traced client gets a one-span cache-hit
// trace joined to its own trace ID.
func TestTraceCacheHitWithInbound(t *testing.T) {
	e := newTestExecutor(t, ExecutorConfig{Workers: 1})
	v, err := e.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	awaitExec(t, e, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")

	hit, err := e.SubmitWith(fastSpec(), testOpts())
	if err != nil || !hit.CacheHit {
		t.Fatalf("traced hit: %+v %v", hit, err)
	}
	tr, ok := e.Trace("0af7651916cd43dd8448eb211c80319c")
	if !ok {
		t.Fatal("traced cache hit not retained")
	}
	if tr.Outcome != "done" || len(tr.Spans) != 1 || tr.Spans[0].Attrs["cache"] != "hit" {
		t.Errorf("cache-hit trace = %+v, want one request span with cache=hit", tr)
	}
}

// TestTraceSignalRetention: every finished job is retained, the healthy
// with no flags, and every error, shed, SLO-breach and fatal-invariant
// record carries its flag.
func TestTraceSignalRetention(t *testing.T) {
	newE := func(t *testing.T, cfg ExecutorConfig) *Executor {
		if cfg.Workers == 0 {
			cfg.Workers = 1
		}
		return newTestExecutor(t, cfg)
	}
	submitTraced := func(t *testing.T, e *Executor, spec JobSpec) View {
		t.Helper()
		tc := obs.NewTraceContext()
		v, err := e.SubmitWith(spec, SubmitOpts{Trace: tc})
		if err != nil {
			t.Fatal(err)
		}
		if v.RequestID != tc.TraceID.String() {
			t.Fatalf("request ID %q, want the traceparent's trace ID %s", v.RequestID, tc.TraceID)
		}
		return v
	}

	t.Run("healthy-retained", func(t *testing.T) {
		e := newE(t, ExecutorConfig{})
		v := submitTraced(t, e, fastSpec())
		awaitExec(t, e, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")
		tr, ok := e.Trace(v.TraceID)
		if !ok {
			t.Fatal("healthy job's trace not retained")
		}
		if tr.Outcome != "done" || len(tr.Flags) != 0 {
			t.Errorf("healthy trace outcome %s flags %v, want done and no flags", tr.Outcome, tr.Flags)
		}
	})

	t.Run("error", func(t *testing.T) {
		e := newE(t, ExecutorConfig{})
		e.runFn = func(context.Context, runner) (*Outcome, error) {
			return nil, errors.New("deterministic failure")
		}
		v := submitTraced(t, e, fastSpec())
		awaitExec(t, e, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")
		tr, ok := e.Trace(v.TraceID)
		if !ok {
			t.Fatal("failed job's trace dropped")
		}
		if tr.Outcome != "failed" || !hasFlag(tr.Flags, "error") {
			t.Errorf("trace outcome %s flags %v, want failed + error", tr.Outcome, tr.Flags)
		}
	})

	t.Run("shed", func(t *testing.T) {
		e := newE(t, ExecutorConfig{QueueDepth: 1})
		release := shedGate(e)
		defer release()
		first := submitTraced(t, e, seededSpec(1))
		awaitExec(t, e, first.ID, func(v View) bool { return v.State == StateRunning }, "running")
		if _, err := e.SubmitWith(seededSpec(2), testOpts()); err != nil {
			t.Fatal(err)
		}
		tc := obs.NewTraceContext()
		_, err := e.SubmitWith(seededSpec(3), SubmitOpts{Trace: tc})
		if !errors.Is(err, ErrShed) {
			t.Fatalf("submit to a full queue returned %v, want ErrShed", err)
		}
		tr, ok := e.Trace(tc.TraceID.String())
		if !ok {
			t.Fatal("shed trace dropped — 429s must be retained")
		}
		if tr.Outcome != "shed" || !hasFlag(tr.Flags, "shed") {
			t.Errorf("shed trace outcome %s flags %v", tr.Outcome, tr.Flags)
		}
		if len(tr.Spans) != 1 || tr.Spans[0].Attrs["shed_reason"] != "queue-full" {
			t.Errorf("shed trace spans %+v, want one span with shed_reason=queue-full", tr.Spans)
		}
	})

	t.Run("slo-breach", func(t *testing.T) {
		e := newE(t, ExecutorConfig{})
		e.armTraceSLO(time.Nanosecond, 0) // any queue wait breaches
		v := submitTraced(t, e, fastSpec())
		awaitExec(t, e, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")
		tr, ok := e.Trace(v.TraceID)
		if !ok {
			t.Fatal("SLO-breaching trace dropped")
		}
		if tr.Outcome != "done" || !hasFlag(tr.Flags, "slo-breach") {
			t.Errorf("outcome %s flags %v, want done + slo-breach", tr.Outcome, tr.Flags)
		}
	})

	t.Run("fatal-invariant", func(t *testing.T) {
		e := newE(t, ExecutorConfig{})
		e.runFn = func(context.Context, runner) (*Outcome, error) {
			return &Outcome{Run: &sim.Result{Invariants: &invariant.Report{Fatal: true, Total: 1}}}, nil
		}
		v := submitTraced(t, e, fastSpec())
		awaitExec(t, e, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")
		tr, ok := e.Trace(v.TraceID)
		if !ok {
			t.Fatal("fatal-invariant trace dropped")
		}
		if tr.Outcome != "done" || !hasFlag(tr.Flags, "fatal-invariant") {
			t.Errorf("outcome %s flags %v, want done + fatal-invariant", tr.Outcome, tr.Flags)
		}
	})
}

func hasFlag(flags []string, want string) bool {
	for _, f := range flags {
		if f == want {
			return true
		}
	}
	return false
}

// TestTraceDisabled: with TraceConfig.Disable nothing is minted and the
// store is nil.
func TestTraceDisabled(t *testing.T) {
	e := newTestExecutor(t, ExecutorConfig{Workers: 1, Trace: TraceConfig{Disable: true}})
	if e.traces != nil {
		t.Fatal("disabled tracing still built a store")
	}
	v, err := e.SubmitWith(fastSpec(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if v.TraceID != "" {
		t.Errorf("disabled tracing minted trace ID %q", v.TraceID)
	}
	done := awaitExec(t, e, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")
	if done.State != StateDone {
		t.Fatalf("job ended %q: %s", done.State, done.Error)
	}
}
