package server

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func contextWithTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}

func newTestExecutor(t *testing.T, cfg ExecutorConfig) *Executor {
	t.Helper()
	e := NewExecutor(cfg)
	t.Cleanup(func() {
		ctx, cancel := contextWithTimeout(2 * time.Second)
		defer cancel()
		_ = e.Drain(ctx)
	})
	return e
}

func awaitExec(t *testing.T, e *Executor, id string, pred func(View) bool, what string) View {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		v, err := e.Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if pred(v) {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never became %s", id, what)
	return View{}
}

func TestExecutorQueueFullRejects(t *testing.T) {
	e := newTestExecutor(t, ExecutorConfig{Workers: 1, QueueDepth: 1})

	running, err := e.Submit(slowSpec(10))
	if err != nil {
		t.Fatal(err)
	}
	awaitExec(t, e, running.ID, func(v View) bool { return v.State == StateRunning }, "running")
	if _, err := e.Submit(slowSpec(11)); err != nil {
		t.Fatalf("queued submit: %v", err)
	}
	_, err = e.Submit(slowSpec(12))
	if !errors.Is(err, ErrShed) {
		t.Fatalf("overflow submit error %v, want ErrShed", err)
	}
}

func TestExecutorJobTimeoutFails(t *testing.T) {
	e := newTestExecutor(t, ExecutorConfig{Workers: 1, JobTimeout: 20 * time.Millisecond})

	v, err := e.Submit(slowSpec(20))
	if err != nil {
		t.Fatal(err)
	}
	done := awaitExec(t, e, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")
	if done.State != StateFailed {
		t.Fatalf("timed-out job ended %q, want failed", done.State)
	}
	if !strings.Contains(done.Error, context.DeadlineExceeded.Error()) {
		t.Errorf("timeout error %q does not mention the deadline", done.Error)
	}
}

func TestExecutorCancelQueuedJob(t *testing.T) {
	e := newTestExecutor(t, ExecutorConfig{Workers: 1, QueueDepth: 4})

	running, err := e.Submit(slowSpec(30))
	if err != nil {
		t.Fatal(err)
	}
	awaitExec(t, e, running.ID, func(v View) bool { return v.State == StateRunning }, "running")
	queued, err := e.Submit(slowSpec(31))
	if err != nil {
		t.Fatal(err)
	}
	v, err := e.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateCancelled {
		t.Fatalf("queued job state %q after cancel", v.State)
	}
	// Cancelling a terminal job is an idempotent no-op.
	if again, err := e.Cancel(queued.ID); err != nil || again.State != StateCancelled {
		t.Errorf("re-cancel: state %q err %v", again.State, err)
	}
	if _, err := e.Cancel("j99999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("cancel of unknown job: %v", err)
	}
}

// TestCancelledQueuedJobRecordEnds: a job cancelled while queued, by
// Cancel or by an exhausted drain budget, finishes like a job a worker
// ran: its record has no span left in progress, reads cancelled, and
// it is retained at /v1/traces.
func TestCancelledQueuedJobRecordEnds(t *testing.T) {
	check := func(t *testing.T, e *Executor, v View, detail string) {
		t.Helper()
		tr := mustJobTrace(t, e, v.ID)
		if tr.Outcome != string(StateCancelled) {
			t.Errorf("record outcome %q, want cancelled", tr.Outcome)
		}
		var open []string
		var walk func([]obs.SpanNode)
		walk = func(nodes []obs.SpanNode) {
			for _, n := range nodes {
				if n.InProgress {
					open = append(open, n.Name)
				}
				walk(n.Children)
			}
		}
		walk(tr.Spans)
		if len(open) != 0 {
			t.Errorf("spans still in progress: %v", open)
		}
		evs, _ := rootEvents(t, tr)
		want := []string{EventSubmitted, EventQueued, EventCancelled}
		if got := eventTypes(evs); strings.Join(got, ",") != strings.Join(want, ",") || evs[2].Detail != detail {
			t.Errorf("lifecycle %v ending %q, want %v ending %q", got, evs[len(evs)-1].Detail, want, detail)
		}
		if tr.Spans[0].Attrs["state"] != string(StateCancelled) {
			t.Errorf("root span state attr %v, want cancelled", tr.Spans[0].Attrs["state"])
		}
		if st, ok := e.Trace(v.TraceID); !ok || st.Outcome != string(StateCancelled) {
			t.Errorf("cancelled job's trace not retained (%v)", ok)
		}
	}
	cfg := ExecutorConfig{Workers: 1, QueueDepth: 4}

	t.Run("cancel", func(t *testing.T) {
		e := newTestExecutor(t, cfg)
		release := shedGate(e)
		defer release()
		running, err := e.Submit(seededSpec(1))
		if err != nil {
			t.Fatal(err)
		}
		awaitExec(t, e, running.ID, func(v View) bool { return v.State == StateRunning }, "running")
		queued, err := e.Submit(seededSpec(2))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Cancel(queued.ID); err != nil {
			t.Fatal(err)
		}
		check(t, e, queued, "cancelled while queued")
	})

	t.Run("drain-budget", func(t *testing.T) {
		e := NewExecutor(cfg)
		shedGate(e) // never released: the running job holds the only worker
		running, err := e.Submit(seededSpec(1))
		if err != nil {
			t.Fatal(err)
		}
		awaitExec(t, e, running.ID, func(v View) bool { return v.State == StateRunning }, "running")
		queued, err := e.Submit(seededSpec(2))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := contextWithTimeout(50 * time.Millisecond)
		defer cancel()
		if err := e.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("drain error %v, want deadline exceeded", err)
		}
		check(t, e, queued, "drain budget exhausted")
	})
}

func TestExecutorDrainFinishesInFlightWork(t *testing.T) {
	e := NewExecutor(ExecutorConfig{Workers: 1})
	v, err := e.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := contextWithTimeout(60 * time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	got, err := e.Get(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone {
		t.Fatalf("drained job state %q, want done", got.State)
	}
	if _, err := e.Submit(fastSpec()); !errors.Is(err, ErrDraining) {
		t.Errorf("post-drain submit error %v, want ErrDraining", err)
	}
}

func TestExecutorDrainDeadlineCancelsRunningJobs(t *testing.T) {
	e := NewExecutor(ExecutorConfig{Workers: 1})
	v, err := e.Submit(slowSpec(40))
	if err != nil {
		t.Fatal(err)
	}
	awaitExec(t, e, v.ID, func(v View) bool { return v.State == StateRunning }, "running")

	ctx, cancel := contextWithTimeout(50 * time.Millisecond)
	defer cancel()
	if err := e.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain error %v, want deadline exceeded", err)
	}
	got, err := e.Get(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCancelled {
		t.Fatalf("force-drained job state %q, want cancelled", got.State)
	}
}

func TestExecutorMultiCycleJob(t *testing.T) {
	e := newTestExecutor(t, ExecutorConfig{Workers: 1})
	spec := fastSpec()
	spec.Cycles = 2
	spec.BigMAh, spec.LittleMAh = 120, 120
	spec.MaxTimeS = 1500
	v, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	done := awaitExec(t, e, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")
	if done.State != StateDone {
		t.Fatalf("cycles job ended %q (err %q)", done.State, done.Error)
	}
	if done.Outcome == nil || done.Outcome.Cycles == nil {
		t.Fatal("cycles job missing CyclesResult outcome")
	}
	if got := len(done.Outcome.Cycles.Outcomes); got != 2 {
		t.Errorf("got %d cycle outcomes, want 2", got)
	}
}

// TestFinishedJobReleasesConfig: finished jobs stay in the job table, so a
// terminal job must drop its resolved config, and with it the policy
// (for CAPMAN, the scheduler's estimator, model and similarity index).
func TestFinishedJobReleasesConfig(t *testing.T) {
	e := newTestExecutor(t, ExecutorConfig{Workers: 1, QueueDepth: 4})
	held := func(id string) bool {
		e.mu.Lock()
		defer e.mu.Unlock()
		return e.jobs[id].runner != nil
	}

	v, err := e.Submit(JobSpec{Workload: "video", Seed: 42, Policy: "capman",
		BigMAh: 300, LittleMAh: 300, MaxTimeS: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if done := awaitExec(t, e, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal"); done.State != StateDone {
		t.Fatalf("capman job ended %q: %s", done.State, done.Error)
	}
	if held(v.ID) {
		t.Error("completed job still references its policy")
	}

	// A job cancelled while queued never runs; it releases its config too.
	running, err := e.Submit(slowSpec(40))
	if err != nil {
		t.Fatal(err)
	}
	awaitExec(t, e, running.ID, func(v View) bool { return v.State == StateRunning }, "running")
	queued, err := e.Submit(slowSpec(41))
	if err != nil {
		t.Fatal(err)
	}
	if !held(queued.ID) {
		t.Fatal("queued job holds no config before it runs")
	}
	if _, err := e.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if held(queued.ID) {
		t.Error("job cancelled while queued still references its policy")
	}
	if _, err := e.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
}

// TestListNewestFirst pins GET /v1/jobs order over several jobs: newest
// (highest ID) first.
func TestListNewestFirst(t *testing.T) {
	e := newTestExecutor(t, ExecutorConfig{Workers: 1})
	release := shedGate(e)
	defer release()
	var ids []string
	for seed := int64(1); seed <= 4; seed++ {
		v, err := e.Submit(seededSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		ids = append([]string{v.ID}, ids...)
	}
	var got []string
	for _, v := range e.List() {
		got = append(got, v.ID)
	}
	if strings.Join(got, ",") != strings.Join(ids, ",") {
		t.Errorf("List order %v, want newest first %v", got, ids)
	}
}
