package server

import (
	"context"
	"errors"
	"testing"
	"time"
)

// gateTTEExecutor builds a one-worker executor whose run function blocks on
// the returned gate before executing the real job, so a test can hold a tte
// job provably in-flight while Drain begins.
func gateTTEExecutor() (*Executor, chan struct{}) {
	e := NewExecutor(ExecutorConfig{Workers: 1})
	gate := make(chan struct{})
	e.runFn = func(ctx context.Context, r runner) (*Outcome, error) {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return r.run(ctx)
	}
	return e, gate
}

// startDrain begins draining in the background and reports when the
// executor has flipped into draining mode (submissions rejected), so the
// caller knows Drain is underway before deciding the in-flight job's fate.
func startDrain(t *testing.T, e *Executor, ctx context.Context) <-chan error {
	t.Helper()
	drained := make(chan error, 1)
	go func() { drained <- e.Drain(ctx) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := e.Submit(tteSpec()); errors.Is(err, ErrDraining) {
			return drained
		}
		if time.Now().After(deadline) {
			t.Fatal("executor never entered draining mode")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestDrainFinishesInFlightTTEJob is the graceful-shutdown contract for the
// Monte Carlo surface: a tte cohort that is mid-run when SIGTERM arrives
// must be allowed to finish and publish its summary, exactly like a sim job.
func TestDrainFinishesInFlightTTEJob(t *testing.T) {
	e, gate := gateTTEExecutor()
	v, err := e.Submit(tteSpec())
	if err != nil {
		t.Fatal(err)
	}
	awaitExec(t, e, v.ID, func(v View) bool { return v.State == StateRunning }, "running")

	ctx, cancel := contextWithTimeout(60 * time.Second)
	defer cancel()
	drained := startDrain(t, e, ctx)

	close(gate) // SIGTERM observed, budget generous: let the cohort finish
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	got, err := e.Get(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateDone {
		t.Fatalf("drained tte job state %q (err %q), want done", got.State, got.Error)
	}
	if got.Outcome == nil || got.Outcome.TTE == nil {
		t.Fatal("drained tte job missing its summary outcome")
	}
	if n := got.Outcome.TTE.Emptied + got.Outcome.TTE.Censored; n != tteSpec().TTE.Twins {
		t.Errorf("drained cohort accounted for %d twins, want %d", n, tteSpec().TTE.Twins)
	}
}

// TestDrainDeadlineCancelsRunningTTEJob: when the drain budget runs out the
// in-flight tte batch must observe the cancellation (twin.Batch.Run polls
// its context) and land cancelled rather than wedging shutdown.
func TestDrainDeadlineCancelsRunningTTEJob(t *testing.T) {
	e, _ := gateTTEExecutor() // gate never released: the job blocks until cancelled
	v, err := e.Submit(tteSpec())
	if err != nil {
		t.Fatal(err)
	}
	awaitExec(t, e, v.ID, func(v View) bool { return v.State == StateRunning }, "running")

	ctx, cancel := contextWithTimeout(100 * time.Millisecond)
	defer cancel()
	drained := startDrain(t, e, ctx)
	if err := <-drained; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain error %v, want deadline exceeded", err)
	}
	got, err := e.Get(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCancelled {
		t.Fatalf("force-drained tte job state %q, want cancelled", got.State)
	}
}
