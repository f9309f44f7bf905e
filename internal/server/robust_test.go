package server

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/workload"
)

// bombGen panics after a few steps — a stand-in for a buggy workload.
type bombGen struct {
	inner workload.Generator
	fuse  int
}

func (g *bombGen) Name() string { return "bomb" }
func (g *bombGen) Next(now, dt float64) workload.Step {
	g.fuse--
	if g.fuse <= 0 {
		panic("injected workload panic")
	}
	return g.inner.Next(now, dt)
}

// registryWithBomb is the default registry plus a panicking workload.
func registryWithBomb(t *testing.T) *Registry {
	t.Helper()
	r := DefaultRegistry()
	err := r.RegisterWorkload("bomb", func(s JobSpec) (func() workload.Generator, error) {
		return func() workload.Generator {
			return &bombGen{inner: workload.NewVideo(s.Seed), fuse: 10}
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestExecutorRecoversWorkerPanic is the headline robustness demo for the
// service: a job that panics mid-simulation fails cleanly, the worker
// pool stays at capacity, and the next job on the same pool completes.
func TestExecutorRecoversWorkerPanic(t *testing.T) {
	metrics := NewMetrics()
	e := newTestExecutor(t, ExecutorConfig{
		Workers: 1, Registry: registryWithBomb(t), Metrics: metrics,
	})

	spec := fastSpec()
	spec.Workload = "bomb"
	v, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	done := awaitExec(t, e, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")
	if done.State != StateFailed {
		t.Fatalf("panicked job ended %q, want failed", done.State)
	}
	if !strings.Contains(done.Error, "panicked") {
		t.Errorf("job error %q does not mention the panic", done.Error)
	}
	if got := metrics.JobPanics.Value(); got == 0 {
		t.Error("job_panics_total not incremented")
	}

	// The single worker survived: a healthy job still runs to completion.
	v2, err := e.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	after := awaitExec(t, e, v2.ID, func(v View) bool { return v.State.Terminal() }, "terminal")
	if after.State != StateDone {
		t.Fatalf("post-panic job ended %q (err %q), want done", after.State, after.Error)
	}
}

// TestExecutorBreakerShedsAndRecovers drives the breaker end to end:
// breakerThreshold consecutive failures open it, submissions are refused
// with ErrBreakerOpen and counted as breaker-open sheds, the cooldown
// (passed on the breakers' clock seam) admits one probe, and a successful
// probe closes it.
func TestExecutorBreakerShedsAndRecovers(t *testing.T) {
	metrics := NewMetrics()
	e := newTestExecutor(t, ExecutorConfig{Workers: 1, Metrics: metrics})
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	e.breakers.now = clk.now
	var fail atomic.Bool
	fail.Store(true)
	e.runFn = func(ctx context.Context, r runner) (*Outcome, error) {
		if fail.Load() {
			return nil, errors.New("entry is broken")
		}
		return r.run(ctx)
	}

	// Consecutive failures on the same workload/policy entry trip the breaker.
	for seed := int64(0); seed < breakerThreshold; seed++ {
		spec := fastSpec()
		spec.Seed = seed // distinct hashes: no cache coalescing
		v, err := e.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		awaitExec(t, e, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")
	}
	if got := metrics.BreakerTrips.Value(); got != 1 {
		t.Fatalf("breaker_trips_total = %d, want 1", got)
	}

	spec := fastSpec()
	spec.Seed = breakerThreshold
	if _, err := e.Submit(spec); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("submit on open breaker: %v, want ErrBreakerOpen", err)
	}
	if got := metrics.Shed.WithLabelValues("breaker-open").Value(); got != 1 {
		t.Errorf("capmand_shed_total{reason=breaker-open} = %d, want 1", got)
	}
	// A different registry entry is unaffected.
	other := fastSpec()
	other.Policy = "heuristic"
	if v, err := e.Submit(other); err != nil {
		t.Fatalf("healthy entry rejected: %v", err)
	} else {
		awaitExec(t, e, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")
	}

	// After the cooldown one probe goes through; let it succeed.
	fail.Store(false)
	clk.advance(breakerCooldown + time.Second)
	spec.Seed = breakerThreshold + 1
	v, err := e.Submit(spec)
	if err != nil {
		t.Fatalf("probe submit: %v", err)
	}
	done := awaitExec(t, e, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")
	if done.State != StateDone {
		t.Fatalf("probe ended %q (err %q), want done", done.State, done.Error)
	}
	spec.Seed = breakerThreshold + 2
	if _, err := e.Submit(spec); err != nil {
		t.Fatalf("submit after recovery: %v", err)
	}
}

// TestExecutorTimeoutStartsAtDequeue pins the documented semantics: a job
// that waits in the queue longer than JobTimeout still gets its full
// execution budget, because the clock starts when a worker picks it up.
func TestExecutorTimeoutStartsAtDequeue(t *testing.T) {
	metrics := NewMetrics()
	e := newTestExecutor(t, ExecutorConfig{
		Workers: 1, Metrics: metrics, JobTimeout: 400 * time.Millisecond,
	})

	// The slow job occupies the only worker until its timeout fires.
	slow, err := e.Submit(slowSpec(60))
	if err != nil {
		t.Fatal(err)
	}
	// The fast job queues behind it for roughly the full timeout.
	fast, err := e.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}

	slowDone := awaitExec(t, e, slow.ID, func(v View) bool { return v.State.Terminal() }, "terminal")
	if slowDone.State != StateFailed || !strings.Contains(slowDone.Error, context.DeadlineExceeded.Error()) {
		t.Fatalf("slow job ended %q (err %q), want a timeout failure", slowDone.State, slowDone.Error)
	}

	fastDone := awaitExec(t, e, fast.ID, func(v View) bool { return v.State.Terminal() }, "terminal")
	if fastDone.State != StateDone {
		t.Fatalf("queued job ended %q (err %q); queue wait must not consume its timeout",
			fastDone.State, fastDone.Error)
	}
	if fastDone.QueueWaitS <= 0 {
		t.Errorf("QueueWaitS = %v, want > 0 for a job that queued", fastDone.QueueWaitS)
	}
	if got := metrics.QueueWaitSeconds.Count(); got != 2 {
		t.Errorf("queue_wait_seconds count = %d, want 2", got)
	}
}

// TestMetricsExposeRobustnessPanel checks the new series render in the
// Prometheus text format, including the labeled breaker gauge.
func TestMetricsExposeRobustnessPanel(t *testing.T) {
	m := NewMetrics()
	m.FaultsInjected.Add(7)
	m.BreakerState.WithLabelValues("video/dual").Set(breakerOpen.level())
	m.BreakerState.WithLabelValues("video/capman").Set(breakerClosed.level())
	var sb strings.Builder
	if err := m.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"capmand_job_panics_total 0",
		"capmand_breaker_trips_total 0",
		"capmand_faults_injected_total 7",
		"capmand_degradations_total 0",
		"capmand_queue_wait_seconds_count 0",
		`capmand_breaker_state{entry="video/capman"} 0`,
		`capmand_breaker_state{entry="video/dual"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestStopDuringRetryBackoff: a job stopped mid-run ends as the stop
// says. A DELETE ends it cancelled, without a failure on its breaker; a
// job timeout fails it with context.DeadlineExceeded.
func TestStopDuringRetryBackoff(t *testing.T) {
	// blocking stands in for a long run: it reports that it started, then
	// returns only when the job's context ends.
	blocking := func(e *Executor) <-chan struct{} {
		started := make(chan struct{}, 1)
		e.runFn = func(ctx context.Context, r runner) (*Outcome, error) {
			started <- struct{}{}
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return started
	}

	t.Run("cancel", func(t *testing.T) {
		m := NewMetrics()
		e := newTestExecutor(t, ExecutorConfig{Workers: 1, Metrics: m})
		started := blocking(e)
		v, err := e.Submit(fastSpec())
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-started:
		case <-time.After(10 * time.Second):
			t.Fatal("job never started")
		}
		if _, err := e.Cancel(v.ID); err != nil {
			t.Fatal(err)
		}
		done := awaitExec(t, e, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")
		if done.State != StateCancelled || done.Error != context.Canceled.Error() {
			t.Errorf("job cancelled mid-run ended %q (err %q), want cancelled", done.State, done.Error)
		}
		if c, f := m.JobsCancelled.Value(), m.JobsFailed.Value(); c != 1 || f != 0 {
			t.Errorf("cancelled/failed counters = %d/%d, want 1/0", c, f)
		}
		e.breakers.mu.Lock()
		b := e.breakers.breakers["video/dual"]
		e.breakers.mu.Unlock()
		if b != nil && b.failures != 0 {
			t.Errorf("breaker recorded %d failure(s) for a cancelled job", b.failures)
		}
	})

	t.Run("timeout", func(t *testing.T) {
		e := newTestExecutor(t, ExecutorConfig{Workers: 1, JobTimeout: 200 * time.Millisecond})
		blocking(e)
		v, err := e.Submit(fastSpec())
		if err != nil {
			t.Fatal(err)
		}
		done := awaitExec(t, e, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")
		if done.State != StateFailed || done.Error != context.DeadlineExceeded.Error() {
			t.Errorf("job timed out mid-run ended %q (err %q), want failed with %q",
				done.State, done.Error, context.DeadlineExceeded)
		}
	})
}
