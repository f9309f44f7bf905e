package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// shedGate installs a runFn that blocks until released, so tests can pin
// jobs in the running state and fill the queue deterministically.
func shedGate(e *Executor) (release func()) {
	ch := make(chan struct{})
	e.runFn = func(ctx context.Context, r runner) (*Outcome, error) {
		select {
		case <-ch:
			return &Outcome{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return func() { close(ch) }
}

func seededSpec(seed int64) JobSpec {
	return JobSpec{Workload: "video", Policy: "dual", Seed: seed,
		BigMAh: 300, LittleMAh: 300, MaxTimeS: 2000}
}

// fillQueue pins one job running on e's one worker (shedGate must hold
// it) and queues a second behind it, filling a QueueDepth: 1 queue. It
// returns the two admitted views.
func fillQueue(t *testing.T, e *Executor) (running, queued View) {
	t.Helper()
	running, err := e.Submit(seededSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	awaitExec(t, e, running.ID, func(v View) bool { return v.State == StateRunning }, "running")
	if queued, err = e.Submit(seededSpec(2)); err != nil {
		t.Fatal(err)
	}
	return running, queued
}

// TestShedQueueFull pins the one admission gate: with the worker blocked
// and the queue full, a fresh spec is shed with ErrShed, counted as
// capmand_shed_total{reason="queue-full"} and traced with that
// shed_reason, and neither counted as a failed job nor as a cache miss.
// Work that adds no load still gets through the full queue: a cached spec
// is served as a hit, and a duplicate of the queued spec coalesces.
func TestShedQueueFull(t *testing.T) {
	e := newTestExecutor(t, ExecutorConfig{Workers: 1, QueueDepth: 1})
	cached, err := e.Submit(seededSpec(0))
	if err != nil {
		t.Fatal(err)
	}
	if v := awaitExec(t, e, cached.ID, func(v View) bool { return v.State.Terminal() }, "terminal"); v.State != StateDone {
		t.Fatalf("cached spec's job ended %s: %s", v.State, v.Error)
	}
	release := shedGate(e)
	defer release()
	missesBefore := e.metrics.CacheMisses.Value()
	_, queued := fillQueue(t, e)

	if _, err := e.Submit(seededSpec(3)); !errors.Is(err, ErrShed) {
		t.Fatalf("submission to a full queue returned %v, want ErrShed", err)
	}
	if got := e.metrics.Shed.WithLabelValues("queue-full").Value(); got != 1 {
		t.Errorf("capmand_shed_total{reason=queue-full} = %d, want 1", got)
	}
	if got := e.metrics.JobsFailed.Value(); got != 0 {
		t.Errorf("capmand_jobs_failed_total = %d after a shed, want 0", got)
	}
	if got := e.metrics.CacheMisses.Value() - missesBefore; got != 2 {
		t.Errorf("capmand_cache_misses_total moved by %d, want 2 (the admitted jobs only)", got)
	}
	found := e.traces.Search(obs.TraceQuery{Outcome: "shed"})
	if len(found) != 1 || len(found[0].Spans) != 1 || found[0].Spans[0].Attrs["shed_reason"] != "queue-full" {
		t.Errorf("shed traces %+v, want one with shed_reason=queue-full", found)
	}

	if v, err := e.Submit(seededSpec(0)); err != nil || !v.CacheHit {
		t.Errorf("cached spec under a full queue: view=%+v err=%v, want a hit", v, err)
	}
	if v, err := e.Submit(seededSpec(2)); err != nil || v.ID != queued.ID {
		t.Errorf("duplicate of the queued spec: view=%+v err=%v, want it coalesced onto %s", v, err, queued.ID)
	}
}

// TestRefusalMintsNothing: a queue-full refusal is decided before
// anything is built. It leaves the job table as it was, burns no job ID,
// and takes no breaker probe slot: an entry whose breaker is due to probe
// still probes with its first submission once the queue has room, and
// the submission after that waits for the probe's verdict.
func TestRefusalMintsNothing(t *testing.T) {
	e := newTestExecutor(t, ExecutorConfig{Workers: 1, QueueDepth: 1})
	step, stop := make(chan struct{}), make(chan struct{})
	defer close(stop)
	e.runFn = func(ctx context.Context, r runner) (*Outcome, error) {
		select { // one receive on step finishes one running job
		case <-step:
		case <-stop:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return &Outcome{}, nil
	}
	clk := &fakeClock{t: time.Unix(1_000_000, 0)}
	e.breakers.now = clk.now
	probe := func(seed int64) JobSpec {
		spec := seededSpec(seed)
		spec.Workload = "pcmark"
		return spec
	}
	trip(t, e.breakers, "pcmark/dual")
	clk.advance(breakerCooldown + time.Second)

	running, queued := fillQueue(t, e)
	before := e.List()
	for _, spec := range []JobSpec{probe(50), seededSpec(51)} {
		if _, err := e.Submit(spec); !errors.Is(err, ErrShed) {
			t.Fatalf("submission to a full queue returned %v, want ErrShed", err)
		}
	}
	if after := e.List(); len(after) != len(before) || after[0].ID != before[0].ID {
		t.Fatalf("job table after two refusals %+v, want %+v", after, before)
	}

	// Finish the running job; the worker takes the queued one, and the
	// queue has room again.
	step <- struct{}{}
	awaitExec(t, e, queued.ID, func(v View) bool { return v.State == StateRunning }, "running")
	v, err := e.Submit(probe(52))
	if err != nil {
		t.Fatalf("first submission to a probing entry: %v, want it admitted as the probe", err)
	}
	if running.ID != "j00000001" || queued.ID != "j00000002" || v.ID != "j00000003" {
		t.Errorf("job IDs %s, %s, %s; want j00000001..3 with no gap for the refusals",
			running.ID, queued.ID, v.ID)
	}
	step <- struct{}{}
	awaitExec(t, e, v.ID, func(v View) bool { return v.State == StateRunning }, "running")
	if _, err := e.Submit(probe(53)); !errors.Is(err, ErrBreakerOpen) {
		t.Errorf("submission while the probe runs returned %v, want ErrBreakerOpen", err)
	}
}

// TestShedTraceCarriesMintedRequestID: a shed submission that sent no
// identity still leaves a retained shed trace joinable to its log line:
// the ID the daemon minted is both the line's request_id and the trace's
// trace_id.
func TestShedTraceCarriesMintedRequestID(t *testing.T) {
	var logs logSink
	e := newTestExecutor(t, ExecutorConfig{Workers: 1, QueueDepth: 1, Logger: logs.logger()})
	release := shedGate(e)
	defer release()
	fillQueue(t, e)
	if _, err := e.Submit(seededSpec(40)); !errors.Is(err, ErrShed) {
		t.Fatalf("submission to a full queue returned %v, want ErrShed", err)
	}
	found := e.traces.Search(obs.TraceQuery{Outcome: "shed"})
	if len(found) != 1 {
		t.Fatalf("retained %d shed traces, want 1", len(found))
	}
	ids := logs.refusalIDs(t, "queue-full")
	if len(ids) != 1 || found[0].TraceID != ids[0] {
		t.Errorf("shed trace ID %q, want the refusal line's request_id (%v)", found[0].TraceID, ids)
	}
}

// postStatus POSTs spec to /v1/jobs and returns the response, its body
// read and closed.
func postStatus(t *testing.T, ts *httptest.Server, spec JobSpec) (*http.Response, string) {
	t.Helper()
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, string(body)
}

// TestShedHTTP checks the wire contract of the three refusals: a full
// queue answers 429 with Retry-After: 1 and a JSON error body, an open
// breaker and a draining daemon answer 503 without one, and /metrics
// counts each under its own reason and none as a failed job.
func TestShedHTTP(t *testing.T) {
	srv, ts := newTestServer(t, ExecutorConfig{Workers: 1, QueueDepth: 1})
	e := srv.Executor()
	var fail atomic.Bool
	release := make(chan struct{})
	e.runFn = func(ctx context.Context, r runner) (*Outcome, error) {
		if fail.Load() {
			return nil, errors.New("entry is broken")
		}
		select {
		case <-release:
			return &Outcome{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	running, queued := fillQueue(t, e)

	resp, body := postStatus(t, ts, seededSpec(3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After header %q, want 1", ra)
	}
	if !strings.Contains(body, "shedding load") {
		t.Errorf("shed body %q does not explain itself", body)
	}

	close(release)
	for _, v := range []View{running, queued} {
		awaitJob(t, ts, v.ID, func(v View) bool { return v.State == StateDone }, "done")
	}
	// Consecutive failures open the entry's breaker; the next fresh spec
	// for it is refused.
	fail.Store(true)
	for seed := int64(10); seed < 10+breakerThreshold; seed++ {
		v, status := submit(t, ts, seededSpec(seed))
		if status != http.StatusAccepted {
			t.Fatalf("seed %d: status %d", seed, status)
		}
		awaitJob(t, ts, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")
	}
	resp, _ = postStatus(t, ts, seededSpec(20))
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "" {
		t.Errorf("breaker-open refusal: status %d Retry-After %q, want 503 and none",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	ctx, cancel := contextWithTimeout(5 * time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp, _ = postStatus(t, ts, seededSpec(21))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining refusal: status %d, want 503", resp.StatusCode)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		`capmand_shed_total{reason="queue-full"} 1`,
		`capmand_shed_total{reason="breaker-open"} 1`,
		`capmand_shed_total{reason="draining"} 1`,
		fmt.Sprintf("capmand_jobs_failed_total %d", breakerThreshold),
	} {
		if !strings.Contains(string(raw), want+"\n") {
			t.Errorf("/metrics lacks %q:\n%s", want, raw)
		}
	}
}
