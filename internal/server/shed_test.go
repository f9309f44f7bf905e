package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
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

// TestShedQueueWatermark drives the backlog past the watermark and checks
// the admission gate: a *ShedError with reason queue-depth, matched by
// errors.Is(err, ErrShed), counted in capmand_shed_total, and carrying
// the configured Retry-After.
func TestShedQueueWatermark(t *testing.T) {
	e := newTestExecutor(t, ExecutorConfig{
		Workers: 1, QueueDepth: 8,
		ShedQueueWatermark: 2, ShedRetryAfter: 3 * time.Second,
	})
	release := shedGate(e)
	defer release()

	first, err := e.Submit(seededSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	awaitExec(t, e, first.ID, func(v View) bool { return v.State == StateRunning }, "running")
	for seed := int64(2); seed <= 3; seed++ { // backlog reaches the watermark
		if _, err := e.Submit(seededSpec(seed)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}

	_, err = e.Submit(seededSpec(4))
	if !errors.Is(err, ErrShed) {
		t.Fatalf("submission over the watermark returned %v, want ErrShed", err)
	}
	var sh *ShedError
	if !errors.As(err, &sh) {
		t.Fatalf("shed error is %T, want *ShedError", err)
	}
	if sh.Reason != "queue-depth" {
		t.Errorf("shed reason %q, want queue-depth", sh.Reason)
	}
	if sh.RetryAfter != 3*time.Second {
		t.Errorf("Retry-After %v, want 3s", sh.RetryAfter)
	}
	if got := e.metrics.Shed.WithLabelValues("queue-depth").Value(); got != 1 {
		t.Errorf("capmand_shed_total{reason=queue-depth} = %d, want 1", got)
	}

	// Coalescing onto the already-queued duplicate still succeeds: the
	// gate sheds only work that would add load.
	if _, err := e.Submit(seededSpec(2)); err != nil {
		t.Errorf("coalesced submission shed: %v", err)
	}
}

// TestShedBurnRate arms the burn-rate gate via ShedFor (the entry point
// of SLO burn-rate alerts) and checks fresh work is shed while cache hits
// keep flowing; after the deadline passes the gate reopens.
func TestShedBurnRate(t *testing.T) {
	e := newTestExecutor(t, ExecutorConfig{Workers: 2})

	done, err := e.Submit(seededSpec(10))
	if err != nil {
		t.Fatal(err)
	}
	awaitExec(t, e, done.ID, func(v View) bool { return v.State.Terminal() }, "terminal")

	e.ShedFor(time.Minute)
	_, err = e.Submit(seededSpec(11))
	var sh *ShedError
	if !errors.As(err, &sh) || sh.Reason != "burn-rate" {
		t.Fatalf("submission under burn = %v, want *ShedError{burn-rate}", err)
	}
	if got := e.metrics.Shed.WithLabelValues("burn-rate").Value(); got != 1 {
		t.Errorf("capmand_shed_total{reason=burn-rate} = %d, want 1", got)
	}
	// Cached work is free — the gate never touches hits.
	if v, err := e.Submit(seededSpec(10)); err != nil || !v.CacheHit {
		t.Errorf("cache hit shed under burn: view=%+v err=%v", v, err)
	}

	// Deadlines only ratchet forward: a shorter ShedFor must not shrink
	// the armed window.
	e.ShedFor(time.Millisecond)
	if _, err := e.Submit(seededSpec(12)); !errors.Is(err, ErrShed) {
		t.Errorf("shorter ShedFor shrank the window: %v", err)
	}
}

// TestShedTraceCarriesMintedRequestID: a shed submission that sent no
// identity still leaves a retained shed trace joinable to its log line:
// the ID the daemon minted is both the line's request_id and the trace's
// trace_id.
func TestShedTraceCarriesMintedRequestID(t *testing.T) {
	var logs logSink
	e := newTestExecutor(t, ExecutorConfig{Workers: 1, Logger: logs.logger()})
	e.ShedFor(time.Minute)
	if _, err := e.Submit(seededSpec(40)); !errors.Is(err, ErrShed) {
		t.Fatalf("gate not armed: %v", err)
	}
	found := e.traces.Search(obs.TraceQuery{Outcome: "shed"})
	if len(found) != 1 {
		t.Fatalf("retained %d shed traces, want 1", len(found))
	}
	ids := logs.requestIDs(t, "submission shed by admission gate")
	if len(ids) != 1 || found[0].TraceID != ids[0] {
		t.Errorf("shed trace ID %q, want the shed log line's request_id (%v)", found[0].TraceID, ids)
	}
}

// TestShedExpires uses a short burn window and waits it out.
func TestShedExpires(t *testing.T) {
	e := newTestExecutor(t, ExecutorConfig{Workers: 2})
	e.ShedFor(30 * time.Millisecond)
	if _, err := e.Submit(seededSpec(20)); !errors.Is(err, ErrShed) {
		t.Fatalf("gate not armed: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	v, err := e.Submit(seededSpec(20))
	if err != nil {
		t.Fatalf("gate never reopened: %v", err)
	}
	awaitExec(t, e, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")
}

// TestShedHTTP checks the wire contract: 429, a Retry-After header in
// integer seconds, a JSON error body, and the shed counter on /metrics.
func TestShedHTTP(t *testing.T) {
	srv, ts := newTestServer(t, ExecutorConfig{
		Workers: 1, QueueDepth: 8, ShedQueueWatermark: 1,
		ShedRetryAfter: 2 * time.Second,
	})
	release := shedGate(srv.Executor())
	defer release()

	first, status := submit(t, ts, seededSpec(1))
	if status != http.StatusAccepted {
		t.Fatalf("first submit status %d", status)
	}
	awaitJob(t, ts, first.ID, func(v View) bool { return v.State == StateRunning }, "running")
	if _, status := submit(t, ts, seededSpec(2)); status != http.StatusAccepted {
		t.Fatalf("second submit status %d", status)
	}

	body3, err := json.Marshal(seededSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body3))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed status %d, want 429", resp.StatusCode)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra != 2 {
		t.Errorf("Retry-After header %q, want 2", resp.Header.Get("Retry-After"))
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "shedding load") {
		t.Errorf("shed body %q does not explain itself", body)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, _ := io.ReadAll(mresp.Body)
	if !strings.Contains(string(raw), `capmand_shed_total{reason="queue-depth"} 1`) {
		t.Errorf("metrics missing shed counter:\n%s", raw)
	}
}
