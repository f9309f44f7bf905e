package server

import (
	"bufio"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/tsdb"
)

// newTelemetryServer boots a server with a fast-ticking telemetry plane.
func newTelemetryServer(t *testing.T, ecfg ExecutorConfig) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{
		Executor:  ecfg,
		Telemetry: TelemetryConfig{Interval: 10 * time.Millisecond},
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := contextWithTimeout(2 * time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return s, ts
}

// TestEventsEndpointContract pins /v1/jobs/{id}/trace's two answers:
// an unknown job is a 404, while a known job is a 200 carrying its
// record even when that record holds no spans or events yet, so clients
// can tell "no such job" from "nothing recorded yet".
func TestEventsEndpointContract(t *testing.T) {
	s, ts := newTestServer(t, ExecutorConfig{Workers: 1})

	resp, err := http.Get(ts.URL + "/v1/jobs/j99999999/trace")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job record: status %d, want 404", resp.StatusCode)
	}

	// A known job with an empty record (planted directly — normal
	// submission always mints a recorder and records EventSubmitted).
	s.exec.mu.Lock()
	s.exec.jobs["jempty"] = &Job{ID: "jempty", RequestID: "r-test", State: StateQueued, SubmittedAt: time.Now()}
	s.exec.mu.Unlock()
	resp, err = http.Get(ts.URL + "/v1/jobs/jempty/trace")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty-record job: status %d, want 200", resp.StatusCode)
	}
	if !strings.Contains(string(body), `"job_id":"jempty"`) || !strings.Contains(string(body), `"outcome":"queued"`) {
		t.Fatalf("empty record lacks its job ID or state: %s", body)
	}

	// And a normally-submitted job answers 200 with its real events.
	v, _ := submit(t, ts, fastSpec())
	awaitJob(t, ts, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")
	var tr obs.StoredTrace
	getJSON(t, ts.URL+"/v1/jobs/"+v.ID+"/trace", &tr)
	if evs, _ := rootEvents(t, &tr); len(evs) == 0 {
		t.Fatal("job record has no lifecycle events")
	}
}

// TestTelemetryDisabled pins the telemetry routes: with the plane off
// /v1/stream answers 503, and the deleted range-query and alert-list
// routes answer 404 with the plane on and with it off.
func TestTelemetryDisabled(t *testing.T) {
	status := func(url string) int {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	s := New(Config{
		Executor:  ExecutorConfig{Workers: 1},
		Telemetry: TelemetryConfig{Disable: true},
	})
	off := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		off.Close()
		ctx, cancel := contextWithTimeout(2 * time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	if code := status(off.URL + "/v1/stream"); code != http.StatusServiceUnavailable {
		t.Errorf("/v1/stream with telemetry off: status %d, want 503", code)
	}

	_, on := newTelemetryServer(t, ExecutorConfig{Workers: 1})
	for plane, base := range map[string]string{"off": off.URL, "on": on.URL} {
		for _, path := range []string{"/v1/query?metric=x", "/v1/alerts"} {
			if code := status(base + path); code != http.StatusNotFound {
				t.Errorf("%s with telemetry %s: status %d, want 404", path, plane, code)
			}
		}
	}
}

// TestStreamDeliversSamplesAndJobEvents is the live-stream acceptance
// test: a subscriber sees telemetry samples and the submitted job's
// lifecycle — through to done — within seconds.
func TestStreamDeliversSamplesAndJobEvents(t *testing.T) {
	_, ts := newTelemetryServer(t, ExecutorConfig{Workers: 2})

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}

	// Subscribe first, then submit: the stream must carry the whole
	// lifecycle.
	v, _ := submit(t, ts, fastSpec())

	type sse struct {
		event string
		data  string
	}
	events := make(chan sse, 64)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		cur := sse{}
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				cur.event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				cur.data = strings.TrimPrefix(line, "data: ")
			case line == "" && cur.event != "":
				events <- cur
				cur = sse{}
			}
		}
	}()

	var gotHello, gotSample, gotSubmitted, gotDone bool
	deadline := time.After(5 * time.Second)
	for !(gotSample && gotDone) {
		select {
		case <-deadline:
			t.Fatalf("stream incomplete after 5s: hello=%t sample=%t submitted=%t done=%t",
				gotHello, gotSample, gotSubmitted, gotDone)
		case ev, ok := <-events:
			if !ok {
				t.Fatal("stream closed early")
			}
			switch ev.event {
			case "hello":
				gotHello = true
			case "sample":
				gotSample = true
				if !strings.Contains(ev.data, "queueDepth") {
					t.Fatalf("sample payload missing fields: %s", ev.data)
				}
			case "job":
				if !strings.Contains(ev.data, v.ID) {
					continue
				}
				if strings.Contains(ev.data, `"type":"submitted"`) {
					gotSubmitted = true
				}
				if strings.Contains(ev.data, `"type":"done"`) {
					gotDone = true
				}
			}
		}
	}
	if !gotHello {
		t.Error("no hello event")
	}
	if !gotSubmitted {
		t.Error("job done event arrived without a submitted event")
	}
}

// TestJobStreamMirrorsTimeline pins one write per lifecycle transition:
// the "job" frames a bus subscriber sees for a job carry exactly
// the types and details of the lifecycle events in the job's record, in
// order.
func TestJobStreamMirrorsTimeline(t *testing.T) {
	bus := tsdb.NewBus()
	t.Cleanup(bus.Close)
	sub := bus.Subscribe(0)
	e := newTestExecutor(t, ExecutorConfig{Workers: 1, Stream: bus})

	v, err := e.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	if done := awaitExec(t, e, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal"); done.State != StateDone {
		t.Fatalf("job ended %q: %s", done.State, done.Error)
	}
	evs, _ := rootEvents(t, mustJobTrace(t, e, v.ID))
	want := []string{EventSubmitted, EventQueued, EventRunning, EventDone}
	if got := eventTypes(evs); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("lifecycle %v, want %v", got, want)
	}

	var frames []JobStreamEvent
	timeout := time.After(5 * time.Second)
	for len(frames) < len(evs) {
		select {
		case ev := <-sub.C():
			if je, ok := ev.Data.(JobStreamEvent); ok && ev.Type == tsdb.EventJob && je.JobID == v.ID {
				frames = append(frames, je)
			}
		case <-timeout:
			t.Fatalf("got %d job frames, record has %d events", len(frames), len(evs))
		}
	}
	for i, ev := range evs {
		if frames[i].Type != ev.Name || frames[i].Detail != ev.Detail {
			t.Errorf("frame %d = %s %q, record has %s %q",
				i, frames[i].Type, frames[i].Detail, ev.Name, ev.Detail)
		}
	}
}

// TestStuckMetricWatchesAdmittedJobs drives the telemetry plane by hand —
// its tickers are set too slow to fire — through the stuck-metric
// detector's 2 min window: a sample every 10 s, then one evaluation at
// the window's end. Cache hits move no admitted-job counter, so two
// minutes of hits alone raise no alert; jobs admitted behind a wedged
// worker raise one.
func TestStuckMetricWatchesAdmittedJobs(t *testing.T) {
	stuckAlerts := func(t *testing.T, submit func(e *Executor, i int)) int {
		t.Helper()
		s := New(Config{
			Executor:  ExecutorConfig{Workers: 1},
			Telemetry: TelemetryConfig{Interval: time.Hour, AnomalyInterval: time.Hour},
		})
		t.Cleanup(func() {
			ctx, cancel := contextWithTimeout(2 * time.Second)
			defer cancel()
			_ = s.Drain(ctx)
		})
		base := time.Now()
		const ticks = 12
		for i := 0; i <= ticks; i++ {
			submit(s.exec, i)
			s.store.Sample(base.Add(time.Duration(i) * 10 * time.Second))
		}
		n := 0
		for _, a := range s.engine.Evaluate(base.Add(ticks * 10 * time.Second)) {
			if a.Detector == (tsdb.StuckMetric{}).Name() {
				n++
			}
		}
		return n
	}

	t.Run("hits", func(t *testing.T) {
		var cached View
		n := stuckAlerts(t, func(e *Executor, i int) {
			if i == 0 { // prime the cache before the window's first sample
				v, err := e.Submit(seededSpec(0))
				if err != nil {
					t.Fatal(err)
				}
				cached = awaitExec(t, e, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")
			}
			if v, err := e.Submit(seededSpec(0)); err != nil || !v.CacheHit {
				t.Fatalf("hit %d: view=%+v err=%v", i, v, err)
			}
		})
		if cached.State != StateDone {
			t.Fatalf("primed job ended %s: %s", cached.State, cached.Error)
		}
		if n != 0 {
			t.Errorf("%d stuck-metric alerts over cache hits alone, want 0", n)
		}
	})

	t.Run("wedged", func(t *testing.T) {
		var release func()
		n := stuckAlerts(t, func(e *Executor, i int) {
			if release == nil {
				release = shedGate(e)
			}
			if _, err := e.Submit(seededSpec(int64(i))); err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
		})
		release()
		if n != 1 {
			t.Errorf("%d stuck-metric alerts over jobs held by a wedged worker, want 1", n)
		}
	})
}

// TestStalledSubscriberDoesNotStallJobs: one /v1/stream subscriber that
// never reads beside one that drains. The bus drops the stalled one's
// events and nothing else notices: every job finishes, the reading
// subscriber sees every job's terminal frame, and the drain keeps its
// budget.
func TestStalledSubscriberDoesNotStallJobs(t *testing.T) {
	s := New(Config{
		Executor:  ExecutorConfig{Workers: 2},
		Telemetry: TelemetryConfig{Interval: 10 * time.Millisecond},
	})
	drained := false
	t.Cleanup(func() {
		if !drained {
			ctx, cancel := contextWithTimeout(2 * time.Second)
			defer cancel()
			_ = s.Drain(ctx)
		}
	})
	stalled := s.bus.Subscribe(1)
	reader := s.bus.Subscribe(0)
	var mu sync.Mutex
	terminal := map[string]bool{}
	readDone := make(chan struct{})
	go func() {
		defer close(readDone)
		for ev := range reader.C() {
			if jev, ok := ev.Data.(JobStreamEvent); ok && jev.State.Terminal() {
				mu.Lock()
				terminal[jev.JobID] = true
				mu.Unlock()
			}
		}
	}()

	const jobs = 8
	var ids []string
	for i := 0; i < jobs; i++ {
		v, err := s.Executor().Submit(seededSpec(int64(100 + i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	for _, id := range ids {
		if v := awaitExec(t, s.Executor(), id, func(v View) bool { return v.State.Terminal() }, "terminal"); v.State != StateDone {
			t.Fatalf("job %s ended %s: %s", id, v.State, v.Error)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(terminal)
		mu.Unlock()
		if n == jobs {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("reading subscriber saw %d of %d terminal job frames", n, jobs)
		}
		time.Sleep(5 * time.Millisecond)
	}

	const budget = 2 * time.Second
	ctx, cancel := contextWithTimeout(budget)
	defer cancel()
	start := time.Now()
	drained = true
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if took := time.Since(start); took > budget {
		t.Errorf("drain took %s, budget %s", took, budget)
	}
	<-readDone // the drain closes the bus and with it the reader's channel
	if stalled.Dropped() == 0 {
		t.Error("stalled subscriber dropped nothing; it should have lost the frames it never read")
	}
	for _, id := range ids {
		if !terminal[id] {
			t.Errorf("reading subscriber missed job %s's terminal frame", id)
		}
	}
}
