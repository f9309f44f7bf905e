package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// heapAfterGC is the live heap once the collector has run to a fixed
// point.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestJobTableBounded: the job table keeps the newest
// obs.DefaultTraceStoreLimit finished jobs. After three times that many
// jobs, each recording dozens of spans, List holds at most the limit,
// the oldest ID answers 404 on every endpoint that takes it, the newest
// job's record is one object under its two URLs, and the heap holds no
// more than it did after the first limit's worth of jobs (within a
// quarter of what those jobs cost). Not parallel: the heap is
// process-wide.
func TestJobTableBounded(t *testing.T) {
	const limit = obs.DefaultTraceStoreLimit
	s, ts := newTestServer(t, ExecutorConfig{Workers: 2, QueueDepth: limit})
	s.exec.runFn = func(ctx context.Context, _ runner) (*Outcome, error) {
		for i := 0; i < 48; i++ {
			_, sp := obs.StartSpan(ctx, "step")
			sp.SetAttr("i", i)
			sp.Event(obs.FlightNote, "tick", "a breadcrumb the record keeps", nil)
			sp.End()
		}
		return &Outcome{}, nil
	}
	var views []View
	batch := func(from int) {
		t.Helper()
		for seed := from; seed < from+limit; seed++ {
			v, err := s.exec.Submit(seededSpec(int64(seed)))
			if err != nil {
				t.Fatalf("submit seed %d: %v", seed, err)
			}
			views = append(views, v)
		}
		for _, v := range views[len(views)-limit:] {
			awaitExec(t, s.exec, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")
		}
	}

	before := heapAfterGC()
	batch(1)
	atLimit := heapAfterGC()
	// Searches and lookups race the second batch's finishes and age-outs.
	stop, searched := make(chan struct{}), make(chan struct{})
	first := views[0].TraceID
	go func() {
		defer close(searched)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.exec.SearchTraces(obs.TraceQuery{Limit: 5})
			s.exec.Trace(first)
		}
	}()
	batch(1 + limit)
	close(stop)
	<-searched
	batch(1 + 2*limit)
	atTriple := heapAfterGC()

	list := s.exec.List()
	if len(list) > limit {
		t.Errorf("List holds %d jobs, want at most %d", len(list), limit)
	}
	last := list[0] // the job that finished last
	for _, v := range list {
		if v.State != StateDone {
			t.Fatalf("job %s is %s, want done", v.ID, v.State)
		}
		if v.FinishedAt.After(*last.FinishedAt) {
			last = v
		}
	}

	oldest, newest := views[0], views[len(views)-1]
	for _, req := range []struct{ method, path string }{
		{http.MethodGet, "/v1/jobs/" + oldest.ID},
		{http.MethodGet, "/v1/jobs/" + oldest.ID + "/trace"},
		{http.MethodDelete, "/v1/jobs/" + oldest.ID},
		{http.MethodGet, "/v1/traces/" + oldest.TraceID},
	} {
		r, err := http.NewRequest(req.method, ts.URL+req.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s = %d for an aged-out job, want 404", req.method, req.path, resp.StatusCode)
		}
	}

	code, record := getBody(t, ts.URL+"/v1/jobs/"+newest.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("newest job's record answered %d", code)
	}
	code, retained := getBody(t, ts.URL+"/v1/traces/"+newest.TraceID)
	if code != http.StatusOK || !bytes.Equal(record, retained) {
		t.Errorf("newest job: /v1/traces/{id} answered %d, same bytes as its record %v", code, bytes.Equal(record, retained))
	}
	var tr obs.StoredTrace
	if err := json.Unmarshal(record, &tr); err != nil || countSpans(tr.Spans) < 48 {
		t.Errorf("newest record has %d spans (%v), want the run's 48 and more", countSpans(tr.Spans), err)
	}

	var found struct {
		Traces []TraceSummary      `json:"traces"`
		Stats  obs.TraceStoreStats `json:"stats"`
	}
	getJSON(t, ts.URL+"/v1/traces?limit=1", &found)
	if found.Stats.Len != limit || found.Stats.Evicted != 2*limit {
		t.Errorf("/v1/traces stats = %+v, want Len %d Evicted %d", found.Stats, limit, 2*limit)
	}
	if len(found.Traces) != 1 || found.Traces[0].JobID != last.ID || found.Traces[0].Spans != countSpans(tr.Spans) {
		t.Errorf("/v1/traces?limit=1 = %+v, want the last job to finish, %s, with %d spans", found.Traces, last.ID, countSpans(tr.Spans))
	}

	cost := int64(atLimit) - int64(before)
	growth := int64(atTriple) - int64(atLimit)
	t.Logf("heap: %d B before, %d B at %d jobs, %d B at %d jobs", before, atLimit, limit, atTriple, 3*limit)
	if cost <= 0 {
		t.Fatalf("the first %d jobs cost %d B of heap; cannot compare", limit, cost)
	}
	if growth > cost/4 {
		t.Errorf("heap grew %d B from %d to %d jobs, more than a quarter of the %d B the first %d cost",
			growth, limit, 3*limit, cost, limit)
	}
}

// TestTracesSharedTraceID: two jobs and a traced cache hit submitted
// under one traceparent each keep their own record. /v1/traces lists all
// three, /v1/traces/{id} answers the newest (the hit), and each job's
// record stays its own.
func TestTracesSharedTraceID(t *testing.T) {
	s, ts := newTestServer(t, ExecutorConfig{Workers: 1})
	s.exec.runFn = func(context.Context, runner) (*Outcome, error) { return &Outcome{}, nil }
	post := func(spec JobSpec) View {
		t.Helper()
		body, _ := json.Marshal(spec)
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
		req.Header.Set("traceparent", testTraceparent)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v View
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		return v
	}
	const id = "0af7651916cd43dd8448eb211c80319c"
	var jobs []View
	for _, seed := range []int64{1, 2} {
		v := post(seededSpec(seed))
		awaitJob(t, ts, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")
		jobs = append(jobs, v)
	}
	if hit := post(seededSpec(1)); !hit.CacheHit {
		t.Fatalf("resubmission = %+v, want a cache hit", hit)
	}

	var list struct {
		Traces []TraceSummary `json:"traces"`
	}
	getJSON(t, ts.URL+"/v1/traces", &list)
	var jobIDs []string
	for _, tr := range list.Traces {
		if tr.TraceID != id {
			t.Errorf("listed trace %s, want only %s", tr.TraceID, id)
		}
		jobIDs = append(jobIDs, tr.JobID)
	}
	if want := []string{"", jobs[1].ID, jobs[0].ID}; fmt.Sprint(jobIDs) != fmt.Sprint(want) {
		t.Errorf("/v1/traces lists job IDs %q, want %q (hit, second job, first job)", jobIDs, want)
	}

	var newest obs.StoredTrace
	getJSON(t, ts.URL+"/v1/traces/"+id, &newest)
	if newest.JobID != "" || len(newest.Spans) != 1 || newest.Spans[0].Attrs["cache"] != "hit" {
		t.Errorf("/v1/traces/{id} = job %q with %d spans, want the cache hit's one-span record", newest.JobID, len(newest.Spans))
	}
	for _, v := range jobs {
		var rec obs.StoredTrace
		getJSON(t, ts.URL+"/v1/jobs/"+v.ID+"/trace", &rec)
		if rec.JobID != v.ID || rec.TraceID != id {
			t.Errorf("job %s record = job %q trace %q", v.ID, rec.JobID, rec.TraceID)
		}
	}
}

// TestDrainMidSweep: a sweep has one job running and several queued on
// one worker when its drain budget runs out. Every admitted job ends
// done or cancelled, a cancelled one saying "drain budget exhausted" on
// its record and in its Error, stays readable through List and Get, and
// the daemon's goroutines return to baseline. A job DELETEd before the
// drain ends cancelled without naming the drain. Not parallel: the count
// is process-wide.
func TestDrainMidSweep(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := New(Config{Executor: ExecutorConfig{Workers: 1}})
	ts := httptest.NewServer(s.Handler())
	s.exec.runFn = func(ctx context.Context, _ runner) (*Outcome, error) {
		select {
		case <-time.After(60 * time.Millisecond):
			return &Outcome{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	var sweep []View
	for seed := int64(1); seed <= 6; seed++ {
		v, code := submit(t, ts, seededSpec(seed))
		if code != http.StatusAccepted {
			t.Fatalf("submit seed %d answered %d", seed, code)
		}
		sweep = append(sweep, v)
	}
	awaitJob(t, ts, sweep[0].ID, func(v View) bool { return v.State != StateQueued }, "started")
	deleted := sweep[len(sweep)-1]
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+deleted.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	ctx, cancel := contextWithTimeout(100 * time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain returned %v, want the budget's deadline", err)
	}

	if got := len(s.exec.List()); got != len(sweep) {
		t.Errorf("List holds %d jobs after drain, want %d", got, len(sweep))
	}
	var cancelled int
	for _, v := range sweep {
		got := getJob(t, ts, v.ID)
		switch got.State {
		case StateDone:
		case StateCancelled:
			if v.ID == deleted.ID {
				if got.Error != context.Canceled.Error() {
					t.Errorf("DELETEd job's error %q, want %q", got.Error, context.Canceled.Error())
				}
				continue
			}
			cancelled++
			evs, _ := rootEvents(t, mustJobTrace(t, s.exec, v.ID))
			if last := evs[len(evs)-1]; last.Name != EventCancelled || last.Detail != drainExhausted {
				t.Errorf("job %s ends with %s %q, want %s %q", v.ID, last.Name, last.Detail, EventCancelled, drainExhausted)
			}
			if !strings.Contains(got.Error, drainExhausted) {
				t.Errorf("drain-cancelled job %s has error %q, want it to name %q", v.ID, got.Error, drainExhausted)
			}
		default:
			t.Errorf("job %s is %s after drain, want done or cancelled", v.ID, got.State)
		}
	}
	if cancelled == 0 {
		t.Error("no job was cancelled, yet the sweep outlasts the budget")
	}

	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for n := runtime.NumGoroutine(); n > baseline; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after drain, baseline %d:\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
