package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func traceGetJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode
}

// TestTracesHTTP drives the trace endpoints over real HTTP: a traced
// submission (traceparent header) lands in /v1/traces, filters narrow
// the search, and the by-ID waterfall resolves.
func TestTracesHTTP(t *testing.T) {
	_, ts := newTestServer(t, ExecutorConfig{Workers: 2, Trace: TraceConfig{SampleRate: 1}})

	body, _ := json.Marshal(fastSpec())
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", testTraceparent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var v View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if v.TraceID != "0af7651916cd43dd8448eb211c80319c" || v.RequestID != v.TraceID {
		t.Fatalf("view = %+v, want the inbound trace ID adopted as trace and request ID", v)
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		var cur View
		traceGetJSON(t, ts.URL+"/v1/jobs/"+v.ID, &cur)
		if cur.State.Terminal() {
			if cur.State != StateDone {
				t.Fatalf("job ended %s: %s", cur.State, cur.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}

	var list struct {
		Traces []TraceSummary      `json:"traces"`
		Stats  obs.TraceStoreStats `json:"stats"`
	}
	if code := traceGetJSON(t, ts.URL+"/v1/traces", &list); code != http.StatusOK {
		t.Fatalf("/v1/traces status %d", code)
	}
	if len(list.Traces) == 0 || list.Stats.Len == 0 {
		t.Fatalf("traced job missing from search: %+v", list)
	}
	found := false
	for _, tr := range list.Traces {
		if tr.TraceID == v.TraceID {
			found = true
			if tr.JobID != v.ID || tr.Outcome != "done" || tr.Spans == 0 {
				t.Errorf("summary %+v", tr)
			}
		}
	}
	if !found {
		t.Fatalf("trace %s not listed", v.TraceID)
	}

	// Filters: kind=tte excludes the sim job; min_dur=0s includes it.
	list.Traces = nil
	traceGetJSON(t, ts.URL+"/v1/traces?kind=tte", &list)
	for _, tr := range list.Traces {
		if tr.TraceID == v.TraceID {
			t.Error("kind=tte filter returned a sim trace")
		}
	}
	if code := traceGetJSON(t, ts.URL+"/v1/traces?min_dur=bogus", nil); code != http.StatusBadRequest {
		t.Errorf("bad min_dur answered %d, want 400", code)
	}
	if code := traceGetJSON(t, ts.URL+"/v1/traces?limit=-3", nil); code != http.StatusBadRequest {
		t.Errorf("bad limit answered %d, want 400", code)
	}

	var full obs.StoredTrace
	if code := traceGetJSON(t, ts.URL+"/v1/traces/"+v.TraceID, &full); code != http.StatusOK {
		t.Fatalf("/v1/traces/{id} status %d", code)
	}
	if len(full.Spans) == 0 || full.Spans[0].Name != "request" {
		t.Errorf("waterfall = %+v, want a request-rooted span tree", full.Spans)
	}
	if code := traceGetJSON(t, ts.URL+"/v1/traces/deadbeef", nil); code != http.StatusNotFound {
		t.Errorf("unknown trace answered %d, want 404", code)
	}
}

// TestTracesHTTPDisabled: a daemon with tracing off answers 503 on both
// endpoints, matching the telemetry plane's convention.
func TestTracesHTTPDisabled(t *testing.T) {
	_, ts := newTestServer(t, ExecutorConfig{Workers: 1, Trace: TraceConfig{Disable: true}})
	if code := traceGetJSON(t, ts.URL+"/v1/traces", nil); code != http.StatusServiceUnavailable {
		t.Errorf("/v1/traces answered %d with tracing disabled, want 503", code)
	}
	if code := traceGetJSON(t, ts.URL+"/v1/traces/abc", nil); code != http.StatusServiceUnavailable {
		t.Errorf("/v1/traces/{id} answered %d with tracing disabled, want 503", code)
	}
}

// TestFlightHTTPCrossLinksTrace: the flight endpoint serves the
// trace_url satellite fix end to end — follow it and the waterfall
// resolves.
func TestFlightHTTPCrossLinksTrace(t *testing.T) {
	s, ts := newTestServer(t, ExecutorConfig{Workers: 1, Trace: TraceConfig{SampleRate: -1}})
	s.exec.runFn = func(context.Context, JobSpec, resolved) (*Outcome, error) {
		return nil, errors.New("boom")
	}

	body, _ := json.Marshal(fastSpec())
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", testTraceparent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var v View
	json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()

	deadline := time.Now().Add(60 * time.Second)
	for {
		var cur View
		traceGetJSON(t, ts.URL+"/v1/jobs/"+v.ID, &cur)
		if cur.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}

	var fl JobFlight
	if code := traceGetJSON(t, ts.URL+"/v1/jobs/"+v.ID+"/flight", &fl); code != http.StatusOK {
		t.Fatalf("flight status %d", code)
	}
	if fl.TraceID == "" || !strings.HasPrefix(fl.TraceURL, "/v1/traces/") {
		t.Fatalf("flight lacks trace cross-link: %+v", fl)
	}
	var full obs.StoredTrace
	if code := traceGetJSON(t, ts.URL+fl.TraceURL, &full); code != http.StatusOK {
		t.Fatalf("flight trace URL %s answered %d", fl.TraceURL, code)
	}
	if full.TraceID != fl.TraceID {
		t.Errorf("followed %s, got trace %s", fl.TraceURL, full.TraceID)
	}
}

// TestMetricsExemplarsHTTP: with Exemplars on, /metrics carries
// OpenMetrics trace-ID suffixes that point at retained traces.
func TestMetricsExemplarsHTTP(t *testing.T) {
	s := New(Config{Executor: ExecutorConfig{
		Workers: 1, Trace: TraceConfig{SampleRate: 1, Exemplars: true},
	}})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := contextWithTimeout(2 * time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})

	v, err := s.exec.SubmitWith(fastSpec(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	awaitExec(t, s.exec, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := string(raw)
	if !strings.Contains(out, `# {trace_id="`+v.TraceID+`"}`) {
		t.Error("/metrics lacks the retained trace's exemplar")
	}
	for _, family := range []string{"capmand_job_wall_seconds", "capmand_queue_wait_seconds"} {
		if !strings.Contains(out, family+"_bucket") {
			t.Errorf("family %s missing from /metrics", family)
		}
	}
	if !strings.Contains(out, `capmand_traces_total{decision="sampled"}`) {
		t.Error("capmand_traces_total{decision=sampled} missing from /metrics")
	}
}
