package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
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
	_, ts := newTestServer(t, ExecutorConfig{Workers: 2})

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

// getBody fetches url and returns its status and raw body.
func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestFlightHTTPCrossLinksTrace: a finished job's record is one object
// under two URLs. Follow the view's traceId to
// /v1/traces/{id} and the body equals /v1/jobs/{id}/trace byte for byte.
func TestFlightHTTPCrossLinksTrace(t *testing.T) {
	s, ts := newTestServer(t, ExecutorConfig{Workers: 1})
	s.exec.runFn = func(context.Context, runner) (*Outcome, error) {
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

	done := awaitJob(t, ts, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")
	if done.State != StateFailed || done.TraceID == "" {
		t.Fatalf("job ended %q with trace link %q, want failed and linked", done.State, done.TraceID)
	}
	code, retained := getBody(t, ts.URL+"/v1/traces/"+done.TraceID)
	if code != http.StatusOK {
		t.Fatalf("view's trace link answered %d", code)
	}
	code, record := getBody(t, ts.URL+"/v1/jobs/"+v.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("job record answered %d", code)
	}
	if !bytes.Equal(retained, record) {
		t.Errorf("retained trace and job record differ:\n%s\n%s", retained, record)
	}
	var tr obs.StoredTrace
	if err := json.Unmarshal(record, &tr); err != nil || tr.TraceID != done.TraceID || len(tr.MetricDeltas) == 0 {
		t.Errorf("record trace_id %q with %d deltas (%v), want %s with deltas", tr.TraceID, len(tr.MetricDeltas), err, done.TraceID)
	}
}

// TestJobRecordUnderTraceDisable: with tracing disabled /v1/traces
// answers 503, yet a failed job's record still carries its lifecycle and
// its metric deltas.
func TestJobRecordUnderTraceDisable(t *testing.T) {
	s, ts := newTestServer(t, ExecutorConfig{Workers: 1, Trace: TraceConfig{Disable: true}})
	s.exec.runFn = alwaysFail
	v, _ := submit(t, ts, fastSpec())
	awaitJob(t, ts, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")
	if code := traceGetJSON(t, ts.URL+"/v1/traces/"+v.RequestID, nil); code != http.StatusServiceUnavailable {
		t.Errorf("/v1/traces/{id} answered %d with tracing disabled, want 503", code)
	}
	var tr obs.StoredTrace
	getJSON(t, ts.URL+"/v1/jobs/"+v.ID+"/trace", &tr)
	evs, _ := rootEvents(t, &tr)
	want := []string{EventSubmitted, EventQueued, EventRunning, EventFailed}
	if got := eventTypes(evs); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("lifecycle %v, want %v", got, want)
	}
	if tr.Outcome != string(StateFailed) || deltaSums(&tr)["capmand_jobs_failed_total"] < 1 {
		t.Errorf("record outcome %q deltas %v, want failed with the failure counted", tr.Outcome, deltaSums(&tr))
	}
}
