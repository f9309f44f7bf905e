package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// logSink captures a logger's JSON lines; workers write concurrently.
type logSink struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *logSink) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *logSink) logger() *slog.Logger {
	return slog.New(slog.NewJSONHandler(l, &slog.HandlerOptions{Level: slog.LevelDebug}))
}

// records decodes every captured line.
func (l *logSink) records(t *testing.T) []map[string]any {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	var recs []map[string]any
	for _, line := range bytes.Split(bytes.TrimSpace(l.buf.Bytes()), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// requestIDs lists the request_id of every captured line with message msg.
func (l *logSink) requestIDs(t *testing.T, msg string) []string {
	t.Helper()
	var ids []string
	for _, rec := range l.records(t) {
		if rec["msg"] == msg {
			id, _ := rec["request_id"].(string)
			ids = append(ids, id)
		}
	}
	return ids
}

// refusalIDs returns the request_id of every captured refusal line
// whose reason is reason.
func (l *logSink) refusalIDs(t *testing.T, reason string) []string {
	t.Helper()
	var ids []string
	for _, rec := range l.records(t) {
		if rec["msg"] == "submission refused" && rec["reason"] == reason {
			id, _ := rec["request_id"].(string)
			ids = append(ids, id)
		}
	}
	return ids
}

// jobLogIDs returns the request_id of every captured line about a job,
// failing unless the lines include msgs.
func (l *logSink) jobLogIDs(t *testing.T, jobID string, msgs ...string) []string {
	t.Helper()
	var ids []string
	seen := map[string]bool{}
	for _, rec := range l.records(t) {
		if rec["job_id"] == jobID {
			id, _ := rec["request_id"].(string)
			ids = append(ids, id)
			seen[rec["msg"].(string)] = true
		}
	}
	for _, m := range msgs {
		if !seen[m] {
			t.Errorf("no %q log line for job %s", m, jobID)
		}
	}
	return ids
}

var traceIDRE = regexp.MustCompile(`^[0-9a-f]{32}$`)

// TestRejectionsLeaveShedTraces: an open breaker and a full queue each
// leave exactly one retained shed trace, keyed by the ID on the
// refusal's one log line, and one capmand_shed_total count, all under the
// same reason.
func TestRejectionsLeaveShedTraces(t *testing.T) {
	check := func(t *testing.T, e *Executor, logs *logSink, reason string) {
		t.Helper()
		found := e.traces.Search(obs.TraceQuery{Outcome: "shed"})
		if len(found) != 1 {
			t.Fatalf("retained %d shed traces, want 1", len(found))
		}
		tr := found[0]
		if len(tr.Spans) != 1 || tr.Spans[0].Attrs["shed_reason"] != reason {
			t.Errorf("shed trace spans %+v, want one span with shed_reason=%s", tr.Spans, reason)
		}
		ids := logs.refusalIDs(t, reason)
		if len(ids) != 1 || tr.TraceID != ids[0] {
			t.Errorf("shed trace ID %q, want the %s refusal line's request_id (%v)", tr.TraceID, reason, ids)
		}
		if got := e.metrics.Shed.WithLabelValues(reason).Value(); got != 1 {
			t.Errorf("capmand_shed_total{reason=%s} = %d, want 1", reason, got)
		}
	}

	t.Run("breaker-open", func(t *testing.T) {
		var logs logSink
		e := newTestExecutor(t, ExecutorConfig{Workers: 1, Logger: logs.logger()})
		e.runFn = func(context.Context, runner) (*Outcome, error) {
			return nil, errors.New("entry is broken")
		}
		for seed := int64(1); seed <= breakerThreshold; seed++ {
			v, err := e.Submit(seededSpec(seed))
			if err != nil {
				t.Fatal(err)
			}
			awaitExec(t, e, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")
		}
		if _, err := e.Submit(seededSpec(breakerThreshold + 1)); !errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("submit on open breaker: %v, want ErrBreakerOpen", err)
		}
		check(t, e, &logs, "breaker-open")
	})

	t.Run("queue-full", func(t *testing.T) {
		var logs logSink
		e := newTestExecutor(t, ExecutorConfig{Workers: 1, QueueDepth: 1, Logger: logs.logger()})
		release := shedGate(e)
		defer release()
		running, err := e.Submit(seededSpec(1))
		if err != nil {
			t.Fatal(err)
		}
		awaitExec(t, e, running.ID, func(v View) bool { return v.State == StateRunning }, "running")
		if _, err := e.Submit(seededSpec(2)); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Submit(seededSpec(3)); !errors.Is(err, ErrShed) {
			t.Fatalf("overflow submit: %v, want ErrShed", err)
		}
		check(t, e, &logs, "queue-full")
	})
}

// TestDrainRefusalLeavesShedTrace: a submission refused because the
// executor is draining leaves one retained shed trace (shed_reason
// "draining") under the submission's one ID: the inbound traceparent's,
// or one minted for the refusal and logged with it.
func TestDrainRefusalLeavesShedTrace(t *testing.T) {
	var logs logSink
	e := newTestExecutor(t, ExecutorConfig{Workers: 1, Logger: logs.logger()})
	ctx, cancel := contextWithTimeout(5 * time.Second)
	defer cancel()
	if err := e.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SubmitWith(fastSpec(), testOpts()); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining: %v, want ErrDraining", err)
	}
	if _, err := e.Submit(seededSpec(2)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining: %v, want ErrDraining", err)
	}
	found := e.traces.Search(obs.TraceQuery{Outcome: "shed"})
	ids := logs.refusalIDs(t, "draining")
	if len(found) != 2 || len(ids) != 2 {
		t.Fatalf("retained %d shed traces and logged %d refusals, want 2 each", len(found), len(ids))
	}
	// Search returns newest first; the log lines are in submission order.
	for i, want := range []string{ids[1], "0af7651916cd43dd8448eb211c80319c"} {
		tr := found[i]
		if tr.TraceID != want || !traceIDRE.MatchString(tr.TraceID) {
			t.Errorf("shed trace %d ID %q, want %q", i, tr.TraceID, want)
		}
		if len(tr.Spans) != 1 || tr.Spans[0].Attrs["shed_reason"] != "draining" {
			t.Errorf("shed trace %d spans %+v, want one span with shed_reason=draining", i, tr.Spans)
		}
	}
	if ids[0] != "0af7651916cd43dd8448eb211c80319c" {
		t.Errorf("first refusal logged request_id %q, want the traceparent's", ids[0])
	}
	if got := e.metrics.Shed.WithLabelValues("draining").Value(); got != 2 {
		t.Errorf("capmand_shed_total{reason=draining} = %d, want 2", got)
	}
}

// TestRequestIDHeaderAlias: an X-Request-ID that is a valid trace ID (32
// lowercase hex, not all zero) is adopted as the submission's one ID;
// anything else is ignored and a fresh ID minted. Requests go straight to
// the handler because a conforming client cannot send CR/LF in a header.
func TestRequestIDHeaderAlias(t *testing.T) {
	s, _ := newTestServer(t, ExecutorConfig{Workers: 1})
	s.exec.runFn = func(context.Context, runner) (*Outcome, error) { return &Outcome{}, nil }
	const valid = "4bf92f3577b34da6a3ce929d0e0e4736"

	seed := int64(100)
	post := func(t *testing.T, headers map[string]string) View {
		t.Helper()
		spec := fastSpec()
		seed++ // a fresh spec per request: a cache hit carries no request ID
		spec.Seed = seed
		body, _ := json.Marshal(spec)
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
		for k, v := range headers {
			req.Header[http.CanonicalHeaderKey(k)] = []string{v}
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submit status %d: %s", rec.Code, rec.Body)
		}
		var v View
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			t.Fatal(err)
		}
		if !traceIDRE.MatchString(v.RequestID) || v.TraceID != v.RequestID {
			t.Fatalf("requestId %q traceId %q, want one 32-hex ID in both", v.RequestID, v.TraceID)
		}
		return v
	}

	if v := post(t, map[string]string{"X-Request-ID": valid}); v.RequestID != valid {
		t.Errorf("valid X-Request-ID not adopted: requestId %q", v.RequestID)
	}
	for name, h := range map[string]string{
		"uppercase": strings.ToUpper(valid),
		"31 chars":  valid[:31],
		"33 chars":  valid + "a",
		"all zeros": strings.Repeat("0", 32),
		"demo-1":    "demo-1",
		"crlf":      valid[:30] + "\r\n",
		"quote":     valid[:31] + `"`,
		"4 KiB":     strings.Repeat("a", 4096),
	} {
		t.Run(name, func(t *testing.T) {
			if v := post(t, map[string]string{"X-Request-ID": h}); strings.Contains(strings.ToLower(h), v.RequestID) {
				t.Errorf("invalid X-Request-ID %q adopted as %q", h, v.RequestID)
			}
		})
	}
	v := post(t, map[string]string{"traceparent": testTraceparent, "X-Request-ID": valid})
	if v.RequestID != "0af7651916cd43dd8448eb211c80319c" {
		t.Errorf("requestId %q, want the traceparent's trace ID over X-Request-ID", v.RequestID)
	}
}

// TestOneRequestIDEndToEnd: a job's log lines, pprof label, record, SSE
// job frames and retained trace all carry the same ID.
func TestOneRequestIDEndToEnd(t *testing.T) {
	var logs logSink
	s, ts := newTelemetryServer(t, ExecutorConfig{
		Workers: 1, Logger: logs.logger(),
	})
	label := make(chan string, 1)
	s.exec.runFn = func(ctx context.Context, r runner) (*Outcome, error) {
		id, _ := pprof.Label(ctx, "request_id")
		label <- id
		obs.Logger(ctx).Info("engine running")
		return r.run(ctx)
	}

	resp, err := http.Get(ts.URL + "/v1/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frames := make(chan JobStreamEvent, 64)
	go func() {
		defer close(frames)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		event := ""
		for sc.Scan() {
			line := sc.Text()
			if ev, ok := strings.CutPrefix(line, "event: "); ok {
				event = ev
			} else if data, ok := strings.CutPrefix(line, "data: "); ok && event == "job" {
				var ev struct {
					Data JobStreamEvent `json:"data"`
				}
				if json.Unmarshal([]byte(data), &ev) == nil {
					frames <- ev.Data
				}
			}
		}
	}()

	v, _ := submit(t, ts, fastSpec())
	id := v.RequestID
	if !traceIDRE.MatchString(id) || v.TraceID != id {
		t.Fatalf("view requestId %q traceId %q, want one 32-hex ID", id, v.TraceID)
	}
	var types []string
	timeout := time.After(60 * time.Second)
	for done := false; !done; {
		select {
		case je, ok := <-frames:
			if !ok {
				t.Fatal("stream closed early")
			}
			if je.JobID != v.ID {
				continue
			}
			if je.RequestID != id {
				t.Errorf("SSE %s frame requestId %q, want %q", je.Type, je.RequestID, id)
			}
			types = append(types, je.Type)
			done = je.State.Terminal()
		case <-timeout:
			t.Fatalf("no terminal job frame; got %v", types)
		}
	}
	if got := <-label; got != id {
		t.Errorf("pprof label request_id %q, want %q", got, id)
	}

	var rec obs.StoredTrace
	if code := traceGetJSON(t, ts.URL+"/v1/jobs/"+v.ID+"/trace", &rec); code != http.StatusOK ||
		rec.TraceID != id || len(rec.Spans) != 1 || rec.Spans[0].Attrs["request_id"] != id {
		t.Errorf("record: status %d trace_id %q, want %q on the record and its root span", code, rec.TraceID, id)
	}
	var tr obs.StoredTrace
	if code := traceGetJSON(t, ts.URL+"/v1/traces/"+id, &tr); code != http.StatusOK || tr.TraceID != id {
		t.Errorf("trace: status %d trace_id %q, want %q", code, tr.TraceID, id)
	}
	for _, got := range logs.jobLogIDs(t, v.ID, "job submitted", "engine running", "job done") {
		if got != id {
			t.Errorf("log line request_id %q, want %q", got, id)
		}
	}
}

// TestRequestIDUnderTraceDisable: with tracing disabled every job still
// gets its one ID, on the view and on its log lines; only the traceId
// link is withheld.
func TestRequestIDUnderTraceDisable(t *testing.T) {
	var logs logSink
	e := newTestExecutor(t, ExecutorConfig{
		Workers: 1, Logger: logs.logger(), Trace: TraceConfig{Disable: true},
	})
	v, err := e.Submit(fastSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !traceIDRE.MatchString(v.RequestID) || v.TraceID != "" {
		t.Fatalf("requestId %q traceId %q, want a 32-hex request ID and no trace link", v.RequestID, v.TraceID)
	}
	awaitExec(t, e, v.ID, func(v View) bool { return v.State.Terminal() }, "terminal")
	for _, got := range logs.jobLogIDs(t, v.ID, "job submitted", "job done") {
		if got != v.RequestID {
			t.Errorf("log line request_id %q, want %q", got, v.RequestID)
		}
	}
}
