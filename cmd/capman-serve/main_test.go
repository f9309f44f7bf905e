package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// TestServeLifecycle drives the full daemon path: listen, serve the job
// API, then a shutdown signal (the cancelled context stands in for
// SIGTERM) that must drain the in-flight job before serve returns.
func TestServeLifecycle(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{Executor: server.ExecutorConfig{Workers: 1}})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- serve(ctx, ln, srv, defaultTestServer(srv), 60*time.Second, os.Stdout, obs.Nop())
	}()

	base := "http://" + ln.Addr().String()
	waitHealthy(t, base)

	spec := server.JobSpec{
		Workload: "video", Policy: "dual", Seed: 3,
		BigMAh: 300, LittleMAh: 300, MaxTimeS: 2000,
	}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var view server.View
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}

	// Signal shutdown immediately; the drain must still finish the job.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(90 * time.Second):
		t.Fatal("serve did not drain and exit")
	}
	got, err := srv.Executor().Get(view.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != server.StateDone {
		t.Fatalf("job state after drain %q (err %q), want done", got.State, got.Error)
	}
}

// defaultTestServer mirrors run()'s production hardening defaults.
func defaultTestServer(srv *server.Server) *http.Server {
	return hardenedServer(srv.Handler(), 5*time.Second, time.Minute, time.Minute, 1<<20)
}

func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("server never became healthy")
}

// TestServeStreamSmoke is the telemetry-plane smoke run by check.sh: a
// live daemon's /v1/stream must deliver telemetry samples and the
// submitted job's completion event to a subscriber within 5 seconds.
func TestServeStreamSmoke(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{
		Executor:  server.ExecutorConfig{Workers: 2},
		Telemetry: server.TelemetryConfig{Interval: 50 * time.Millisecond},
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- serve(ctx, ln, srv, defaultTestServer(srv), 60*time.Second, os.Stdout, obs.Nop())
	}()
	base := "http://" + ln.Addr().String()
	waitHealthy(t, base)

	req, err := http.NewRequest(http.MethodGet, base+"/v1/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}

	spec := server.JobSpec{
		Workload: "video", Policy: "dual", Seed: 11,
		BigMAh: 300, LittleMAh: 300, MaxTimeS: 2000,
	}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	post, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var view server.View
	if err := json.NewDecoder(post.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	post.Body.Close()

	type sse struct{ event, data string }
	events := make(chan sse, 64)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		var cur sse
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

	var gotSample, gotDone bool
	deadline := time.After(5 * time.Second)
	for !(gotSample && gotDone) {
		select {
		case <-deadline:
			t.Fatalf("stream smoke incomplete after 5s: sample=%t done=%t", gotSample, gotDone)
		case ev, ok := <-events:
			if !ok {
				t.Fatal("stream closed before delivering sample and job-done")
			}
			switch ev.event {
			case "sample":
				gotSample = true
			case "job":
				if strings.Contains(ev.data, view.ID) && strings.Contains(ev.data, `"type":"done"`) {
					gotDone = true
				}
			}
		}
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not drain and exit")
	}
}

// TestSlowHeaderClientDisconnected pins the slowloris defence: a client
// that dribbles headers past ReadHeaderTimeout is cut off instead of
// pinning a connection forever.
func TestSlowHeaderClientDisconnected(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{Executor: server.ExecutorConfig{Workers: 1}})
	httpSrv := hardenedServer(srv.Handler(), 100*time.Millisecond, time.Minute, time.Minute, 1<<20)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- serve(ctx, ln, srv, httpSrv, 10*time.Second, os.Stdout, obs.Nop()) }()
	waitHealthy(t, "http://"+ln.Addr().String())

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send a partial header block and then stall, never finishing it.
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: capmand\r\nX-Slow:")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	buf := make([]byte, 512)
	for {
		_, err := conn.Read(buf)
		if err != nil {
			break // server hung up on us — the desired outcome
		}
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("slow-header connection survived %v, want close near the 100ms header timeout", elapsed)
	}

	cancel()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not exit")
	}
}

// TestStreamSurvivesWriteTimeout: the SSE stream must keep delivering
// samples well past the daemon's WriteTimeout, because handleStream
// clears its per-connection deadlines. Without that exemption a 200ms
// write timeout would sever the stream at the first flush after 200ms.
func TestStreamSurvivesWriteTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{
		Executor:  server.ExecutorConfig{Workers: 1},
		Telemetry: server.TelemetryConfig{Interval: 50 * time.Millisecond},
	})
	httpSrv := hardenedServer(srv.Handler(), 5*time.Second, 200*time.Millisecond, 200*time.Millisecond, 1<<20)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- serve(ctx, ln, srv, httpSrv, 10*time.Second, os.Stdout, obs.Nop()) }()
	base := "http://" + ln.Addr().String()
	waitHealthy(t, base)

	resp, err := http.Get(base + "/v1/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	connected := time.Now()
	var lastSample time.Time
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "event: sample") {
			lastSample = time.Now()
			if lastSample.Sub(connected) > 500*time.Millisecond {
				break // survived well past the 200ms write timeout
			}
		}
	}
	if lastSample.IsZero() {
		t.Fatal("stream delivered no samples")
	}
	if got := lastSample.Sub(connected); got <= 500*time.Millisecond {
		t.Errorf("stream died %v after connect; write timeout severed the SSE feed", got)
	}

	cancel()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not exit")
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := run(ctx, []string{"-bogus-flag"}, os.Stdout); err == nil {
		t.Error("unknown flag accepted")
	}
	// Jobs run once, /metrics is plain text, the full queue is the only
	// backlog bound and the only reason to shed, and the breakers' tuning
	// is fixed: none of these flags exists.
	for _, args := range [][]string{
		{"-retries", "1"}, {"-exemplars"},
		{"-shed-watermark", "8"}, {"-shed-retry-after", "2s"},
		{"-breaker-threshold", "3"}, {"-breaker-cooldown", "1m"},
		{"-shed-on-burn"},
	} {
		if _, err := parseFlags(args, io.Discard); err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Errorf("%v: err %v, want an unknown-flag error", args, err)
		}
	}
	if err := run(ctx, []string{"-addr", "999.999.999.999:0"}, os.Stdout); err == nil {
		t.Error("unroutable listen address accepted")
	}
}

// TestParseFlagsBenchmarkArgs pins the daemon flags the benchmark passes:
// capbench's startDaemon adds -addr 127.0.0.1:0 (capbench/daemon.go:37)
// and its untraced leg adds noObs (capbench/traced.go:16).
func TestParseFlagsBenchmarkArgs(t *testing.T) {
	args := []string{"-addr", "127.0.0.1:0", "-no-trace", "-no-flight", "-no-telemetry"}
	opts, err := parseFlags(args, io.Discard)
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	if opts.addr != "127.0.0.1:0" || !opts.server.Executor.Trace.Disable || !opts.server.Telemetry.Disable {
		t.Errorf("%v parsed to addr %q, trace off %v, telemetry off %v", args,
			opts.addr, opts.server.Executor.Trace.Disable, opts.server.Telemetry.Disable)
	}
}

// startRun runs the daemon through run with args in the background. It
// returns the daemon's base URL once it answers /healthz, and a stop
// function that cancels run's context — the SIGTERM path — and waits for
// run to return nil.
func startRun(t *testing.T, args ...string) (string, func()) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	addrc := make(chan string, 1)
	go func() { // read the bound address, then keep the pipe drained
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "capmand listening on "); ok {
				addrc <- a
			}
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, args, w)
		w.Close()
	}()
	var base string
	select {
	case a := <-addrc:
		base = "http://" + a
	case err := <-done:
		t.Fatalf("run returned before listening: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never listened")
	}
	waitHealthy(t, base)
	return base, func() {
		t.Helper()
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("daemon did not exit")
		}
	}
}

// postJob submits body to path and returns the accepted job's view.
func postJob(t *testing.T, base, path, body string) server.View {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var view server.View
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST %s status %d: %v", path, resp.StatusCode, err)
	}
	return view
}

// TestRunMetricsPlainTextAfterFailedJob starts the daemon through its
// flags and fails a job, whose trace is always retained: /metrics stays
// plain Prometheus text, with no OpenMetrics exemplar suffix on any line.
func TestRunMetricsPlainTextAfterFailedJob(t *testing.T) {
	base, stop := startRun(t, "-addr", "127.0.0.1:0", "-workers", "1", "-job-timeout", "100ms",
		"-no-telemetry", "-log-level", "error")

	// Minutes of simulated work at a 1 ms step: the 100 ms timeout fails it.
	view := postJob(t, base, "/v1/jobs", `{"workload":"geekbench","policy":"dual","dt":0.001}`)
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		resp, err := http.Get(base + "/v1/jobs/" + view.ID)
		if err != nil {
			t.Fatal(err)
		}
		var cur server.View
		err = json.NewDecoder(resp.Body).Decode(&cur)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if cur.State.Terminal() {
			if cur.State != server.StateFailed {
				t.Fatalf("job ended %s, want failed on its timeout", cur.State)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never ended")
		}
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	stop()
	if strings.Contains(string(body), " # {") {
		t.Errorf("/metrics carries an exemplar suffix:\n%s", body)
	}
}

// TestDrainReturnsGoroutinesToBaseline: a daemon started through run,
// with its telemetry plane, a /v1/stream subscriber and two sim jobs and
// one tte job admitted, leaves no goroutine behind once a cancelled
// context (the SIGTERM path) has drained it. Not parallel: the count is
// process-wide.
func TestDrainReturnsGoroutinesToBaseline(t *testing.T) {
	baseline := runtime.NumGoroutine()
	base, stop := startRun(t, "-addr", "127.0.0.1:0", "-workers", "2",
		"-telemetry-interval", "50ms", "-log-level", "error")

	resp, err := http.Get(base + "/v1/stream")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	streamDone := make(chan struct{})
	go func() { // the subscriber reads until the daemon ends the stream
		defer close(streamDone)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()

	postJob(t, base, "/v1/jobs", `{"workload":"video","policy":"dual","seed":1,"bigMAh":300,"littleMAh":300,"maxTimeS":2000}`)
	postJob(t, base, "/v1/jobs", `{"workload":"video","policy":"capman","seed":2,"bigMAh":300,"littleMAh":300,"maxTimeS":2000}`)
	postJob(t, base, "/v1/tte", `{"workload":"video","seed":7,"tte":{"twins":16,"mAh":160,"horizonS":7200}}`)

	stop()
	select {
	case <-streamDone:
	case <-time.After(10 * time.Second):
		t.Fatal("stream subscriber never saw the stream end")
	}
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

// TestDocInvocationsParse: every capman-serve invocation the README,
// EXPERIMENTS.md and this command's package doc show parses with the
// daemon's flags, so the docs cannot name a flag it does not have.
// Nothing binds.
func TestDocInvocationsParse(t *testing.T) {
	const cmd = "capman-serve"
	examples := 0
	for _, doc := range []string{"../../README.md", "../../EXPERIMENTS.md", "main.go"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(raw)
		if doc == "main.go" { // the package doc only
			text, _, _ = strings.Cut(text, "\npackage main")
		}
		text = strings.ReplaceAll(text, "\\\n", " ")
		for _, line := range strings.Split(text, "\n") {
			_, rest, ok := strings.Cut(line, cmd+" -")
			if !ok {
				continue
			}
			rest = "-" + rest
			if i := strings.IndexAny(rest, "`&#|>"); i >= 0 {
				rest = rest[:i]
			}
			args := strings.Fields(rest)
			examples++
			if _, err := parseFlags(args, io.Discard); err != nil {
				t.Errorf("%s: %s %s: %v", doc, cmd, strings.Join(args, " "), err)
			}
		}
	}
	if examples < 10 {
		t.Errorf("found %d capman-serve invocations in the docs, want at least 10", examples)
	}
}

// TestServeTraceSmoke is the request-tracing smoke run by check.sh: a
// real daemon with default tracing must retain a traced submission's
// finished job and serve it from /v1/traces search and the by-ID
// waterfall with queue and engine-phase spans.
func TestServeTraceSmoke(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{Executor: server.ExecutorConfig{Workers: 1}})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- serve(ctx, ln, srv, defaultTestServer(srv), 60*time.Second, os.Stdout, obs.Nop())
	}()
	base := "http://" + ln.Addr().String()
	waitHealthy(t, base)

	spec := server.JobSpec{
		Workload: "video", Policy: "dual", Seed: 11,
		BigMAh: 300, LittleMAh: 300, MaxTimeS: 2000,
	}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	const traceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", traceparent)
	req.Header.Set("X-Request-ID", "trace-smoke")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var view server.View
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if view.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("view trace ID %q, want the traceparent's", view.TraceID)
	}
	if view.RequestID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("view request ID %q, want the traceparent's trace ID", view.RequestID)
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + view.ID)
		if err != nil {
			t.Fatal(err)
		}
		var cur server.View
		err = json.NewDecoder(resp.Body).Decode(&cur)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if cur.State.Terminal() {
			if cur.State != server.StateDone {
				t.Fatalf("job ended %s: %s", cur.State, cur.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Search finds the trace...
	resp, err = http.Get(base + "/v1/traces?outcome=done")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Traces []server.TraceSummary `json:"traces"`
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, tr := range list.Traces {
		if tr.TraceID == view.TraceID {
			found = true
		}
	}
	if !found {
		t.Fatalf("trace %s not in /v1/traces search", view.TraceID)
	}

	// ...and the waterfall has the queue, run, and phase spans.
	resp, err = http.Get(base + "/v1/traces/" + view.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	var full obs.StoredTrace
	err = json.NewDecoder(resp.Body).Decode(&full)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	var walk func(nodes []obs.SpanNode)
	walk = func(nodes []obs.SpanNode) {
		for _, n := range nodes {
			names[n.Name] = true
			walk(n.Children)
		}
	}
	walk(full.Spans)
	for _, want := range []string{"request", "queue", "sim.run", "phase:policy"} {
		if !names[want] {
			t.Errorf("waterfall missing %q span (have %v)", want, names)
		}
	}

	cancel()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not exit")
	}
}

// TestServeJobRecordSmoke is the job-record smoke run by check.sh: a real
// daemon with tracing disabled still serves a finished job's record at
// /v1/jobs/{id}/trace, its root span holding the submitted→done
// lifecycle, while /v1/traces/{id} answers 503.
func TestServeJobRecordSmoke(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{Executor: server.ExecutorConfig{
		Workers: 1,
		Trace:   server.TraceConfig{Disable: true},
	}})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- serve(ctx, ln, srv, defaultTestServer(srv), 60*time.Second, os.Stdout, obs.Nop())
	}()
	base := "http://" + ln.Addr().String()
	waitHealthy(t, base)

	body, err := json.Marshal(server.JobSpec{
		Workload: "video", Policy: "dual", Seed: 12,
		BigMAh: 300, LittleMAh: 300, MaxTimeS: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var view server.View
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %v", resp.StatusCode, err)
	}

	get := func(path string, into any) int {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if into != nil && resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode
	}
	for deadline := time.Now().Add(60 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		var cur server.View
		get("/v1/jobs/"+view.ID, &cur)
		if cur.State.Terminal() {
			if cur.State != server.StateDone {
				t.Fatalf("job ended %s: %s", cur.State, cur.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
	}

	var rec obs.StoredTrace
	if code := get("/v1/jobs/"+view.ID+"/trace", &rec); code != http.StatusOK {
		t.Fatalf("job record answered %d", code)
	}
	if rec.JobID != view.ID || rec.TraceID != view.RequestID || rec.Outcome != string(server.StateDone) || len(rec.Spans) != 1 {
		t.Fatalf("record header: job %s trace %s outcome %s, %d roots", rec.JobID, rec.TraceID, rec.Outcome, len(rec.Spans))
	}
	var got []string
	for _, ev := range rec.Spans[0].Events {
		got = append(got, ev.Name)
	}
	want := []string{server.EventSubmitted, server.EventQueued, server.EventRunning, server.EventDone}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("record lifecycle %v, want %v", got, want)
	}
	if code := get("/v1/traces/"+view.RequestID, nil); code != http.StatusServiceUnavailable {
		t.Errorf("/v1/traces/{id} answered %d with tracing disabled, want 503", code)
	}

	cancel()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("serve did not exit")
	}
}
