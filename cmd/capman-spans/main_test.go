package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// fixtureTrace is a failed job's record: request → queue and sim.run,
// whose error attr marks the failure, with one engine phase under it.
func fixtureTrace() obs.StoredTrace {
	t0 := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	return obs.StoredTrace{
		TraceID:   "0af7651916cd43dd8448eb211c80319c",
		JobID:     "job-1",
		Kind:      "sim",
		Outcome:   "failed",
		Flags:     []string{"error", "fatal-invariant"},
		Start:     t0,
		DurationS: 0.2,
		Spans: []obs.SpanNode{{
			Name: "request", SpanID: "00f067aa0ba902b7", Start: t0, DurationMS: 200,
			Attrs: map[string]any{"job_id": "job-1"},
			Children: []obs.SpanNode{
				{Name: "queue", Start: t0, DurationMS: 50},
				{Name: "sim.run", Start: t0.Add(50 * time.Millisecond), DurationMS: 140,
					Attrs: map[string]any{"error": "stuck-switch"},
					Children: []obs.SpanNode{
						{Name: "phase:policy", Start: t0.Add(51 * time.Millisecond), DurationMS: 70},
					}},
			},
		}},
	}
}

func TestWaterfallFromFile(t *testing.T) {
	tr := fixtureTrace()
	raw, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := run(context.Background(), []string{"-file", path, "-plain"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	for _, want := range []string{
		tr.TraceID, "failed", "[error,fatal-invariant]",
		"request", "queue", "sim.run", "phase:policy",
		"█", "error=stuck-switch", "job=job-1",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("waterfall missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "\x1b[") {
		t.Errorf("-plain output contains ANSI escapes:\n%s", got)
	}
}

func TestWaterfallANSIColorsErrors(t *testing.T) {
	tr := fixtureTrace()
	var out bytes.Buffer
	renderWaterfall(&out, &tr, 32, true)
	got := out.String()
	if !strings.Contains(got, "\x1b[31m") {
		t.Errorf("errored sim.run span not rendered red:\n%s", got)
	}
	if !strings.Contains(got, "\x1b[32m") {
		t.Errorf("healthy spans not rendered green:\n%s", got)
	}
}

// fakeDaemon serves the two trace endpoints the CLI talks to.
func fakeDaemon(t *testing.T, tr obs.StoredTrace) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/traces", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("outcome") == "done" {
			json.NewEncoder(w).Encode(map[string]any{
				"traces": []server.TraceSummary{}, "stats": obs.TraceStoreStats{},
			})
			return
		}
		json.NewEncoder(w).Encode(map[string]any{
			"traces": []server.TraceSummary{{
				TraceID: tr.TraceID, JobID: tr.JobID, Kind: tr.Kind,
				Outcome: tr.Outcome, Flags: tr.Flags, Start: tr.Start,
				DurationS: tr.DurationS, Spans: 5,
			}},
			"stats": obs.TraceStoreStats{Len: 1, Evicted: 2},
		})
	})
	mux.HandleFunc("GET /v1/traces/{id}", func(w http.ResponseWriter, r *http.Request) {
		if r.PathValue("id") != tr.TraceID {
			w.WriteHeader(http.StatusNotFound)
			json.NewEncoder(w).Encode(map[string]string{"error": "no retained trace"})
			return
		}
		json.NewEncoder(w).Encode(tr)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestListMode(t *testing.T) {
	tr := fixtureTrace()
	srv := fakeDaemon(t, tr)

	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-addr", srv.URL, "-min-dur", "100ms", "-outcome", "failed", "-limit", "10",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	for _, want := range []string{tr.TraceID, "failed", "5 spans", "[error,fatal-invariant]", "1 retained", "2 aged out"} {
		if !strings.Contains(got, want) {
			t.Errorf("list output missing %q:\n%s", want, got)
		}
	}

	out.Reset()
	if err := run(context.Background(), []string{"-addr", srv.URL, "-outcome", "done"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "no retained traces match") {
		t.Errorf("empty search should say so:\n%s", out.String())
	}
}

func TestWaterfallByID(t *testing.T) {
	tr := fixtureTrace()
	srv := fakeDaemon(t, tr)

	var out bytes.Buffer
	err := run(context.Background(), []string{"-addr", srv.URL, "-id", tr.TraceID, "-plain"}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"request", "queue", "sim.run", "phase:policy"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("waterfall missing span %q:\n%s", want, out.String())
		}
	}

	out.Reset()
	err = run(context.Background(), []string{"-addr", srv.URL, "-id", "deadbeef"}, &out)
	if err == nil || !strings.Contains(err.Error(), "no retained trace") {
		t.Errorf("unknown ID should surface the daemon's error, got %v", err)
	}
}

// TestWaterfallListsSpanEvents: events render under their span, timed from
// the trace start, with the dropped-event count.
func TestWaterfallListsSpanEvents(t *testing.T) {
	tr := fixtureTrace()
	t0 := tr.Start
	tr.Spans[0].Events = []obs.FlightEvent{
		{Seq: 1, At: t0, Kind: obs.FlightLifecycle, Name: "submitted"},
		{Seq: 2, At: t0.Add(50 * time.Millisecond), Kind: obs.FlightLifecycle, Name: "running", Detail: "after 0.050s queued"},
	}
	tr.Spans[0].DroppedEvents = 3
	sim := &tr.Spans[0].Children[1]
	sim.Events = []obs.FlightEvent{{Seq: 3, At: t0.Add(150 * time.Millisecond), Kind: obs.FlightDegrade,
		Name: "stuck-switch", Detail: "8 consecutive flips unacknowledged"}}
	var out bytes.Buffer
	renderWaterfall(&out, &tr, 40, false)
	got := out.String()
	for _, want := range []string{
		"(3 earlier events dropped)",
		"+0s        lifecycle submitted",
		"+50ms      lifecycle running  after 0.050s queued",
		"+150ms     degrade stuck-switch  8 consecutive flips unacknowledged",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("waterfall missing %q:\n%s", want, got)
		}
	}
	// The degrade event sits under sim.run, after its bar.
	if strings.Index(got, "degrade stuck-switch") < strings.Index(got, "sim.run") {
		t.Errorf("degrade event not under its span:\n%s", got)
	}
}

// TestWaterfallRendersSimDegrade renders the record capman-sim -trace
// writes for a stuck-switch run: the guard's degrade breadcrumb on
// sim.run must show in the waterfall.
func TestWaterfallRendersSimDegrade(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs capman-sim")
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	cmd := exec.Command("go", "run", "../capman-sim",
		"-policy", "heuristic", "-faults", "stuck-switch", "-mah", "300", "-trace", path)
	if raw, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("capman-sim: %v\n%s", err, raw)
	}
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-file", path, "-plain"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	for _, want := range []string{"sim.run", "degrade stuck-switch", "flips unacknowledged", "note sim.run  start policy=Heuristic"} {
		if !strings.Contains(got, want) {
			t.Errorf("waterfall missing %q:\n%s", want, got)
		}
	}
}
