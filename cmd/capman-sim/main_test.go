package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

func TestRunQuickCycle(t *testing.T) {
	if err := run([]string{"-workload", "video", "-policy", "dual", "-mah", "300"}); err != nil {
		t.Fatalf("dual cycle: %v", err)
	}
}

func TestRunPractice(t *testing.T) {
	if err := run([]string{"-workload", "pcmark", "-policy", "practice", "-mah", "300"}); err != nil {
		t.Fatalf("practice cycle: %v", err)
	}
}

func TestRunThresholdWithSamples(t *testing.T) {
	out := filepath.Join(t.TempDir(), "samples.json")
	err := run([]string{"-workload", "eta:0.5", "-policy", "threshold:1.6",
		"-mah", "300", "-samples", out, "-no-tec"})
	if err != nil {
		t.Fatalf("threshold cycle: %v", err)
	}
	if fi, err := os.Stat(out); err != nil || fi.Size() == 0 {
		t.Errorf("samples file missing or empty: %v", err)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	cases := [][]string{
		{"-workload", "nope"},
		{"-policy", "nope"},
		{"-phone", "Pixel"},
		{"-workload", "eta:bad"},
		{"-workload", "eta:7"},
		{"-workload", "onoff:bad"},
		{"-workload", "onoff:-2"},
		{"-policy", "threshold:xx"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestRunOnOffWorkload(t *testing.T) {
	if err := run([]string{"-workload", "onoff:30", "-policy", "heuristic",
		"-mah", "200", "-max-time", "3000"}); err != nil {
		t.Fatalf("onoff cycle: %v", err)
	}
}

// TestRunFlightBox: -trace writes the run's black box, a StoredTrace
// whose capman-sim root span holds the run's teed logs and whose sim.run
// span holds its notes and (with -faults) degradation breadcrumbs; a run
// that fails still writes one, marked failed.
func TestRunFlightBox(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.json")
	err := run([]string{"-workload", "video", "-policy", "heuristic",
		"-mah", "600", "-max-time", "20000", "-faults", "stuck-switch",
		"-log-level", "error", "-trace", out})
	if err != nil {
		t.Fatalf("traced cycle: %v", err)
	}
	tr := readTrace(t, out)
	if tr.Outcome != "done" || len(tr.Flags) != 0 || len(tr.TraceID) != 32 || tr.DurationS <= 0 {
		t.Errorf("trace header = %+v", tr)
	}
	if len(tr.Spans) != 1 || tr.Spans[0].Name != "capman-sim" {
		t.Fatalf("want one capman-sim root span, got %+v", tr.Spans)
	}
	kinds := map[string]int{}
	var walk func([]obs.SpanNode)
	walk = func(nodes []obs.SpanNode) {
		for _, n := range nodes {
			for _, ev := range n.Events {
				kinds[ev.Kind]++
			}
			walk(n.Children)
		}
	}
	walk(tr.Spans)
	if kinds[obs.FlightDegrade] == 0 || kinds[obs.FlightNote] < 2 || kinds[obs.FlightLog] == 0 {
		t.Errorf("trace events by kind %v, want degrades, >= 2 notes and teed logs", kinds)
	}
	if c := tr.Spans[0].Children; len(c) != 1 || c[0].Name != "sim.run" {
		t.Errorf("capman-sim span children %+v, want one sim.run", c)
	}

	failed := filepath.Join(t.TempDir(), "failed.json")
	if err := run([]string{"-dt", "-1", "-trace", failed}); err == nil {
		t.Fatal("run with a negative step succeeded")
	}
	tr = readTrace(t, failed)
	if tr.Outcome != "failed" || len(tr.Flags) != 1 || tr.Flags[0] != "error" ||
		len(tr.Spans) != 1 || tr.Spans[0].Attrs["error"] == nil || tr.Spans[0].InProgress {
		t.Errorf("failed run's trace = %+v", tr)
	}
}

func readTrace(t *testing.T, path string) obs.StoredTrace {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr obs.StoredTrace
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	return tr
}
