package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/server"
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
		{"-mah", "-1"},
		{"-tte", "10", "-faults", "chaos"},
		{"-tte", "70000"},
		{"-tte", "4", "-tte-horizon", "NaN"},
		{"-workload", "eta:NaN", "-mah", "200", "-max-time", "100"},
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

// TestRunAcceptsRegistryVocabulary: every workload and policy capmand
// serves runs through capman-sim's flags, the parameterised names with
// their parameter appended.
func TestRunAcceptsRegistryVocabulary(t *testing.T) {
	param := map[string]string{"eta": "eta:0.5", "onoff": "onoff:30", "threshold": "threshold:1.6"}
	flagValue := func(name string) string {
		if v, ok := param[name]; ok {
			return v
		}
		return name
	}
	reg := server.DefaultRegistry()
	for _, name := range reg.Workloads() {
		if err := run([]string{"-workload", flagValue(name), "-mah", "200", "-max-time", "2000"}); err != nil {
			t.Errorf("workload %s: %v", name, err)
		}
	}
	for _, name := range reg.Policies() {
		if err := run([]string{"-policy", flagValue(name), "-mah", "200", "-max-time", "2000"}); err != nil {
			t.Errorf("policy %s: %v", name, err)
		}
	}
	// oracle is capman-sim's own policy; it takes the same path as the
	// rest, so -invariants and -trace apply to it too.
	out := filepath.Join(t.TempDir(), "oracle.json")
	if err := run([]string{"-policy", "oracle", "-mah", "200", "-max-time", "2000",
		"-invariants", "-trace", out}); err != nil {
		t.Fatalf("policy oracle: %v", err)
	}
	if tr := readTrace(t, out); tr.Outcome != "done" {
		t.Errorf("oracle trace outcome %q", tr.Outcome)
	}
}

// TestRunSpecWorkload: a declarative workload file runs as a discharge
// cycle and as a capman-tte cohort.
func TestRunSpecWorkload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "duty.json")
	spec := `{"name": "duty", "loop": true, "phases": [
	 {"durationS": 30, "demand": {"CPUState": 1, "Screen": 1, "WiFi": 1}, "action": "sleep"},
	 {"durationS": 10, "demand": {"CPUState": 4, "CPUUtil": 0.8, "Screen": 2, "Brightness": 0.7, "WiFi": 3, "PacketRate": 1200}, "action": "wake"}]}`
	if err := os.WriteFile(path, []byte(spec), 0o600); err != nil {
		t.Fatal(err)
	}
	for _, mode := range [][]string{nil, {"-tte", "16", "-tte-horizon", "20000"}} {
		args := append([]string{"-workload", "spec:" + path, "-policy", "dual", "-mah", "200", "-max-time", "20000"}, mode...)
		if err := run(args); err != nil {
			t.Errorf("%v: %v", args, err)
		}
	}
}

// TestDocExamplesResolve: every capman-sim invocation the README and
// EXPERIMENTS.md show parses and resolves, so the docs cannot drift from
// the flags. Nothing runs.
func TestDocExamplesResolve(t *testing.T) {
	const cmd = "go run ./cmd/capman-sim"
	examples := 0
	for _, doc := range []string{"../../README.md", "../../EXPERIMENTS.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := strings.ReplaceAll(string(raw), "\\\n", " ")
		for _, line := range strings.Split(text, "\n") {
			_, rest, ok := strings.Cut(line, cmd)
			if !ok {
				continue
			}
			rest, _, _ = strings.Cut(rest, "`")
			rest, _, _ = strings.Cut(rest, "#")
			args := strings.Fields(rest)
			examples++
			c, err := parse(args)
			if err == nil {
				err = c.resolve(nil)
			}
			if err != nil {
				t.Errorf("%s: %s %s: %v", doc, cmd, strings.Join(args, " "), err)
			}
		}
	}
	if examples < 5 {
		t.Errorf("found %d capman-sim examples in the docs, want at least 5", examples)
	}
}
