package sim

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/battery"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/tec"
	"repro/internal/workload"
)

// tracedConfig is a short, fully featured cycle (TEC on, sampling on).
func tracedConfig(t testing.TB, p sched.Policy) Config {
	t.Helper()
	dev := tec.ATE31()
	pack := battery.DefaultPackConfig()
	pack.Big = battery.MustParams(battery.NCA, 250)
	pack.Little = battery.MustParams(battery.LMO, 250)
	return Config{
		Profile:      device.Nexus(),
		Workload:     func() workload.Generator { return workload.NewVideo(7) },
		Policy:       p,
		Pack:         pack,
		TEC:          &dev,
		DT:           0.25,
		MaxTimeS:     4000,
		SampleEveryS: 50,
	}
}

func capmanPolicy(t testing.TB) *core.Scheduler {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Seed = 11
	p, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRunTracedBitIdentical is the acceptance gate for "instrumentation
// never perturbs the physics": the same seeded config produces the same
// Result with and without a recorder, apart from the Timing field.
func TestRunTracedBitIdentical(t *testing.T) {
	plain, err := Run(tracedConfig(t, capmanPolicy(t)))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Timing != nil {
		t.Fatal("untraced run populated Timing")
	}

	cfg := tracedConfig(t, capmanPolicy(t))
	cfg.Recorder = obs.NewRecorder(0)
	traced, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if traced.Timing == nil {
		t.Fatal("traced run did not populate Timing")
	}
	stripped := *traced
	stripped.Timing = nil
	if !reflect.DeepEqual(plain, &stripped) {
		t.Errorf("traced result diverged from untraced run:\nplain:  %+v\ntraced: %+v", plain, &stripped)
	}
}

func TestRunRecordsTimingAndSpanTree(t *testing.T) {
	rec := obs.NewRecorder(0)
	cfg := tracedConfig(t, sched.NewDual())
	cfg.Recorder = rec
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tm := res.Timing
	if tm == nil {
		t.Fatal("no Timing on traced run")
	}
	// One decision per loop iteration: the final iteration can decide and
	// then break on exhaustion before its step is counted, so the
	// histogram holds Steps or Steps+1 observations.
	if got := tm.DecisionLatency.Count; got != uint64(res.Steps) && got != uint64(res.Steps)+1 {
		t.Errorf("decision latency count = %d, want %d or %d", got, res.Steps, res.Steps+1)
	}
	if tm.PolicyS < 0 || tm.WorkloadS < 0 || tm.BatteryS < 0 || tm.ThermalS < 0 || tm.TECS < 0 {
		t.Errorf("negative phase total: %+v", tm)
	}
	// PolicyS is the exact Decide total plus the scaled rest of the phase,
	// so the bound holds without tolerance.
	if tm.DecisionLatency.Sum > tm.PolicyS {
		t.Errorf("decision time %v exceeds the whole policy phase %v", tm.DecisionLatency.Sum, tm.PolicyS)
	}

	tree := rec.Tree()
	if len(tree) != 1 || tree[0].Name != "sim.run" {
		t.Fatalf("span tree roots = %+v, want one sim.run", tree)
	}
	root := tree[0]
	if root.InProgress {
		t.Error("run span left open")
	}
	if root.Attrs["policy"] != "Dual" || root.Attrs["steps"] != res.Steps {
		t.Errorf("run span attrs = %v", root.Attrs)
	}
	phases := map[string]bool{}
	for _, c := range root.Children {
		phases[c.Name] = true
	}
	for _, want := range []string{"phase:workload", "phase:policy", "phase:battery", "phase:thermal", "phase:tec"} {
		if !phases[want] {
			t.Errorf("span tree missing %s (got %v)", want, phases)
		}
	}
}

// TestPhaseTimingAddsUp: the stride-sampled phase estimates, as Timing
// and as the PhaseSeconds stream that feeds
// capman_sim_phase_seconds_total alike, stay within the run's wall time
// (the untimed gaps between phases leave them short of it), and zone
// temperatures arrive once per timed step.
func TestPhaseTimingAddsUp(t *testing.T) {
	// The estimate is unbiased but heavy-tailed: a host stall inside a
	// timed step counts phaseStride times over, and a big one can outgrow
	// the untimed slack (about a tenth of the wall time). Such stalls are
	// rare, so one clean run in five passes.
	var sum, wall float64
	for attempt := 0; attempt < 5; attempt++ {
		if sum, wall = timedPhaseSum(t); sum <= wall {
			return
		}
	}
	t.Errorf("phases sum to %.6fs, above the run's wall time %.6fs", sum, wall)
}

// timedPhaseSum runs a traced capman cycle and returns its estimated
// phase total and its wall time.
func timedPhaseSum(t *testing.T) (sum, wall float64) {
	t.Helper()
	streamed := map[string]float64{}
	zones := 0
	cfg := tracedConfig(t, capmanPolicy(t))
	cfg.Recorder = obs.NewRecorder(0)
	cfg.Metrics = &MetricsSink{
		PhaseSeconds: func(phase string, s float64) { streamed[phase] = s },
		ZoneTemps:    func(cpu, body, battery, spreader float64) { zones++ },
	}
	start := time.Now()
	res, err := Run(cfg)
	wall = time.Since(start).Seconds()
	if err != nil {
		t.Fatal(err)
	}
	tm := res.Timing
	want := map[string]float64{"workload": tm.WorkloadS, "policy": tm.PolicyS,
		"battery": tm.BatteryS, "thermal": tm.ThermalS, "tec": tm.TECS}
	if !reflect.DeepEqual(streamed, want) {
		t.Fatalf("PhaseSeconds streamed %v, Timing holds %v", streamed, want)
	}
	// Zone temperatures are published on timed steps only: the first,
	// then one in phaseStride, over one decision per loop iteration.
	iterations := int(tm.DecisionLatency.Count)
	if want := (iterations + phaseStride - 1) / phaseStride; zones != want {
		t.Fatalf("ZoneTemps called %d times, want one per timed step: ⌈%d/%d⌉ = %d", zones, iterations, phaseStride, want)
	}
	return tm.WorkloadS + tm.PolicyS + tm.BatteryS + tm.ThermalS + tm.TECS, wall
}

// TestRunRecorderFromContext checks the ambient path: a recorder attached
// with obs.WithRecorder is honoured without touching the Config.
func TestRunRecorderFromContext(t *testing.T) {
	rec := obs.NewRecorder(0)
	ctx := obs.WithRecorder(context.Background(), rec)
	res, err := RunContext(ctx, tracedConfig(t, sched.NewDual()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Timing == nil {
		t.Error("context recorder did not enable tracing")
	}
	if len(rec.Tree()) == 0 {
		t.Error("context recorder captured no spans")
	}
}

// BenchmarkInstrumentedStep guards the nil-recorder fast path: the
// per-step cost with tracing disabled must stay within noise of the
// pre-instrumentation baseline. Compare against
// BenchmarkInstrumentedStepTraced for the tracing-on overhead.
func BenchmarkInstrumentedStep(b *testing.B) {
	cfg := tracedConfig(b, sched.NewDual())
	cfg.SampleEveryS = 0
	b.ResetTimer()
	steps := 0
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		steps += res.Steps
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
}

func BenchmarkInstrumentedStepTraced(b *testing.B) {
	cfg := tracedConfig(b, sched.NewDual())
	cfg.SampleEveryS = 0
	b.ResetTimer()
	steps := 0
	for i := 0; i < b.N; i++ {
		cfg.Recorder = obs.NewRecorder(0)
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		steps += res.Steps
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
}
