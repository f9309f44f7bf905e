package sim

import (
	"testing"

	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/thermal"
)

// servedConfig mirrors what capmand runs per job: a MetricsSink with every
// stream field set (decision latencies, phase totals, zone temperatures)
// and the default invariant checker, with trace sampling off.
func servedConfig(t testing.TB, maxTimeS float64) Config {
	t.Helper()
	inv := invariant.DefaultConfig()
	cfg := tracedConfig(t, sched.NewDual())
	cfg.SampleEveryS = 0
	cfg.MaxTimeS = maxTimeS
	cfg.Invariants = &inv
	cfg.Metrics = &MetricsSink{
		DecisionLatency: obs.MustHistogram(obs.LatencyBuckets()...),
		PhaseSeconds:    func(string, float64) {},
		ZoneTemps:       func(cpu, body, battery, spreader float64) {},
	}
	return cfg
}

// TestServedRunAllocsFlat pins the served step loop at zero allocations
// per step: a whole Run allocates the same at 2000 steps as at 6000, so
// everything it allocates is per-run setup.
func TestServedRunAllocsFlat(t *testing.T) {
	allocs := func(maxTimeS float64) float64 {
		cfg := servedConfig(t, maxTimeS)
		var runErr error
		n := testing.AllocsPerRun(3, func() {
			res, err := Run(cfg)
			if err == nil && res.EndReason != EndMaxTime {
				t.Fatalf("run ended early (%s); the premise needs a time-limited run", res.EndReason)
			}
			runErr = err
		})
		if runErr != nil {
			t.Fatal(runErr)
		}
		return n
	}
	short, long := allocs(500), allocs(1500)
	if short != long {
		t.Errorf("Run allocates %v at 500 s but %v at 1500 s: the step loop allocates (%.2f per step)",
			short, long, (long-short)/((1500-500)/0.25))
	}
}

// TestThermalStepAllocFree: the phone network the step loop integrates
// steps without allocating.
func TestThermalStepAllocFree(t *testing.T) {
	net, err := thermal.PhoneNetwork(thermal.DefaultPhoneConfig())
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]float64, thermal.NodeSpreader+1)
	inputs[thermal.NodeCPU] = 2
	if n := testing.AllocsPerRun(100, func() {
		if err := net.Step(inputs, 0.25); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("thermal.Network.Step allocates %v per call, want 0", n)
	}
}
