package capman

// The benchmark harness regenerates every table and figure of the paper's
// evaluation. Each BenchmarkFigNN/BenchmarkTableNN drives the same
// experiment runner as cmd/capman-bench (which prints the full-scale
// tables) and reports the experiment's headline quantities as custom
// metrics. Benchmarks run the experiments at Quick scale so that
// `go test -bench=.` finishes in minutes; run `go run ./cmd/capman-bench`
// for paper-scale numbers.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/battery"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mdp"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/simstruct"
	"repro/internal/workload"
)

// benchOptions is the shared Quick-scale configuration.
func benchOptions() experiments.Options {
	return experiments.Options{Quick: true, Seed: 42}
}

func BenchmarkFig1DischargeRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig1(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Cells[0].SustainedS, "LMO-sustained-s")
			b.ReportMetric(res.Cells[1].SustainedS, "NCA-sustained-s")
		}
	}
}

func BenchmarkFig2aChemistryVsApp(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig2a(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range res.Rows {
				b.ReportMetric(row.WinnerAdvantages*100, row.App+"-"+row.Winner+"-adv-pct")
			}
		}
	}
}

func BenchmarkFig2bOnOffFrequency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig2b(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(res.Rows) > 0 {
			b.ReportMetric(res.Rows[0].NCAAdvantage*100, "NCA-adv-slow-pct")
			b.ReportMetric(res.Rows[len(res.Rows)-1].NCAAdvantage*100, "NCA-adv-fast-pct")
		}
	}
}

func BenchmarkFig3VEdge(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(res.Rows) > 0 {
			b.ReportMetric(res.Rows[0].Edge.SavingPotential(), "saving-Vs")
		}
	}
}

func BenchmarkTableIClassification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableI(benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6TECCurve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.PeakA, "peak-A")
		}
	}
}

func BenchmarkTableIIIStatePower(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableIII(benchOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12ServiceTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig12(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.Gain("Video", "Practice")*100, "video-vs-practice-pct")
			b.ReportMetric(res.Gain("Video", "Dual")*100, "video-vs-dual-pct")
			b.ReportMetric(res.Gain("Eta-80%", "Practice")*100, "eta80-vs-practice-pct")
		}
	}
}

func BenchmarkFig13CoolingPower(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig13(benchOptions(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(res.Rows) > 0 {
			b.ReportMetric(res.Rows[0].MaxCPUTempC, "geekbench-maxC")
		}
	}
}

func BenchmarkFig14RatioVsCooling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig14(benchOptions(), nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(res.Rows) > 0 {
			b.ReportMetric(res.Rows[0].LittleRatio, "geekbench-little-ratio")
		}
	}
}

func BenchmarkFig15PhoneSnapshot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig15(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(res.Rows) > 0 {
			b.ReportMetric(res.Rows[0].AvgActiveW, "nexus-active-W")
		}
	}
}

func BenchmarkFig16RhoOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig16(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(res.Rows) > 0 {
			b.ReportMetric(res.Rows[0].DecisionMicros, "lowrho-decision-us")
			b.ReportMetric(res.Rows[len(res.Rows)-1].DecisionMicros, "highrho-decision-us")
		}
	}
}

// Micro-benchmarks for the hot paths.

func BenchmarkCellStep(b *testing.B) {
	cell, err := battery.NewCell(battery.MustParams(battery.NCA, 2500))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cell.Step(1.5, 30, 0.25); err != nil {
			// Rebuild once exhausted; exclude from timing noise floor.
			b.StopTimer()
			cell, err = battery.NewCell(battery.MustParams(battery.NCA, 2500))
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

func BenchmarkPackStep(b *testing.B) {
	pack, err := battery.NewPack(battery.DefaultPackConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pack.Step(1.5, 30, 0.25); err != nil {
			b.StopTimer()
			pack, err = battery.NewPack(battery.DefaultPackConfig())
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

func BenchmarkValueIteration(b *testing.B) {
	model := benchModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.ValueIteration(0.6, 1e-6, 10000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimilarityIndex(b *testing.B) {
	model := benchModel(b)
	graph, err := mdp.BuildGraph(model, true, mdp.StateBatteryOf)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simstruct.Compute(graph, simstruct.DefaultConfig(0.6)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSimGraph builds a seeded random MDP graph with n states (last
// quarter absorbing) for the sized similarity benchmarks.
func benchSimGraph(b *testing.B, n int) *mdp.Graph {
	b.Helper()
	rng := rand.New(rand.NewSource(1234))
	model, err := mdp.NewModel(n)
	if err != nil {
		b.Fatal(err)
	}
	for s := 0; s < n-n/4; s++ {
		for c := mdp.Control(0); c < mdp.NumControls; c++ {
			fan := 1 + rng.Intn(3)
			seen := map[int]bool{}
			var ts []mdp.Transition
			var total float64
			for k := 0; k < fan; k++ {
				next := rng.Intn(n)
				if seen[next] {
					continue
				}
				seen[next] = true
				p := rng.Float64() + 0.1
				total += p
				ts = append(ts, mdp.Transition{Next: mdp.State(next), P: p, R: math.Round(rng.Float64()*100) / 100})
			}
			for i := range ts {
				ts[i].P /= total
			}
			if err := model.SetTransitions(mdp.State(s), c, ts); err != nil {
				b.Fatal(err)
			}
		}
	}
	graph, err := mdp.BuildGraph(model, false, nil)
	if err != nil {
		b.Fatal(err)
	}
	return graph
}

// BenchmarkSimilarityIndexSized runs Algorithm 1 on synthetic graphs of
// growing size; the bench.sh trajectory records their cost and allocation
// profile.
func BenchmarkSimilarityIndexSized(b *testing.B) {
	for _, n := range []int{32, 64, 128} {
		graph := benchSimGraph(b, n)
		cfg := simstruct.DefaultConfig(0.6)
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := simstruct.Compute(graph, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(res.Iterations), "sweeps")
					b.ReportMetric(float64(res.EMDSolves), "emd-solves")
					b.ReportMetric(float64(res.EMDSkips), "emd-skips")
				}
			}
		})
	}
}

func BenchmarkSchedulerDecision(b *testing.B) {
	policy, err := core.New(core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	// Warm the scheduler with a short quick-scale cycle so decisions go
	// through the cached-policy path.
	opts := benchOptions()
	cfg := warmConfig(opts, policy)
	if _, err := sim.Run(cfg); err != nil {
		b.Fatal(err)
	}
	ctx := sched.Context{
		Now:     1e5,
		DT:      0.25,
		DemandW: 1.5,
		State:   mdp.StateVec{CPU: 4, Screen: 2, WiFi: 1, Battery: battery.SelectBig},
		CanBig:  true, CanLittle: true,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		policy.Decide(ctx)
	}
}

func BenchmarkFullCycleDual(b *testing.B) {
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(warmConfig(opts, sched.NewDual())); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPolicyIteration(b *testing.B) {
	model := benchModel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.PolicyIteration(0.6, 1e-10, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEMD(b *testing.B) {
	p := simstruct.Distribution{Points: []int{1, 5, 9, 14, 20}, Probs: []float64{0.3, 0.2, 0.2, 0.2, 0.1}}
	q := simstruct.Distribution{Points: []int{2, 6, 11, 17}, Probs: []float64{0.4, 0.3, 0.2, 0.1}}
	dist := func(i, j int) float64 {
		d := float64(i - j)
		if d < 0 {
			d = -d
		}
		return d / 20
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simstruct.EMD(p, q, dist); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEMDSolver is BenchmarkEMD through the reusable solver form the
// sweep engine's inner loop uses: validation hoisted, network and Dijkstra
// scratch reused, so steady-state solves are allocation-free.
func BenchmarkEMDSolver(b *testing.B) {
	p := simstruct.Distribution{Points: []int{1, 5, 9, 14, 20}, Probs: []float64{0.3, 0.2, 0.2, 0.2, 0.1}}
	q := simstruct.Distribution{Points: []int{2, 6, 11, 17}, Probs: []float64{0.4, 0.3, 0.2, 0.1}}
	dist := func(i, j int) float64 {
		d := float64(i - j)
		if d < 0 {
			d = -d
		}
		return d / 20
	}
	solver := simstruct.NewEMDSolver()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solver.Solve(p, q, dist); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChargeToFull(b *testing.B) {
	params := battery.MustParams(LMO, 300)
	spec := battery.DefaultChargeSpec(params)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cell, err := battery.NewCell(params)
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := cell.Step(2, 25, 5); err != nil {
				break
			}
		}
		b.StartTimer()
		if _, _, err := cell.ChargeToFull(spec, 25, 5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunManyParallel(b *testing.B) {
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		cfgs := []sim.Config{
			warmConfig(opts, sched.NewDual()),
			warmConfig(opts, sched.NewHeuristic()),
			warmConfig(opts, sched.NewOracle(1.6)),
			warmConfig(opts, sched.NewOracle(2.4)),
		}
		if _, err := sim.RunMany(cfgs, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// benchModel builds a small empirical MDP with realistic structure.
func benchModel(b *testing.B) *mdp.Model {
	b.Helper()
	est, err := mdp.NewEstimator(mdp.NumStates)
	if err != nil {
		b.Fatal(err)
	}
	states := []mdp.State{2, 10, 40, 41, 90, 130, 200, 310}
	for i := 0; i < 4000; i++ {
		s := states[i%len(states)]
		next := states[(i*7+3)%len(states)]
		c := mdp.Control(i % 2)
		r := float64(i%10) / 10
		if err := est.Observe(s, c, next, r); err != nil {
			b.Fatal(err)
		}
	}
	model, err := est.Model(0.5)
	if err != nil {
		b.Fatal(err)
	}
	return model
}

// warmConfig is a quick-scale Video cycle.
func warmConfig(opts experiments.Options, p sched.Policy) sim.Config {
	tecDev := DefaultTEC()
	pack := battery.DefaultPackConfig()
	pack.Big = battery.MustParams(battery.NCA, opts.CapacityMAh())
	pack.Little = battery.MustParams(battery.LMO, opts.CapacityMAh())
	return sim.Config{
		Profile:  NexusProfile(),
		Workload: func() workload.Generator { return workload.NewVideo(42) },
		Policy:   p,
		Pack:     pack,
		TEC:      tecDev,
		DT:       0.25,
	}
}
