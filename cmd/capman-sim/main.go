// Command capman-sim runs one simulated discharge cycle and prints its
// outcome. It is the command-line face of the sim engine: pick a phone, a
// workload, a policy, and battery capacities, and read off the service
// time, energy balance, and thermal summary.
//
// Usage:
//
//	capman-sim -workload video -policy capman -phone Nexus -mah 2500
//	capman-sim -workload eta:0.8 -policy oracle -seed 7 -samples out.json
//	capman-sim -policy capman -trace trace.json -log-level debug
//	capman-sim -policy heuristic -faults stuck-switch -trace trace.json
//	capman-spans -file trace.json
//
// The capman-tte mode (-tte N) swaps the single discharge run for a Monte
// Carlo time-to-empty sweep over internal/twin: N digital twins of one
// cell, optionally with stochastic load and ambient-temperature noise,
// reported as first-passage percentiles:
//
//	capman-sim -tte 4096 -tte-chemistry NCA -mah 2500 -tte-load-noise 0.1
//	capman-sim -tte 1000 -tte-horizon 43200 -tte-ambient-noise 2 -workload pcmark
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/battery"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/tec"
	"repro/internal/trace"
	"repro/internal/twin"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "capman-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("capman-sim", flag.ContinueOnError)
	wl := fs.String("workload", "video", "workload: idle|geekbench|pcmark|video|eta:<frac>|onoff:<period_s>|spec:<file.json>")
	pol := fs.String("policy", "capman", "policy: capman|dual|heuristic|practice|oracle|threshold:<W>")
	phone := fs.String("phone", "Nexus", "phone profile: Nexus|Honor|Lenovo")
	mah := fs.Float64("mah", 2500, "per-cell capacity in mAh")
	seed := fs.Int64("seed", 42, "workload seed")
	dt := fs.Float64("dt", 0.25, "simulation step in seconds")
	maxTime := fs.Float64("max-time", 1e6, "simulated time cap in seconds")
	noTEC := fs.Bool("no-tec", false, "disable the thermoelectric cooler")
	tteTwins := fs.Int("tte", 0, "capman-tte mode: run a Monte Carlo time-to-empty sweep over this many digital twins (0 = normal simulation)")
	tteHorizon := fs.Float64("tte-horizon", 86400, "tte: censor survivors after this much simulated time in seconds")
	tteChemistry := fs.String("tte-chemistry", "NCA", "tte: twin cell chemistry: "+strings.Join(chemistryNames(), "|"))
	tteLoadNoise := fs.Float64("tte-load-noise", 0, "tte: stationary sigma of multiplicative load noise (fraction of demand)")
	tteAmbientNoise := fs.Float64("tte-ambient-noise", 0, "tte: stationary sigma of additive ambient-temperature noise in degC")
	tteNoiseTau := fs.Float64("tte-noise-tau", 60, "tte: OU correlation time of both noise channels in seconds (0 = white)")
	tteWorkers := fs.Int("tte-workers", 0, "tte: worker count for the sweep (0 = GOMAXPROCS); results are identical at any count")
	faults := fs.String("faults", "", "fault-injection plan: "+strings.Join(fault.Plans(), "|")+" (empty = none)")
	invariants := fs.Bool("invariants", false, "run under the safety-invariant checker and print any violations")
	samples := fs.String("samples", "", "write a sampled trace (JSON) to this file")
	traceOut := fs.String("trace", "", "record the run (span tree, run notes, degradations, teed logs) and write it as trace JSON to this file, even when the run fails; also prints a timing breakdown")
	logLevel := fs.String("log-level", "warn", "log level: debug|info|warn|error")
	logFormat := fs.String("log-format", obs.FormatText, "log format: text|json")
	if err := fs.Parse(args); err != nil {
		return err
	}

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	logger, err := obs.NewLogger(os.Stderr, level, *logFormat)
	if err != nil {
		return err
	}
	// -trace records the run under a capman-sim root span that tees
	// every log record: the trace keeps debug lines even when -log-level
	// discards them from stderr.
	var rec *obs.Recorder
	ctx := context.Background()
	var root *obs.Span
	if *traceOut != "" {
		rec = obs.NewRecorder(0)
		ctx, root = rec.StartSpan(ctx, "capman-sim")
		logger = slog.New(root.TeeHandler(logger.Handler()))
	}
	ctx = obs.WithLogger(ctx, logger)

	profile, err := device.ProfileByName(*phone)
	if err != nil {
		return err
	}
	wlFactory, err := workloadFactory(*wl, *seed)
	if err != nil {
		return err
	}

	if *tteTwins > 0 {
		return runTTE(ctx, tteOptions{
			profile: profile, workload: wlFactory,
			chemistry: *tteChemistry, mah: *mah,
			twins: *tteTwins, horizonS: *tteHorizon, dt: *dt,
			seed: uint64(*seed), noTEC: *noTEC,
			loadNoise: *tteLoadNoise, ambientNoise: *tteAmbientNoise,
			noiseTauS: *tteNoiseTau, workers: *tteWorkers,
			invariants: *invariants,
		})
	}

	cfg := sim.Config{
		Profile:  profile,
		Workload: wlFactory,
		DT:       *dt,
		MaxTimeS: *maxTime,
	}
	if !*noTEC {
		dev := tec.ATE31()
		cfg.TEC = &dev
	}
	plan, err := fault.ByName(*faults, *seed)
	if err != nil {
		return err
	}
	cfg.Faults = plan
	if *invariants {
		inv := invariant.DefaultConfig()
		cfg.Invariants = &inv
	}
	if *samples != "" {
		cfg.SampleEveryS = 10
	}

	pack := battery.DefaultPackConfig()
	pack.Big = battery.MustParams(battery.NCA, *mah)
	pack.Little = battery.MustParams(battery.LMO, *mah)
	cfg.Pack = pack

	switch {
	case *pol == "capman":
		capCfg := core.DefaultConfig()
		capCfg.Seed = *seed
		capCfg.OverheadScale = profile.DecisionOverheadScale
		cfg.Policy, err = core.New(capCfg)
		if err != nil {
			return err
		}
	case *pol == "dual":
		cfg.Policy = sched.NewDual()
	case *pol == "heuristic":
		cfg.Policy = sched.NewHeuristic()
	case *pol == "practice":
		single := battery.MustParams(battery.LCO, *mah)
		cfg.Single = &single
		cfg.Policy = sched.NewSingle()
	case *pol == "oracle":
		thr, best, err := sim.TuneOracle(cfg, nil)
		if err != nil {
			return fmt.Errorf("oracle tuning: %w", err)
		}
		fmt.Printf("oracle threshold: %.2fW (tuned offline)\n", thr)
		report(best)
		return nil
	case strings.HasPrefix(*pol, "threshold:"):
		w, err := strconv.ParseFloat(strings.TrimPrefix(*pol, "threshold:"), 64)
		if err != nil {
			return fmt.Errorf("parse threshold policy: %w", err)
		}
		cfg.Policy = &sched.Threshold{WattThreshold: w}
	default:
		return fmt.Errorf("unknown policy %q", *pol)
	}

	cfg.Recorder = rec
	// The engine counts every decision into this histogram (refreshes
	// timed exactly, the rest sampled and weighted); the capman summary
	// below reads its per-decision cost from it.
	decisions := obs.MustHistogram(obs.LatencyBuckets()...)
	cfg.Metrics = &sim.MetricsSink{DecisionLatency: decisions}
	res, err := sim.RunContext(ctx, cfg)
	if *traceOut != "" {
		if werr := writeTrace(*traceOut, rec, root, err); werr != nil {
			return werr
		}
		fmt.Printf("wrote trace to %s\n", *traceOut)
	}
	if err != nil {
		return err
	}
	report(res)
	if *invariants {
		reportInvariants(res.Invariants)
	}
	if res.Timing != nil {
		reportTiming(res.Timing)
	}
	if c, ok := cfg.Policy.(*core.Scheduler); ok {
		st := c.Stats()
		fmt.Printf("scheduler: %d decisions, %d refreshes, %d similarity runs, %d clusters, %.1fus/decision\n",
			st.Decisions, st.Refreshes, st.SimilarityRuns, st.Clusters,
			safeDiv(decisions.Sum(), float64(decisions.Count()))*profile.DecisionOverheadScale*1e6)
	}
	if *samples != "" {
		f, err := os.Create(*samples)
		if err != nil {
			return err
		}
		defer f.Close()
		t := &trace.Trace{
			Workload: res.Workload, Phone: res.Phone, Policy: res.Policy,
			DT: cfg.DT, Samples: res.Samples,
		}
		if err := t.Write(f); err != nil {
			return err
		}
		fmt.Printf("wrote %d samples to %s\n", len(res.Samples), *samples)
	}
	return nil
}

// tteOptions collects the capman-tte mode's knobs.
type tteOptions struct {
	profile      device.Profile
	workload     func() workload.Generator
	chemistry    string
	mah          float64
	twins        int
	horizonS     float64
	dt           float64
	seed         uint64
	noTEC        bool
	loadNoise    float64
	ambientNoise float64
	noiseTauS    float64
	workers      int
	invariants   bool
}

// runTTE sweeps a twin cohort and prints the first-passage summary.
func runTTE(ctx context.Context, opt tteOptions) error {
	chem, err := chemistryByName(opt.chemistry)
	if err != nil {
		return err
	}
	params, err := battery.ParamsFor(chem, opt.mah)
	if err != nil {
		return err
	}
	cfg := twin.Config{
		Profile:      opt.profile,
		Workload:     opt.workload,
		Cell:         params,
		DT:           opt.dt,
		HorizonS:     opt.horizonS,
		Twins:        opt.twins,
		Seed:         opt.seed,
		LoadNoise:    twin.NoiseConfig{Sigma: opt.loadNoise, TauS: opt.noiseTauS},
		AmbientNoise: twin.NoiseConfig{Sigma: opt.ambientNoise, TauS: opt.noiseTauS},
	}
	if !opt.noTEC {
		dev := tec.ATE31()
		cfg.TEC = &dev
	}
	if opt.invariants {
		inv := invariant.DefaultConfig()
		cfg.Invariants = &inv
	}
	b, err := twin.New(cfg)
	if err != nil {
		return err
	}
	start := time.Now()
	if err := b.Run(ctx, opt.workers); err != nil {
		return err
	}
	reportTTE(b.Summarize(), time.Since(start))
	return nil
}

// reportTTE prints the cohort's time-to-empty distribution.
func reportTTE(s *twin.Summary, wall time.Duration) {
	fmt.Printf("tte: %d twins of %s on %s, chemistry %s, seed %d\n",
		s.Twins, s.Workload, s.Phone, s.Chemistry, s.Seed)
	fmt.Printf("noise: load sigma %.3f, ambient sigma %.2fC; horizon %.0fs, dt %.3fs\n",
		s.LoadNoise.Sigma, s.AmbientNoise.Sigma, s.HorizonS, s.DTS)
	fmt.Printf("emptied %d, censored %d; end reasons %v\n", s.Emptied, s.Censored, s.EndReasons)
	fmt.Printf("time to empty: p5 %.0fs p50 %.0fs p95 %.0fs (min %.0fs max %.0fs mean %.0fs)\n",
		s.TTEP5S, s.TTEP50S, s.TTEP95S, s.TTEMinS, s.TTEMaxS, s.MeanS)
	fmt.Printf("per twin: mean energy %.0fJ, mean max CPU %.1fC, mean TEC energy %.0fJ\n",
		s.MeanEnergyJ, s.MeanMaxCPUTempC, s.MeanTECEnergyJ)
	steps := float64(s.Twins) * float64(s.Steps)
	fmt.Printf("swept %.0f twin-steps in %.2fs (%.2fM steps/s)\n",
		steps, wall.Seconds(), steps/wall.Seconds()/1e6)
	if len(s.InvariantViolations) > 0 {
		fmt.Printf("invariants: VIOLATED (fatal=%v): %v\n", s.InvariantFatal, s.InvariantViolations)
	}
}

// reportInvariants prints the run's safety-invariant report: a clean line
// when the checker saw nothing, otherwise every recorded violation.
func reportInvariants(rep *invariant.Report) {
	if rep == nil {
		fmt.Println("invariants: clean (no violations)")
		return
	}
	fmt.Printf("invariants: %d violation(s), fatal=%v\n", rep.Total, rep.Fatal)
	for _, v := range rep.Violations {
		fmt.Printf("  t=%.1fs [%s/%s] %s\n", v.At, v.Severity, v.Invariant, v.Detail)
	}
	if rep.Truncated > 0 {
		fmt.Printf("  (+%d more, truncated)\n", rep.Truncated)
	}
}

// chemistryByName resolves a Table I abbreviation (NCA, LMO, ...).
func chemistryByName(name string) (battery.Chemistry, error) {
	for _, c := range battery.Chemistries() {
		if c.String() == name {
			return c, nil
		}
	}
	return 0, fmt.Errorf("unknown chemistry %q (have %s)", name, strings.Join(chemistryNames(), "|"))
}

func chemistryNames() []string {
	var names []string
	for _, c := range battery.Chemistries() {
		names = append(names, c.String())
	}
	return names
}

// writeTrace ends the run's root span and writes the run's record to
// path as indented JSON: an obs.StoredTrace, the shape capmand serves
// for a job, under a freshly minted trace ID. A failed run is recorded
// with outcome "failed", the "error" flag and the error on the root span.
func writeTrace(path string, rec *obs.Recorder, root *obs.Span, runErr error) error {
	st := obs.StoredTrace{Kind: "sim", Outcome: "done"}
	if runErr != nil {
		st.Outcome, st.Flags = "failed", []string{"error"}
		root.SetAttr("error", runErr.Error())
	}
	root.End()
	tc := obs.NewTraceContext()
	st.TraceID = tc.TraceID.String()
	st.Spans, st.DroppedSpans = rec.TraceTree(tc.SpanID), rec.Dropped()
	st.Start, st.DurationS = st.Spans[0].Start, root.Duration().Seconds()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(st); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// reportTiming prints the per-phase step-cost breakdown and the policy
// decision-latency distribution collected by the sim's instrumentation.
func reportTiming(tm *sim.Timing) {
	fmt.Printf("step cost: workload %.3fs, policy %.3fs, battery %.3fs, thermal %.3fs, tec %.3fs\n",
		tm.WorkloadS, tm.PolicyS, tm.BatteryS, tm.ThermalS, tm.TECS)
	d := tm.DecisionLatency
	fmt.Printf("decision latency: n=%d mean %.1fus p50 %.1fus p95 %.1fus p99 %.1fus\n",
		d.Count, d.Mean()*1e6, d.Quantile(0.50)*1e6, d.Quantile(0.95)*1e6, d.Quantile(0.99)*1e6)
}

func workloadFactory(spec string, seed int64) (func() workload.Generator, error) {
	switch {
	case spec == "idle":
		return func() workload.Generator { return workload.NewIdle(seed) }, nil
	case spec == "geekbench":
		return func() workload.Generator { return workload.NewGeekbench(seed) }, nil
	case spec == "pcmark":
		return func() workload.Generator { return workload.NewPCMark(seed) }, nil
	case spec == "video":
		return func() workload.Generator { return workload.NewVideo(seed) }, nil
	case strings.HasPrefix(spec, "eta:"):
		frac, err := strconv.ParseFloat(strings.TrimPrefix(spec, "eta:"), 64)
		if err != nil {
			return nil, fmt.Errorf("parse eta workload: %w", err)
		}
		if _, err := workload.NewEtaStatic(frac, seed); err != nil {
			return nil, err
		}
		return func() workload.Generator {
			g, err := workload.NewEtaStatic(frac, seed)
			if err != nil {
				panic(err) // validated above
			}
			return g
		}, nil
	case strings.HasPrefix(spec, "onoff:"):
		period, err := strconv.ParseFloat(strings.TrimPrefix(spec, "onoff:"), 64)
		if err != nil {
			return nil, fmt.Errorf("parse onoff workload: %w", err)
		}
		if _, err := workload.NewOnOff(period, seed); err != nil {
			return nil, err
		}
		return func() workload.Generator {
			g, err := workload.NewOnOff(period, seed)
			if err != nil {
				panic(err) // validated above
			}
			return g
		}, nil
	case strings.HasPrefix(spec, "spec:"):
		path := strings.TrimPrefix(spec, "spec:")
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("open workload spec: %w", err)
		}
		defer f.Close()
		parsed, err := workload.ParseSpec(f)
		if err != nil {
			return nil, err
		}
		return func() workload.Generator {
			g, err := workload.FromSpec(parsed, seed)
			if err != nil {
				panic(err) // validated by ParseSpec
			}
			return g
		}, nil
	default:
		return nil, fmt.Errorf("unknown workload %q", spec)
	}
}

func report(r *sim.Result) {
	fmt.Printf("policy=%s workload=%s phone=%s\n", r.Policy, r.Workload, r.Phone)
	fmt.Printf("service time: %.0fs (%.2fh), ended: %s\n", r.ServiceTimeS, r.ServiceTimeS/3600, r.EndReason)
	fmt.Printf("energy: delivered %.0fJ, wasted %.0fJ (%.1f%%), avg power %.2fW (active %.2fW)\n",
		r.EnergyDeliveredJ, r.EnergyWastedJ,
		100*safeDiv(r.EnergyWastedJ, r.EnergyDeliveredJ+r.EnergyWastedJ), r.AvgPowerW, r.AvgActivePowerW)
	fmt.Printf("thermal: max CPU %.1fC, mean %.1fC, above 45C %.0fs; TEC on %.0fs (%.0fJ, %d flips)\n",
		r.MaxCPUTempC, r.MeanCPUTempC, r.TimeAbove45S, r.TECOnTimeS, r.TECEnergyJ, r.TECFlips)
	fmt.Printf("pack: %d switches, big active %.0fs, LITTLE active %.0fs (ratio %.2f), final SoC big %.2f LITTLE %.2f\n",
		r.Switches, r.BigActiveS, r.LittleActiveS, r.LittleRatio(), r.FinalSoCBig, r.FinalSoCLittle)
	if r.FaultPlan != "" {
		c := r.FaultCounts
		fmt.Printf("faults: plan=%s injected %d (switch stuck %d latency %d, tec dropout %d derate %d, sensor noise %d stale %d, spikes %d)\n",
			r.FaultPlan, c.Total(), c.SwitchStuck, c.SwitchLatency,
			c.TECDropout, c.TECDerate, c.SensorNoise, c.SensorStale, c.PowerSpike)
		for _, ev := range r.Degradations {
			verb := "entered"
			if ev.Recovered {
				verb = "recovered from"
			}
			fmt.Printf("degradation: t=%.0fs %s %s (%s)\n", ev.At, verb, ev.Mode, ev.Detail)
		}
		fmt.Printf("degraded mode: %.0fs total\n", r.DegradedTimeS)
	}
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
