// Command capman-sim runs one simulated discharge cycle and prints its
// outcome. It is the command-line face of the sim engine: pick a phone, a
// workload, a policy, and battery capacities, and read off the service
// time, energy balance, and thermal summary. The flags build a capmand
// job spec and resolve it through server.DefaultRegistry, plus two names
// only the CLI serves: the oracle policy and spec:<file> workloads.
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

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/sim"
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

// cli is a parsed command line: the job spec the flags describe, the
// registry it resolves through and the settings only the CLI has; once
// resolved, the run's discharge or (in capman-tte mode) cohort config.
type cli struct {
	spec       server.JobSpec
	registry   *server.Registry
	invariants *invariant.Config
	samples    string
	traceOut   string
	logger     *slog.Logger

	sim *sim.Config
	tte *twin.Config
}

func run(args []string) error {
	c, err := parse(args)
	if err != nil {
		return err
	}
	// -trace records the run under a capman-sim root span that tees
	// every log record: the trace keeps debug lines even when -log-level
	// discards them from stderr.
	var rec *obs.Recorder
	ctx, logger := context.Background(), c.logger
	var root *obs.Span
	if c.traceOut != "" {
		rec = obs.NewRecorder(0)
		ctx, root = rec.StartSpan(ctx, "capman-sim")
		logger = slog.New(root.TeeHandler(logger.Handler()))
	}
	ctx = obs.WithLogger(ctx, logger)

	err = c.resolve(rec)
	if err == nil {
		err = c.execute(ctx)
	}
	if c.traceOut != "" {
		if werr := writeTrace(c.traceOut, c.spec.Kind, rec, root, err); werr != nil {
			return werr
		}
		fmt.Printf("wrote trace to %s\n", c.traceOut)
	}
	return err
}

// parse maps the flags onto a job spec and a registry that adds the two
// names only the CLI serves: the oracle policy and spec:<file> workloads.
func parse(args []string) (*cli, error) {
	c := &cli{registry: server.DefaultRegistry()}
	spec, tte := &c.spec, &server.TTEParams{}
	fs := flag.NewFlagSet("capman-sim", flag.ContinueOnError)
	wl := fs.String("workload", "video", "workload: idle|geekbench|pcmark|video|eta:<frac>|onoff:<period_s>|spec:<file.json>")
	pol := fs.String("policy", "capman", "policy: capman|dual|heuristic|practice|oracle|threshold:<W>")
	fs.StringVar(&spec.Profile, "phone", "Nexus", "phone profile: Nexus|Honor|Lenovo")
	mah := fs.Float64("mah", 2500, "per-cell capacity in mAh (0 = 2500)")
	fs.Int64Var(&spec.Seed, "seed", 42, "workload seed")
	fs.Float64Var(&spec.DT, "dt", 0.25, "simulation step in seconds (0 = 0.25)")
	fs.Float64Var(&spec.MaxTimeS, "max-time", 1e6, "simulated time cap in seconds (0 = 1e6)")
	fs.BoolVar(&spec.DisableTEC, "no-tec", false, "disable the thermoelectric cooler")
	fs.IntVar(&tte.Twins, "tte", 0, fmt.Sprintf("capman-tte mode: run a Monte Carlo time-to-empty sweep over this many digital twins, at most %d (0 = normal simulation)", server.MaxTTETwins))
	fs.Float64Var(&tte.HorizonS, "tte-horizon", 86400, fmt.Sprintf("tte: censor survivors after this much simulated time in seconds, at most %d (0 = 86400)", server.MaxTTEHorizonS))
	fs.StringVar(&tte.Chemistry, "tte-chemistry", "NCA", "tte: twin cell chemistry: LCO|NCA|LMO|NMC|LFP|LTO")
	fs.Float64Var(&tte.LoadNoiseFrac, "tte-load-noise", 0, "tte: stationary sigma of multiplicative load noise (fraction of demand)")
	fs.Float64Var(&tte.AmbientNoiseC, "tte-ambient-noise", 0, "tte: stationary sigma of additive ambient-temperature noise in degC")
	fs.Float64Var(&tte.NoiseTauS, "tte-noise-tau", 60, "tte: OU correlation time of both noise channels in seconds (0 = 60)")
	fs.StringVar(&spec.FaultPlan, "faults", "", "fault-injection plan: "+strings.Join(fault.Plans(), "|")+" (empty = none; not with -tte)")
	invariants := fs.Bool("invariants", false, "run under the safety-invariant checker and print any violations")
	fs.StringVar(&c.samples, "samples", "", "write a sampled trace (JSON) to this file")
	fs.StringVar(&c.traceOut, "trace", "", "record the run (span tree, run notes, degradations, teed logs) and write it as trace JSON to this file, even when the run fails; also prints a timing breakdown")
	logLevel := fs.String("log-level", "warn", "log level: debug|info|warn|error")
	logFormat := fs.String("log-format", obs.FormatText, "log format: text|json")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return nil, err
	}
	if c.logger, err = obs.NewLogger(os.Stderr, level, *logFormat); err != nil {
		return nil, err
	}
	spec.BigMAh, spec.LittleMAh, tte.MAh = *mah, *mah, *mah
	if *invariants {
		inv := invariant.DefaultConfig()
		c.invariants = &inv
	}
	if tte.Twins != 0 {
		spec.Kind, spec.TTE = "tte", tte
	}
	// A name outside its own table fails to resolve, so one map serves
	// both flags.
	params := map[string]*float64{"eta": &spec.Eta, "onoff": &spec.PeriodS, "threshold": &spec.ThresholdW}
	if path, ok := strings.CutPrefix(*wl, "spec:"); ok {
		if err := c.registerSpec(path); err != nil {
			return nil, err
		}
		spec.Workload = "spec"
	} else if err := splitParam(*wl, &spec.Workload, params); err != nil {
		return nil, err
	}
	if err := splitParam(*pol, &spec.Policy, params); err != nil {
		return nil, err
	}
	return c, c.registry.RegisterPolicy("oracle", func(_ server.JobSpec, cfg *sim.Config) error {
		thr, _, err := sim.TuneOracle(*cfg, nil)
		if err != nil {
			return fmt.Errorf("oracle tuning: %w", err)
		}
		fmt.Printf("oracle threshold: %.2fW (tuned offline)\n", thr)
		cfg.Policy = sched.NewOracle(thr)
		return nil
	})
}

// splitParam splits a name[:value] flag into the registry name and, for
// the names params lists, the spec field its numeric parameter sets.
func splitParam(arg string, name *string, params map[string]*float64) error {
	n, v, hasParam := strings.Cut(arg, ":")
	*name = n
	if !hasParam {
		return nil
	}
	dst, ok := params[n]
	if !ok {
		return fmt.Errorf("%q takes no parameter", n)
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return fmt.Errorf("parse %s parameter: %w", n, err)
	}
	*dst = f
	return nil
}

// registerSpec registers the declarative workload in path as "spec".
func (c *cli) registerSpec(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("open workload spec: %w", err)
	}
	defer f.Close()
	parsed, err := workload.ParseSpec(f)
	if err != nil {
		return err
	}
	return c.registry.RegisterWorkload("spec", func(s server.JobSpec) (func() workload.Generator, error) {
		return workload.Fresh(func() (workload.Generator, error) { return workload.FromSpec(parsed, s.Seed) })
	})
}

// resolve is the first half of a run: it resolves the spec through the
// registry and applies the settings only the CLI has, recording the run
// under rec. Nothing runs yet, except the oracle's offline tuning.
func (c *cli) resolve(rec *obs.Recorder) error {
	if c.spec.Kind == "tte" {
		cfg, err := c.registry.ResolveTTE(c.spec)
		if err != nil {
			return err
		}
		cfg.Invariants = c.invariants
		c.tte = &cfg
		return nil
	}
	cfg, err := c.registry.Resolve(c.spec)
	if err != nil {
		return err
	}
	cfg.Invariants, cfg.Recorder = c.invariants, rec
	if c.samples != "" {
		cfg.SampleEveryS = 10
	}
	// The engine counts every decision into this histogram (refreshes
	// timed exactly, the rest sampled and weighted); the capman summary
	// reads its per-decision cost from it.
	cfg.Metrics = &sim.MetricsSink{DecisionLatency: obs.MustHistogram(obs.LatencyBuckets()...)}
	c.sim = &cfg
	return nil
}

// execute is the second half of a run: it runs the resolved discharge
// cycle, or sweeps the cohort, and prints the outcome.
func (c *cli) execute(ctx context.Context) error {
	if c.tte != nil {
		b, err := twin.New(*c.tte)
		if err != nil {
			return err
		}
		start := time.Now()
		if err := b.Run(ctx, 0); err != nil {
			return err
		}
		reportTTE(b.Summarize(), time.Since(start))
		return nil
	}
	cfg := c.sim
	res, err := sim.RunContext(ctx, *cfg)
	if err != nil {
		return err
	}
	report(res)
	if c.invariants != nil {
		reportInvariants(res.Invariants)
	}
	if res.Timing != nil {
		reportTiming(res.Timing)
	}
	if p, ok := cfg.Policy.(*core.Scheduler); ok {
		st, d := p.Stats(), cfg.Metrics.DecisionLatency
		fmt.Printf("scheduler: %d decisions, %d refreshes, %d similarity runs, %d clusters, %.1fus/decision\n",
			st.Decisions, st.Refreshes, st.SimilarityRuns, st.Clusters,
			safeDiv(d.Sum(), float64(d.Count()))*cfg.Profile.DecisionOverheadScale*1e6)
	}
	if c.samples == "" {
		return nil
	}
	f, err := os.Create(c.samples)
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
	fmt.Printf("wrote %d samples to %s\n", len(res.Samples), c.samples)
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

// writeTrace ends the run's root span and writes the run's record to
// path as indented JSON: an obs.StoredTrace, the shape capmand serves
// for a job, under a freshly minted trace ID. A failed run is recorded
// with outcome "failed", the "error" flag and the error on the root span.
// kind is the spec's job kind, where empty means a sim run.
func writeTrace(path, kind string, rec *obs.Recorder, root *obs.Span, runErr error) error {
	if kind == "" {
		kind = "sim"
	}
	st := obs.StoredTrace{Kind: kind, Outcome: "done"}
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
