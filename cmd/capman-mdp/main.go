// Command capman-mdp exposes CAPMAN's decision machinery for inspection:
// it drives a workload through a short simulated cycle, materialises the
// empirical MDP, solves it, runs the structural-similarity recursion, and
// prints the learned policy and cluster structure.
//
// Usage:
//
//	capman-mdp -workload video -duration 3600 -rho 0.6
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/mdp"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/simstruct"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "capman-mdp:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("capman-mdp", flag.ContinueOnError)
	wl := fs.String("workload", "video", "workload name from capmand's job registry: idle|geekbench|pcmark|video")
	duration := fs.Float64("duration", 3600, "seconds of demand to learn from")
	rho := fs.Float64("rho", 0.6, "discount factor")
	seed := fs.Int64("seed", 42, "workload seed")
	tau := fs.Float64("tau", 0.05, "cluster distance threshold")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *rho <= 0 || *rho >= 1 {
		return fmt.Errorf("rho %v outside (0,1)", *rho)
	}

	// The registry resolves the run capmand would serve for this spec:
	// the Nexus profile, the default pack, the ATE31 TEC and a 0.25 s step.
	cfg, err := server.DefaultRegistry().Resolve(server.JobSpec{
		Workload: *wl, Seed: *seed, MaxTimeS: *duration,
	})
	if err != nil {
		return err
	}
	// Learn with CAPMAN itself so exploration covers both controls, at
	// the discount factor under inspection.
	capCfg := core.DefaultConfig()
	capCfg.Rho = *rho
	capCfg.Seed = *seed
	scheduler, err := core.New(capCfg)
	if err != nil {
		return err
	}
	cfg.Policy = scheduler
	if _, err := sim.Run(cfg); err != nil {
		return err
	}

	sol := scheduler.Solution()
	if sol == nil {
		return fmt.Errorf("no solution learned in %.0fs; extend -duration", *duration)
	}
	st := scheduler.Stats()
	fmt.Printf("observations: %d over %.0fs; refreshes: %d; value-iteration sweeps: %d\n",
		st.Observations, *duration, st.Refreshes, st.ValueIters)

	fmt.Println("\nlearned policy (visited states):")
	type entry struct {
		s mdp.State
		v float64
	}
	var entries []entry
	for s := 0; s < mdp.NumStates; s++ {
		if sol.V[s] != 0 {
			entries = append(entries, entry{mdp.State(s), sol.V[s]})
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].v > entries[j].v })
	for _, e := range entries {
		vec, err := mdp.Decode(e.s)
		if err != nil {
			return err
		}
		events := ""
		for i, ec := range scheduler.TopEvents(e.s, 3) {
			if i > 0 {
				events += ","
			}
			events += fmt.Sprintf("%v:%.0f", ec.Action, ec.Count)
		}
		fmt.Printf("  %-42s V=%.3f -> %-10v events[%s]\n", vec, e.v, sol.Policy[e.s], events)
	}

	if res := scheduler.Similarity(); res != nil {
		clusters := res.Clusters(*tau)
		groups := map[int][]mdp.State{}
		for s, rep := range clusters {
			if sol.V[s] != 0 || s == rep {
				groups[rep] = append(groups[rep], mdp.State(s))
			}
		}
		fmt.Printf("\nstructural-similarity clusters (tau=%.2f, %d iterations to converge):\n",
			*tau, res.Iterations)
		var reps []int
		for rep := range groups {
			if len(groups[rep]) > 1 {
				reps = append(reps, rep)
			}
		}
		sort.Ints(reps)
		for _, rep := range reps {
			vec, err := mdp.Decode(mdp.State(rep))
			if err != nil {
				return err
			}
			fmt.Printf("  rep %v: %d member states\n", vec, len(groups[rep]))
		}
		printBound(res, *rho)
	} else {
		fmt.Println("\nno similarity index yet (it refreshes every few background cycles)")
	}
	return printSimilarityTiming(scheduler.Model(), *rho)
}

// printSimilarityTiming reruns the Algorithm 1 precompute on the learned
// model with tracing enabled and reports per-sweep wall clock, EMD solve
// and dirty-skip counts, and EMD latency quantiles.
func printSimilarityTiming(model *mdp.Model, rho float64) error {
	graph, err := mdp.BuildGraph(model, true, mdp.StateBatteryOf)
	if err != nil {
		return err
	}
	rec := obs.NewRecorder(0)
	hist := obs.MustHistogram(obs.LatencyBuckets()...)
	cfg := simstruct.DefaultConfig(rho)
	cfg.EMDLatency = hist
	start := time.Now()
	res, err := simstruct.ComputeContext(obs.WithRecorder(context.Background(), rec), graph, cfg)
	elapsed := time.Since(start)
	if err != nil {
		fmt.Printf("\nsimilarity timing: precompute failed: %v\n", err)
		return nil
	}
	fmt.Printf("\nsimilarity timing (%d states, %d actions):\n",
		graph.NumStates, graph.NumActions())
	fmt.Printf("  %d sweeps in %v; EMD solves %d, dirty-pair skips %d\n",
		res.Iterations, elapsed.Round(time.Microsecond), res.EMDSolves, res.EMDSkips)
	for _, root := range rec.Tree() {
		if root.Name != "simstruct.compute" {
			continue
		}
		for i, sweep := range root.Children {
			delta, _ := sweep.Attrs["delta"].(float64)
			fmt.Printf("  sweep %d: %.3fms (delta %.2e)\n", i+1, sweep.DurationMS, delta)
		}
	}
	if snap := hist.Snapshot(); snap.Count > 0 {
		fmt.Printf("  EMD latency: n=%d mean %.1fus p50 %.1fus p95 %.1fus p99 %.1fus\n",
			snap.Count, snap.Mean()*1e6, snap.Quantile(0.5)*1e6,
			snap.Quantile(0.95)*1e6, snap.Quantile(0.99)*1e6)
	}
	return nil
}

// printBound shows the paper's value bound on a sample of state pairs.
func printBound(res *simstruct.Result, rho float64) {
	fmt.Printf("\ncompetitiveness: |V*u - V*v| <= delta_S(u,v)/(1-rho), 1/(1-rho) = %.2f\n", 1/(1-rho))
}
