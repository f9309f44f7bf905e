// Command benchjson converts `go test -bench` output on stdin into the
// BENCH_*.json trajectory format: one record per benchmark plus derived
// metrics (EMD allocation ratio, the similarity index's B/op gate, the
// zero-alloc gates of the metrics, twin, telemetry, trace and serving hot
// paths). bench.sh runs it once per trajectory file.
//
// Usage:
//
//	go test -run '^$' -bench '^(BenchmarkSimilarityIndex|BenchmarkSimilarityIndexSized|BenchmarkValueIteration|BenchmarkEMD|BenchmarkEMDSolver)$' \
//	    -benchmem -benchtime 2s . | go run ./scripts/benchjson > BENCH_simstruct.json
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// result is one parsed benchmark line.
type result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	BytesPerOp float64            `json:"bytes_per_op,omitempty"`
	AllocsOp   float64            `json:"allocs_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// output is the whole trajectory document.
type output struct {
	CPUs    int      `json:"cpus"`
	Results []result `json:"results"`
	Derived derived  `json:"derived"`
}

type derived struct {
	// EMDAllocsChecked/Solver are allocs/op of the checked EMD wrapper and
	// the reusable EMDSolver; Ratio is checked / max(solver, 1). Set only
	// when the input carries the EMD benchmarks.
	EMDAllocsChecked *float64 `json:"emd_allocs_checked,omitempty"`
	EMDAllocsSolver  *float64 `json:"emd_allocs_solver,omitempty"`
	EMDAllocsRatio   *float64 `json:"emd_allocs_ratio,omitempty"`
	// Capman-shaped similarity index (BenchmarkSimilarityIndex: Algorithm
	// 1 over the 384-state graph of a scheduler refresh) and the value
	// solve of the same model (BenchmarkValueIteration). The engine runs
	// on the live sub-graph, so its B/op must not grow with the state
	// space; run() fails above similarityIndexMaxBytes.
	SimilarityIndexNs    *float64 `json:"similarity_index_ns,omitempty"`
	SimilarityIndexBytes *float64 `json:"similarity_index_bytes,omitempty"`
	ValueIterationNs     *float64 `json:"value_iteration_ns,omitempty"`
	// MetricsDisabledAllocs/MetricsHotAllocs are allocs/op of the
	// nil-registry off path (BenchmarkRegistryDisabled) and the live
	// cached-handle path (BenchmarkCounterVecHot). Both are contractually
	// zero; run() fails the whole conversion when either regresses.
	MetricsDisabledAllocs *float64 `json:"metrics_disabled_allocs,omitempty"`
	MetricsHotAllocs      *float64 `json:"metrics_hot_allocs,omitempty"`
	// MetricsLookupNs is ns/op of the uncached WithLabelValues lookup
	// (BenchmarkCounterVecLookup), tracked so map-path regressions show
	// up in the trajectory.
	MetricsLookupNs *float64 `json:"metrics_lookup_ns,omitempty"`
	// Twin batch engine (BenchmarkBatchedStep): cohort size per op, the
	// derived single-core throughput twins·steps/sec (one op advances the
	// whole cohort one step, so twins/op ÷ ns/op · 1e9), and allocs per
	// lockstep tick — contractually zero; run() fails on a regression.
	TwinTwinsPerOp         *float64 `json:"twin_twins_per_op,omitempty"`
	TwinStepsPerSecPerCore *float64 `json:"twin_steps_per_sec_per_core,omitempty"`
	TwinAllocsPerStep      *float64 `json:"twin_allocs_per_step,omitempty"`
	// Telemetry store scrape tick (BenchmarkStoreSample): ns per full
	// registry sample and allocs per tick — contractually zero
	// (TestSamplePathAllocFree pins it in-package); run() fails on a
	// regression.
	TsdbSampleNs     *float64 `json:"tsdb_sample_ns,omitempty"`
	TsdbSampleAllocs *float64 `json:"tsdb_sample_allocs,omitempty"`
	// Serving hot path (BenchmarkAdmissionPath): ns and allocs for a
	// cache-hit submission — contractually zero allocs at steady state
	// (TestCacheHitSubmitAllocFree pins it in-package); run() hard-fails
	// the trajectory on a regression. Key is the canonicalize+hash cost
	// every request pays.
	ServeHitNs         *float64 `json:"serve_hit_ns,omitempty"`
	ServeHitAllocs     *float64 `json:"serve_hit_allocs,omitempty"`
	ServeHitParallelNs *float64 `json:"serve_hit_parallel_ns,omitempty"`
	ServeKeyNs         *float64 `json:"serve_key_ns,omitempty"`
	// Result cache (BenchmarkCache): uncontended get cost, gated at 0
	// allocs/op like the hit path.
	CacheGetNs     *float64 `json:"cache_get_ns,omitempty"`
	CacheGetAllocs *float64 `json:"cache_get_allocs,omitempty"`
	// Served versus bare step (BenchmarkServedStep): ns per simulated
	// step of capman sims run bare and the way a capmand worker runs
	// them (metrics sink, invariant checker, span recorder), and the gap
	// between the two; and the served step per goroutine with two of them
	// sharing the executor's histograms, as capmand's two workers do.
	BareStepNs           *float64 `json:"bare_step_ns,omitempty"`
	ServedStepNs         *float64 `json:"served_step_ns,omitempty"`
	ServedStepGapNs      *float64 `json:"served_step_gap_ns,omitempty"`
	ServedParallelStepNs *float64 `json:"served_parallel_step_ns,omitempty"`
	// Step kernels of a served step (BenchmarkCellStep,
	// BenchmarkPackStep, BenchmarkThermalStep): ns and allocs per step.
	// The ns are a trajectory only, since host noise swamps them; the
	// allocs are contractually zero and run() fails on a regression.
	CellStepNs        *float64 `json:"cell_step_ns,omitempty"`
	CellStepAllocs    *float64 `json:"cell_step_allocs,omitempty"`
	PackStepNs        *float64 `json:"pack_step_ns,omitempty"`
	PackStepAllocs    *float64 `json:"pack_step_allocs,omitempty"`
	ThermalStepNs     *float64 `json:"thermal_step_ns,omitempty"`
	ThermalStepAllocs *float64 `json:"thermal_step_allocs,omitempty"`
}

// similarityIndexMaxBytes is the B/op gate on BenchmarkSimilarityIndex;
// the in-package twin of this bound is TestComputeAllocsLiveSubgraph.
const similarityIndexMaxBytes = 64 << 10

// benchLine matches "BenchmarkName[-P]  <iters>  <value> <unit> ...".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run() error {
	var out output
	out.CPUs = runtime.NumCPU()
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		r := result{Name: m[1], Metrics: map[string]float64{}}
		var err error
		if r.Iterations, err = strconv.ParseInt(m[2], 10, 64); err != nil {
			return fmt.Errorf("line %q: %w", sc.Text(), err)
		}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return fmt.Errorf("line %q: field %q: %w", sc.Text(), fields[i], err)
			}
			switch fields[i+1] {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				r.BytesPerOp = v
			case "allocs/op":
				r.AllocsOp = v
			default:
				r.Metrics[fields[i+1]] = v
			}
		}
		if len(r.Metrics) == 0 {
			r.Metrics = nil
		}
		out.Results = append(out.Results, r)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(out.Results) == 0 {
		return fmt.Errorf("no benchmark lines on stdin")
	}
	out.Derived = deriveMetrics(out.Results)
	// The metrics hot paths are allocation-free by contract (also enforced
	// by TestDisabledPathAllocFree / TestCachedHandleAllocFree); fail the
	// trajectory rather than quietly recording a regression.
	if a := out.Derived.MetricsDisabledAllocs; a != nil && *a != 0 {
		return fmt.Errorf("BenchmarkRegistryDisabled allocates %g/op, want 0", *a)
	}
	if a := out.Derived.MetricsHotAllocs; a != nil && *a != 0 {
		return fmt.Errorf("BenchmarkCounterVecHot allocates %g/op, want 0", *a)
	}
	// Algorithm 1 runs on the live sub-graph: a scheduler refresh must
	// not allocate state-space-sized matrices again.
	if b := out.Derived.SimilarityIndexBytes; b != nil && *b > similarityIndexMaxBytes {
		return fmt.Errorf("BenchmarkSimilarityIndex allocates %g B/op, limit %d (dense state-space matrices are back?)", *b, similarityIndexMaxBytes)
	}
	// The twin lockstep kernel is likewise allocation-free by contract
	// (TestBatchedStepAllocFree pins it in-package).
	if a := out.Derived.TwinAllocsPerStep; a != nil && *a != 0 {
		return fmt.Errorf("BenchmarkBatchedStep allocates %g/op, want 0", *a)
	}
	// The telemetry store's sample path must never allocate: it runs every
	// scrape tick for the lifetime of the daemon.
	if a := out.Derived.TsdbSampleAllocs; a != nil && *a != 0 {
		return fmt.Errorf("BenchmarkStoreSample allocates %g/op, want 0", *a)
	}
	// The serving hot path is the tentpole contract: a cache-hit
	// submission and an uncontended cache read are allocation-free at
	// steady state. Single-iteration (-benchtime 1x) smoke runs are
	// exempt — at N=1 the testing framework's own bookkeeping pollutes
	// allocs/op — so the gate binds whenever the benchmark actually
	// iterated.
	iters := map[string]int64{}
	for _, r := range out.Results {
		iters[r.Name] = r.Iterations
	}
	if a := out.Derived.ServeHitAllocs; a != nil && *a != 0 && iters["BenchmarkAdmissionPath/hit"] > 1 {
		return fmt.Errorf("BenchmarkAdmissionPath/hit allocates %g/op, want 0 (cache-hit serving path regressed)", *a)
	}
	if a := out.Derived.CacheGetAllocs; a != nil && *a != 0 && iters["BenchmarkCache/get"] > 1 {
		return fmt.Errorf("BenchmarkCache/get allocates %g/op, want 0", *a)
	}

	// The step kernels a served step runs allocate nothing per step.
	for name, a := range map[string]*float64{
		"BenchmarkCellStep":    out.Derived.CellStepAllocs,
		"BenchmarkPackStep":    out.Derived.PackStepAllocs,
		"BenchmarkThermalStep": out.Derived.ThermalStepAllocs,
	} {
		if a != nil && *a != 0 {
			return fmt.Errorf("%s allocates %g/op, want 0", name, *a)
		}
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func deriveMetrics(results []result) derived {
	var d derived
	byName := map[string]result{}
	for _, r := range results {
		byName[r.Name] = r
	}
	if r, ok := byName["BenchmarkSimilarityIndex"]; ok {
		ns, bytes := r.NsPerOp, r.BytesPerOp
		d.SimilarityIndexNs = &ns
		d.SimilarityIndexBytes = &bytes
	}
	if r, ok := byName["BenchmarkValueIteration"]; ok {
		ns := r.NsPerOp
		d.ValueIterationNs = &ns
	}
	if r, ok := byName["BenchmarkRegistryDisabled"]; ok {
		v := r.AllocsOp
		d.MetricsDisabledAllocs = &v
	}
	if r, ok := byName["BenchmarkCounterVecHot"]; ok {
		v := r.AllocsOp
		d.MetricsHotAllocs = &v
	}
	if r, ok := byName["BenchmarkCounterVecLookup"]; ok {
		v := r.NsPerOp
		d.MetricsLookupNs = &v
	}
	if r, ok := byName["BenchmarkBatchedStep"]; ok {
		twins := r.Metrics["twins/op"]
		d.TwinTwinsPerOp = &twins
		allocs := r.AllocsOp
		d.TwinAllocsPerStep = &allocs
		if r.NsPerOp > 0 {
			throughput := twins / r.NsPerOp * 1e9
			d.TwinStepsPerSecPerCore = &throughput
		}
	}
	if r, ok := byName["BenchmarkStoreSample"]; ok {
		ns, allocs := r.NsPerOp, r.AllocsOp
		d.TsdbSampleNs = &ns
		d.TsdbSampleAllocs = &allocs
	}
	if r, ok := byName["BenchmarkAdmissionPath/hit"]; ok {
		ns, allocs := r.NsPerOp, r.AllocsOp
		d.ServeHitNs = &ns
		d.ServeHitAllocs = &allocs
	}
	if r, ok := byName["BenchmarkAdmissionPath/hit-parallel"]; ok {
		ns := r.NsPerOp
		d.ServeHitParallelNs = &ns
	}
	if r, ok := byName["BenchmarkAdmissionPath/key"]; ok {
		ns := r.NsPerOp
		d.ServeKeyNs = &ns
	}
	if r, ok := byName["BenchmarkCache/get"]; ok {
		ns, allocs := r.NsPerOp, r.AllocsOp
		d.CacheGetNs = &ns
		d.CacheGetAllocs = &allocs
	}
	if bare, ok := byName["BenchmarkServedStep/bare"]; ok {
		if served, ok := byName["BenchmarkServedStep/served"]; ok {
			bareNs, servedNs := bare.Metrics["ns/step"], served.Metrics["ns/step"]
			gap := servedNs - bareNs
			d.BareStepNs, d.ServedStepNs, d.ServedStepGapNs = &bareNs, &servedNs, &gap
		}
	}
	if par, ok := byName["BenchmarkServedStep/served-parallel"]; ok {
		ns := par.Metrics["ns/step"]
		d.ServedParallelStepNs = &ns
	}
	for name, dst := range map[string][2]**float64{
		"BenchmarkCellStep":    {&d.CellStepNs, &d.CellStepAllocs},
		"BenchmarkPackStep":    {&d.PackStepNs, &d.PackStepAllocs},
		"BenchmarkThermalStep": {&d.ThermalStepNs, &d.ThermalStepAllocs},
	} {
		if r, ok := byName[name]; ok {
			ns, allocs := r.NsPerOp, r.AllocsOp
			*dst[0], *dst[1] = &ns, &allocs
		}
	}
	if emd, ok := byName["BenchmarkEMD"]; ok {
		checked := emd.AllocsOp
		d.EMDAllocsChecked = &checked
		if solver, ok := byName["BenchmarkEMDSolver"]; ok {
			allocs, ratio := solver.AllocsOp, emd.AllocsOp/max(solver.AllocsOp, 1)
			d.EMDAllocsSolver = &allocs
			d.EMDAllocsRatio = &ratio
		}
	}
	return d
}
