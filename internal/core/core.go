// Package core implements CAPMAN itself: the cooling- and active-power-
// management scheduler of Section III. It profiles the running system into
// an empirical MDP, periodically refreshes a structural-similarity index
// over the bipartite MDP graph (Algorithm 1), aggregates similar states,
// solves the aggregate with value iteration, and answers battery decisions
// from the cached policy in microseconds. Exploration decays over the
// discharge cycle, reproducing the paper's "CAPMAN gradually learns the
// state behavior" warm-up.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/battery"
	"repro/internal/mdp"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/simstruct"
)

// Config parameterises the CAPMAN scheduler.
type Config struct {
	// Rho is the MDP discount factor; the online algorithm is
	// O(1/(1-Rho))-competitive.
	Rho float64
	// RefreshIntervalS is how often the background recomputation (model
	// materialisation, similarity index, value iteration) runs.
	RefreshIntervalS float64
	// Smoothing is the Laplace pseudo-count used when materialising the
	// empirical model.
	Smoothing float64
	// ClusterTau is the structural-distance threshold under which states
	// share cached decisions. Zero disables aggregation.
	ClusterTau float64
	// ExploreEpsilon0 is the initial exploration rate; it decays with a
	// half-life of ExploreHalfLifeS.
	ExploreEpsilon0  float64
	ExploreHalfLifeS float64
	// Seed drives the exploration RNG.
	Seed int64
	// SimilarityEvery runs the similarity index refresh every Nth
	// background refresh (it is the expensive part; the paper runs it
	// "when the device is not busy").
	SimilarityEvery int
	// OverheadScale multiplies measured host costs to model slower phones
	// (Figure 15/16): the scheduler applies it to the refresh costs in
	// Stats, and the evaluation applies it to the decision latencies the
	// sim engine measures.
	OverheadScale float64
	// QTieMargin is the action-value gap under which a decision counts as
	// near-indifferent and falls back to charge balancing. Negative
	// disables balancing entirely (an ablation knob); zero selects the
	// default margin.
	QTieMargin float64
	// MinOwnObs is the observation count above which a state trusts its
	// own cached policy instead of its similarity cluster's. Zero selects
	// the default.
	MinOwnObs int
}

// DefaultConfig returns the configuration used throughout the evaluation.
func DefaultConfig() Config {
	return Config{
		Rho:              0.6,
		RefreshIntervalS: 60,
		Smoothing:        0.5,
		ClusterTau:       0.05,
		ExploreEpsilon0:  0.15,
		ExploreHalfLifeS: 300,
		Seed:             1,
		SimilarityEvery:  10,
		OverheadScale:    1,
	}
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	switch {
	case c.Rho <= 0 || c.Rho >= 1:
		return fmt.Errorf("capman: rho %v outside (0,1)", c.Rho)
	case c.RefreshIntervalS <= 0:
		return fmt.Errorf("capman: refresh interval %v", c.RefreshIntervalS)
	case c.Smoothing < 0:
		return fmt.Errorf("capman: smoothing %v", c.Smoothing)
	case c.ClusterTau < 0 || c.ClusterTau >= 1:
		return fmt.Errorf("capman: cluster tau %v", c.ClusterTau)
	case c.ExploreEpsilon0 < 0 || c.ExploreEpsilon0 > 1:
		return fmt.Errorf("capman: epsilon0 %v", c.ExploreEpsilon0)
	case c.ExploreEpsilon0 > 0 && c.ExploreHalfLifeS <= 0:
		return fmt.Errorf("capman: explore half-life %v", c.ExploreHalfLifeS)
	case c.SimilarityEvery <= 0:
		return fmt.Errorf("capman: similarity cadence %d", c.SimilarityEvery)
	case c.OverheadScale <= 0:
		return fmt.Errorf("capman: overhead scale %v", c.OverheadScale)
	}
	return nil
}

// defaultMinOwnObs is the default observation count above which a state
// trusts its own cached policy instead of its similarity cluster's.
const defaultMinOwnObs = 12

// defaultQTieMargin is the default action-value gap under which a decision
// counts as near-indifferent and falls back to charge balancing.
const defaultQTieMargin = 0.05

// qTieMargin resolves the configured margin.
func (c Config) qTieMargin() float64 {
	switch {
	case c.QTieMargin < 0:
		return 0 // balancing disabled: ties resolve toward big
	case c.QTieMargin == 0:
		return defaultQTieMargin
	default:
		return c.QTieMargin
	}
}

// minOwnObs resolves the configured threshold.
func (c Config) minOwnObs() int {
	if c.MinOwnObs <= 0 {
		return defaultMinOwnObs
	}
	return c.MinOwnObs
}

// Stats exposes the scheduler's internals for the evaluation harness.
type Stats struct {
	Refreshes          int
	SimilarityRuns     int
	SimilarityIters    int
	ValueIters         int
	Clusters           int
	Decisions          int
	Explorations       int
	Fallbacks          int
	Observations       int
	LastRefreshSeconds float64 // wall-clock cost of the last refresh
	TotalRefreshSec    float64
}

// Scheduler is the CAPMAN policy. It is not safe for concurrent use; the
// simulation drives it from a single goroutine exactly as the prototype's
// control loop does.
type Scheduler struct {
	cfg Config
	rng *rand.Rand
	ctx context.Context // bound run context; nil means background

	estimator *mdp.Estimator
	model     *mdp.Model
	solution  *mdp.Solution
	// spareModel and spareSolution are the model and solution the current
	// ones replaced. The next refresh builds into their buffers and, on
	// success, swaps them in, so a refresh allocates no state-space-sized
	// storage.
	spareModel    *mdp.Model
	spareSolution *mdp.Solution
	// qGap[s] is Q(s, use_big) - Q(s, use_LITTLE) under the current
	// solution, tabulated at each refresh so a decision is one lookup.
	qGap     []float64
	clusters []int // state -> representative state
	simres   *simstruct.Result

	emdLatency *obs.Histogram // external EMD-latency sink; nil = off

	lastRefresh float64
	stats       Stats
}

// Compile-time interface check.
var _ sched.Policy = (*Scheduler)(nil)

// New builds a CAPMAN scheduler.
func New(cfg Config) (*Scheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	est, err := mdp.NewEstimator(mdp.NumStates)
	if err != nil {
		return nil, err
	}
	return &Scheduler{
		cfg:         cfg,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		estimator:   est,
		lastRefresh: -cfg.RefreshIntervalS, // refresh on first opportunity
	}, nil
}

// Name implements sched.Policy.
func (s *Scheduler) Name() string { return "CAPMAN" }

// BindContext attaches a context to the scheduler's background refreshes:
// the structural-similarity precompute runs under it and aborts when it is
// cancelled, leaving the previous policy in place. The sim engine calls
// this at run start (and with nil at run end), so cancelling a simulation
// also stops an in-flight similarity refresh. Nil restores the background
// context.
func (s *Scheduler) BindContext(ctx context.Context) { s.ctx = ctx }

// SetEMDLatency routes the structural-similarity engine's per-EMD-solve
// latency into an external histogram (capmand feeds its registry-backed
// capman_emd_latency_seconds this way). Call it before the run starts —
// it is read by background refreshes; nil turns the sink off.
func (s *Scheduler) SetEMDLatency(h *obs.Histogram) { s.emdLatency = h }

// context returns the bound refresh context.
func (s *Scheduler) context() context.Context {
	if s.ctx == nil {
		return context.Background()
	}
	return s.ctx
}

// Stats returns a snapshot of the scheduler's counters.
func (s *Scheduler) Stats() Stats {
	st := s.stats
	st.Observations = s.estimator.Observations()
	return st
}

// Rho returns the configured discount factor.
func (s *Scheduler) Rho() float64 { return s.cfg.Rho }

// Decide implements sched.Policy: look up the cached policy for the
// current state's cluster representative, explore with decaying epsilon,
// and guard feasibility. The scheduler keeps no stopwatch of its own: the
// sim engine times its calls (sim.MetricsSink.DecisionLatency), every
// call that RefreshDue announces and a stride sample of the rest.
func (s *Scheduler) Decide(ctx sched.Context) sched.Decision {
	s.stats.Decisions++
	s.maybeRefresh(ctx.Now)

	if eps := s.epsilon(ctx.Now); eps > 0 && s.rng.Float64() < eps {
		s.stats.Explorations++
		want := battery.SelectBig
		if s.rng.Intn(2) == 1 {
			want = battery.SelectLittle
		}
		return sched.Decision{Battery: ctx.Feasible(want)}
	}

	// Well-observed states answer from their own cached policy; rarely
	// visited states borrow the decision of their structural-similarity
	// cluster representative (the paper's "extract from history patterns
	// without recomputing the entire graph").
	state := ctx.State.Encode()
	rep := state
	if s.clusters != nil && s.estimator.StateObservations(state) < s.cfg.minOwnObs() {
		rep = mdp.State(s.clusters[state])
	}
	want := battery.SelectBig
	switch {
	case s.qGap != nil:
		// Compare action values; near-indifferent states break the tie
		// toward the cell with more remaining charge, so the pack
		// depletes in balance and neither cell strands capacity.
		gap := s.qGap[rep]
		margin := s.cfg.qTieMargin()
		switch {
		case gap > margin:
			want = battery.SelectBig
		case -gap > margin:
			want = battery.SelectLittle
		case s.cfg.QTieMargin < 0:
			// Balancing ablated: strict argmax with ties toward big.
			if gap < 0 {
				want = battery.SelectLittle
			}
		case ctx.Little.SoC > ctx.Big.SoC:
			want = battery.SelectLittle
		}
	case ctx.DemandW >= 1.6:
		// Cold start before the first refresh: route surges to LITTLE.
		want = battery.SelectLittle
	}
	got := ctx.Feasible(want)
	if got != want {
		s.stats.Fallbacks++
	}
	return sched.Decision{Battery: got}
}

// Observe implements sched.Policy: feed the realised transition into the
// empirical MDP.
func (s *Scheduler) Observe(prev sched.Context, applied battery.Selection, next mdp.StateVec, reward float64) {
	_ = s.estimator.Observe(prev.State.Encode(), mdp.ControlFor(applied), next.Encode(), reward)
	_ = s.estimator.ObserveEvent(prev.State.Encode(), prev.Event)
}

// epsilon returns the decayed exploration rate at time now.
func (s *Scheduler) epsilon(now float64) float64 {
	if s.cfg.ExploreEpsilon0 == 0 {
		return 0
	}
	halves := now / s.cfg.ExploreHalfLifeS
	eps := s.cfg.ExploreEpsilon0
	for ; halves >= 1; halves-- {
		eps /= 2
	}
	return eps * (1 - 0.5*halves)
}

// RefreshDue reports whether a Decide at time now runs the background
// refresh: the refresh interval has passed since the last one (the first
// decision always qualifies). Such a decision costs a model solve rather
// than a table lookup, so the sim engine asks first and times it exactly;
// Decide itself refreshes on this same predicate. A due refresh is skipped,
// and the interval restarted, while the estimator holds too few
// observations to model.
func (s *Scheduler) RefreshDue(now float64) bool {
	return now-s.lastRefresh >= s.cfg.RefreshIntervalS
}

// maybeRefresh runs the background recomputation when due.
func (s *Scheduler) maybeRefresh(now float64) {
	if !s.RefreshDue(now) {
		return
	}
	s.lastRefresh = now
	if s.estimator.Observations() < 20 {
		return
	}
	start := time.Now()
	if err := s.refresh(); err != nil {
		// A failed refresh keeps the previous policy; the scheduler
		// degrades to its last known-good decisions.
		return
	}
	elapsed := time.Since(start).Seconds() * s.cfg.OverheadScale
	s.stats.LastRefreshSeconds = elapsed
	s.stats.TotalRefreshSec += elapsed
	s.stats.Refreshes++
}

// refresh materialises the model, refreshes the similarity index on its
// cadence, and re-solves the value function.
func (s *Scheduler) refresh() error {
	model, err := s.estimator.ModelInto(s.spareModel, s.cfg.Smoothing)
	if err != nil {
		return fmt.Errorf("materialise model: %w", err)
	}
	s.spareModel = model // until it is swapped in below
	if s.cfg.ClusterTau > 0 && s.stats.Refreshes%s.cfg.SimilarityEvery == 0 {
		if err := s.refreshSimilarity(model); err != nil && !errors.Is(err, simstruct.ErrNoConverge) {
			return err
		}
	}
	sol, err := model.ValueIterationInto(s.spareSolution, s.cfg.Rho, 1e-6, 10000)
	if err != nil {
		return fmt.Errorf("value iteration: %w", err)
	}
	s.stats.ValueIters += sol.Iterations
	s.model, s.spareModel = model, s.model
	s.solution, s.spareSolution = sol, s.solution
	if s.qGap == nil {
		s.qGap = make([]float64, model.NumStates())
	}
	for st := range s.qGap {
		s.qGap[st] = model.QValue(mdp.State(st), mdp.UseBig, sol.V, s.cfg.Rho) -
			model.QValue(mdp.State(st), mdp.UseLittle, sol.V, s.cfg.Rho)
	}
	return nil
}

// refreshSimilarity rebuilds the structural-similarity index and the state
// clusters that share cached decisions.
func (s *Scheduler) refreshSimilarity(model *mdp.Model) error {
	graph, err := mdp.BuildGraph(model, true, mdp.StateBatteryOf)
	if err != nil {
		return fmt.Errorf("build graph: %w", err)
	}
	simCfg := simstruct.DefaultConfig(s.cfg.Rho)
	simCfg.EMDLatency = s.emdLatency
	res, err := simstruct.ComputeContext(s.context(), graph, simCfg)
	if err != nil {
		return fmt.Errorf("similarity: %w", err)
	}
	s.simres = res
	s.clusters = res.Clusters(s.cfg.ClusterTau)
	s.stats.SimilarityRuns++
	s.stats.SimilarityIters += res.Iterations
	n := 0
	seen := make(map[int]bool)
	for _, c := range s.clusters {
		if !seen[c] {
			seen[c] = true
			n++
		}
	}
	s.stats.Clusters = n
	return nil
}

// Similarity returns the most recent similarity index, or nil before the
// first similarity refresh.
func (s *Scheduler) Similarity() *simstruct.Result { return s.simres }

// Solution returns the most recent value-iteration solution, or nil before
// the first refresh. Its storage is reused from the second refresh after
// the call on; read it between runs or copy it.
func (s *Scheduler) Solution() *mdp.Solution { return s.solution }

// Model returns the most recently materialised empirical MDP, or nil
// before the first refresh. Like Solution, its storage is reused from the
// second refresh after the call on.
func (s *Scheduler) Model() *mdp.Model { return s.model }

// TopEvents returns the most frequent action symbols observed in a state
// (the per-state system-call statistics of the profiling layer).
func (s *Scheduler) TopEvents(state mdp.State, n int) []mdp.EventCount {
	return s.estimator.TopEvents(state, n)
}

// Save persists the scheduler's learned statistics so a rebooted device
// starts with a warm model.
func (s *Scheduler) Save(w io.Writer) error { return s.estimator.Save(w) }

// Restore replaces the scheduler's statistics with a previously saved
// snapshot and re-solves the model immediately.
func (s *Scheduler) Restore(r io.Reader) error {
	est, err := mdp.LoadEstimator(r)
	if err != nil {
		return err
	}
	s.estimator = est
	s.clusters = nil
	s.simres = nil
	if err := s.refresh(); err != nil {
		return fmt.Errorf("re-solve restored model: %w", err)
	}
	s.stats.Refreshes++
	return nil
}
