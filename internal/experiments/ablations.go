package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/battery"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// This file holds the extension studies beyond the paper's figures: design
// ablations of CAPMAN's components (DESIGN.md calls these out) and a
// chemistry pair-selection study for the big.LITTLE pack.

// AblationRow is one variant's outcome.
type AblationRow struct {
	Variant  string
	ServiceS float64
	Switches int
	// DecisionMicros is the mean decision-path latency where measured.
	DecisionMicros float64
	Note           string
}

// AblationResult is a generic variant table.
type AblationResult struct {
	ID    string
	Title string
	Base  string // workload used
	Rows  []AblationRow
}

// ToTable renders the result.
func (r *AblationResult) ToTable() *Table {
	t := &Table{
		ID:     r.ID,
		Title:  fmt.Sprintf("%s (%s)", r.Title, r.Base),
		Header: []string{"variant", "service s", "switches", "decision us", "note"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Variant,
			fmt.Sprintf("%.0f", row.ServiceS),
			fmt.Sprintf("%d", row.Switches),
			fmt.Sprintf("%.1f", row.DecisionMicros),
			row.Note,
		})
	}
	return t
}

// AblationCAPMAN disables CAPMAN's components one at a time on the mixed
// Eta-50% workload.
func AblationCAPMAN(o Options) (*AblationResult, error) {
	wl, err := o.eta50()
	if err != nil {
		return nil, err
	}
	variants := []struct {
		name string
		mut  func(*core.Config)
		note string
	}{
		{"full", func(*core.Config) {}, "all components enabled"},
		{"no-similarity", func(c *core.Config) { c.ClusterTau = 0 },
			"unseen states fall back to the default decision"},
		{"no-balancing", func(c *core.Config) { c.QTieMargin = -1 },
			"near-ties resolve by strict argmax"},
		{"no-exploration", func(c *core.Config) { c.ExploreEpsilon0 = 0 },
			"greedy from the first decision"},
		{"heavy-exploration", func(c *core.Config) { c.ExploreEpsilon0 = 0.5 },
			"half the early decisions are random"},
		{"slow-refresh", func(c *core.Config) { c.RefreshIntervalS *= 8 },
			"background model refresh 8x rarer"},
	}
	res := &AblationResult{
		ID:    "AblCAPMAN",
		Title: "CAPMAN component ablation",
		Base:  "Eta-50%",
	}
	for _, v := range variants {
		cfg := o.capmanConfig()
		v.mut(&cfg)
		policy, err := core.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("ablation %s: %w", v.name, err)
		}
		simCfg := o.baseSimConfig(wl, policy)
		decisions := timeDecisions(&simCfg)
		r, err := sim.Run(simCfg)
		if err != nil {
			return nil, fmt.Errorf("ablation %s run: %w", v.name, err)
		}
		row := AblationRow{Variant: v.name, ServiceS: r.ServiceTimeS, Switches: r.Switches, Note: v.note,
			DecisionMicros: decisionMicros(decisions, cfg.OverheadScale)}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// AblationSwitchCost sweeps the physical cost of a battery flip on the
// Video workload: cheap switches let CAPMAN chase every surge; expensive
// ones force it to consolidate.
func AblationSwitchCost(o Options) (*AblationResult, error) {
	seed := o.seed()
	wl := func() workload.Generator { return workload.NewVideo(seed + 20) }
	res := &AblationResult{
		ID:    "AblSwitch",
		Title: "Switch facility flip-energy sweep",
		Base:  "Video",
	}
	for _, flipJ := range []float64{0, 0.05, 0.5, 2.0} {
		policy, err := o.capmanPolicy()
		if err != nil {
			return nil, err
		}
		cfg := o.baseSimConfig(wl, policy)
		cfg.Pack.Switch.FlipEnergyJ = flipJ
		r, err := sim.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("flip %.2fJ: %w", flipJ, err)
		}
		res.Rows = append(res.Rows, AblationRow{
			Variant:  fmt.Sprintf("flip=%.2fJ", flipJ),
			ServiceS: r.ServiceTimeS,
			Switches: r.Switches,
			Note:     fmt.Sprintf("switch loss %.0fJ total", float64(r.Switches)*flipJ),
		})
	}
	return res, nil
}

// AblationSupercap removes the supercapacitor filter from the LITTLE rail.
func AblationSupercap(o Options) (*AblationResult, error) {
	seed := o.seed()
	wl := func() workload.Generator { return workload.NewVideo(seed + 20) }
	res := &AblationResult{
		ID:    "AblSupercap",
		Title: "Supercapacitor filter ablation",
		Base:  "Video",
	}
	for _, withSC := range []bool{true, false} {
		policy, err := o.capmanPolicy()
		if err != nil {
			return nil, err
		}
		cfg := o.baseSimConfig(wl, policy)
		name := "with-supercap"
		if !withSC {
			cfg.Pack.Supercap = nil
			name = "no-supercap"
		}
		r, err := sim.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		res.Rows = append(res.Rows, AblationRow{
			Variant:  name,
			ServiceS: r.ServiceTimeS,
			Switches: r.Switches,
			Note:     fmt.Sprintf("wasted %.0fJ", r.EnergyWastedJ),
		})
	}
	return res, nil
}

// SolverRow compares MDP solvers on the same learned model.
type SolverRow struct {
	Solver     string
	WallMicros float64
	Iterations int
	Residual   float64
}

// SolverResult is the solver ablation outcome.
type SolverResult struct {
	Observations int
	Rows         []SolverRow
}

// ToTable renders the result.
func (r *SolverResult) ToTable() *Table {
	t := &Table{
		ID:     "AblSolver",
		Title:  fmt.Sprintf("MDP solver comparison (%d observations)", r.Observations),
		Header: []string{"solver", "wall us", "iterations", "residual"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Solver,
			fmt.Sprintf("%.0f", row.WallMicros),
			fmt.Sprintf("%d", row.Iterations),
			fmt.Sprintf("%.2e", row.Residual),
		})
	}
	t.Notes = append(t.Notes,
		"both solvers reach the same fixed point; value iteration is what the scheduler runs online")
	return t
}

// AblationSolver learns a model from a real workload prefix and times value
// iteration against policy iteration on it.
func AblationSolver(o Options) (*SolverResult, error) {
	seed := o.seed()
	capCfg := o.capmanConfig()
	scheduler, err := core.New(capCfg)
	if err != nil {
		return nil, err
	}
	cfg := o.baseSimConfig(func() workload.Generator { return workload.NewPCMark(seed + 10) }, scheduler)
	cfg.MaxTimeS = 1200
	if _, err := sim.Run(cfg); err != nil {
		return nil, err
	}
	model := scheduler.Model()
	if model == nil {
		return nil, fmt.Errorf("ablation solver: no model learned in the prefix")
	}
	res := &SolverResult{Observations: scheduler.Stats().Observations}

	const rho = 0.6
	start := time.Now()
	vi, err := model.ValueIteration(rho, 1e-9, 1000000)
	if err != nil {
		return nil, fmt.Errorf("value iteration: %w", err)
	}
	res.Rows = append(res.Rows, SolverRow{
		Solver:     "value-iteration",
		WallMicros: float64(time.Since(start).Microseconds()),
		Iterations: vi.Iterations,
		Residual:   vi.Residual,
	})

	start = time.Now()
	pi, err := model.PolicyIteration(rho, 1e-11, 1000)
	if err != nil {
		return nil, fmt.Errorf("policy iteration: %w", err)
	}
	res.Rows = append(res.Rows, SolverRow{
		Solver:     "policy-iteration",
		WallMicros: float64(time.Since(start).Microseconds()),
		Iterations: pi.Iterations,
		Residual:   pi.Residual,
	})
	return res, nil
}

// PairRow is one chemistry pairing's outcome.
type PairRow struct {
	Big      battery.Chemistry
	Little   battery.Chemistry
	ServiceS float64
	Ratio    float64 // LITTLE activation ratio
}

// PairStudyResult ranks big.LITTLE chemistry pairings.
type PairStudyResult struct {
	Workload string
	Rows     []PairRow
}

// ToTable renders the result.
func (r *PairStudyResult) ToTable() *Table {
	t := &Table{
		ID:     "PairStudy",
		Title:  fmt.Sprintf("big.LITTLE chemistry pairing study (%s)", r.Workload),
		Header: []string{"big", "LITTLE", "service s", "LITTLE ratio"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Big.String(),
			row.Little.String(),
			fmt.Sprintf("%.0f", row.ServiceS),
			fmt.Sprintf("%.2f", row.Ratio),
		})
	}
	t.Notes = append(t.Notes,
		"the paper picks NCA+LMO as 'almost orthogonal in important features'; this study checks the choice against the alternatives")
	return t
}

// PairStudy runs CAPMAN on the Eta-50% mix for every big x LITTLE pairing
// from Table I.
func PairStudy(o Options) (*PairStudyResult, error) {
	wl, err := o.eta50()
	if err != nil {
		return nil, err
	}
	bigs := []battery.Chemistry{battery.LCO, battery.NCA}
	littles := []battery.Chemistry{battery.LMO, battery.NMC, battery.LFP, battery.LTO}
	if o.Quick {
		littles = littles[:2]
	}
	res := &PairStudyResult{Workload: "Eta-50%"}
	for _, big := range bigs {
		for _, little := range littles {
			policy, err := o.capmanPolicy()
			if err != nil {
				return nil, err
			}
			cfg := o.baseSimConfig(wl, policy)
			cfg.Pack.Big = battery.MustParams(big, o.CapacityMAh())
			cfg.Pack.Little = battery.MustParams(little, o.CapacityMAh())
			r, err := sim.Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("pair %v+%v: %w", big, little, err)
			}
			res.Rows = append(res.Rows, PairRow{
				Big: big, Little: little,
				ServiceS: r.ServiceTimeS,
				Ratio:    r.LittleRatio(),
			})
		}
	}
	return res, nil
}

// AmbientRow is one ambient temperature's outcome.
type AmbientRow struct {
	AmbientC    float64
	ServiceS    float64
	MaxCPUTempC float64
	TECOnFrac   float64
	TECEnergyJ  float64
	WastedJ     float64
	LittleRatio float64
	Above45Frac float64
}

// AmbientResult sweeps ambient temperature.
type AmbientResult struct {
	Workload string
	Rows     []AmbientRow
}

// ToTable renders the result.
func (r *AmbientResult) ToTable() *Table {
	t := &Table{
		ID:    "AmbientSweep",
		Title: fmt.Sprintf("Ambient temperature sweep under CAPMAN (%s)", r.Workload),
		Header: []string{"ambient C", "service s", "max CPU C", "TEC on frac",
			"TEC J", "wasted J", ">45C frac"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f", row.AmbientC),
			fmt.Sprintf("%.0f", row.ServiceS),
			fmt.Sprintf("%.1f", row.MaxCPUTempC),
			fmt.Sprintf("%.2f", row.TECOnFrac),
			fmt.Sprintf("%.0f", row.TECEnergyJ),
			fmt.Sprintf("%.0f", row.WastedJ),
			fmt.Sprintf("%.3f", row.Above45Frac),
		})
	}
	t.Notes = append(t.Notes,
		"hot ambients cost twice: battery parasitics double every 15C and the TEC must run to hold the 45C skin limit")
	return t
}

// AmbientSweep runs CAPMAN on the Video workload across ambient
// temperatures from a cool room to a hot pocket.
func AmbientSweep(o Options) (*AmbientResult, error) {
	ambients := []float64{15, 25, 32, 38}
	if o.Quick {
		ambients = []float64{25, 38}
	}
	seed := o.seed()
	res := &AmbientResult{Workload: "Video"}
	for _, amb := range ambients {
		policy, err := o.capmanPolicy()
		if err != nil {
			return nil, err
		}
		cfg := o.baseSimConfig(func() workload.Generator { return workload.NewVideo(seed + 20) }, policy)
		th := cfg.Thermal
		if th == (thermalZero) {
			th = thermal.DefaultPhoneConfig()
		}
		th.AmbientC = amb
		cfg.Thermal = th
		r, err := sim.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("ambient %.0fC: %w", amb, err)
		}
		row := AmbientRow{
			AmbientC:    amb,
			ServiceS:    r.ServiceTimeS,
			MaxCPUTempC: r.MaxCPUTempC,
			TECEnergyJ:  r.TECEnergyJ,
			WastedJ:     r.EnergyWastedJ,
			LittleRatio: r.LittleRatio(),
		}
		if r.ServiceTimeS > 0 {
			row.TECOnFrac = r.TECOnTimeS / r.ServiceTimeS
			row.Above45Frac = r.TimeAbove45S / r.ServiceTimeS
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// thermalZero is the zero value used to detect an unset thermal config.
var thermalZero thermal.PhoneConfig

// SeedRow is one policy's cross-seed summary.
type SeedRow struct {
	Policy string
	MeanS  float64
	StdS   float64
	Seeds  int
	WorstS float64
	BestS  float64
}

// SeedStudyResult reports the headline comparison across seeds (the
// paper's "data collected from multiple simulation experiments").
type SeedStudyResult struct {
	Workload string
	Rows     []SeedRow
}

// ToTable renders the result.
func (r *SeedStudyResult) ToTable() *Table {
	t := &Table{
		ID:     "SeedStudy",
		Title:  fmt.Sprintf("Cross-seed robustness of the %s comparison", r.Workload),
		Header: []string{"policy", "mean s", "std s", "min s", "max s", "seeds"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Policy,
			fmt.Sprintf("%.0f", row.MeanS),
			fmt.Sprintf("%.0f", row.StdS),
			fmt.Sprintf("%.0f", row.WorstS),
			fmt.Sprintf("%.0f", row.BestS),
			fmt.Sprintf("%d", row.Seeds),
		})
	}
	t.Notes = append(t.Notes,
		"each seed regenerates the Video demand stream; the ordering must survive seed noise")
	return t
}

// SeedStudy reruns the Video comparison over several seeds, using the
// parallel runner for the stateless policies.
func SeedStudy(o Options) (*SeedStudyResult, error) {
	seeds := []int64{11, 29, 42, 73, 97}
	if o.Quick {
		seeds = seeds[:3]
	}
	res := &SeedStudyResult{Workload: "Video"}
	collect := map[string][]float64{}
	order := []string{"CAPMAN", "Dual", "Heuristic"}

	for _, seed := range seeds {
		wl := func(s int64) func() workload.Generator {
			return func() workload.Generator { return workload.NewVideo(s) }
		}(seed)

		capPolicy, err := o.capmanPolicy()
		if err != nil {
			return nil, err
		}
		cfgs := []sim.Config{
			o.baseSimConfig(wl, capPolicy),
			o.baseSimConfig(wl, sched.NewDual()),
			o.baseSimConfig(wl, sched.NewHeuristic()),
		}
		runs, err := sim.RunMany(cfgs, len(cfgs))
		if err != nil {
			return nil, fmt.Errorf("seed %d: %w", seed, err)
		}
		for i, name := range order {
			collect[name] = append(collect[name], runs[i].ServiceTimeS)
		}
	}
	for _, name := range order {
		sum := stats.Summarize(collect[name])
		res.Rows = append(res.Rows, SeedRow{
			Policy: name,
			MeanS:  sum.Mean,
			StdS:   sum.Std,
			WorstS: sum.Min,
			BestS:  sum.Max,
			Seeds:  sum.Count,
		})
	}
	return res, nil
}

// Extensions lists the studies beyond the paper's own figures.
func Extensions() []Runner {
	return []Runner{
		{ID: "AblCAPMAN", Desc: "CAPMAN component ablation",
			Run: func(o Options) (Tabler, error) { return AblationCAPMAN(o) }},
		{ID: "AmbientSweep", Desc: "Ambient temperature sweep",
			Run: func(o Options) (Tabler, error) { return AmbientSweep(o) }},
		{ID: "AblSwitch", Desc: "Switch flip-energy sweep",
			Run: func(o Options) (Tabler, error) { return AblationSwitchCost(o) }},
		{ID: "AblSupercap", Desc: "Supercapacitor filter ablation",
			Run: func(o Options) (Tabler, error) { return AblationSupercap(o) }},
		{ID: "AblSolver", Desc: "Value vs policy iteration on the learned MDP",
			Run: func(o Options) (Tabler, error) { return AblationSolver(o) }},
		{ID: "PairStudy", Desc: "big.LITTLE chemistry pairing study",
			Run: func(o Options) (Tabler, error) { return PairStudy(o) }},
		{ID: "SeedStudy", Desc: "Cross-seed robustness of the Video comparison",
			Run: func(o Options) (Tabler, error) { return SeedStudy(o) }},
	}
}

// RunExtensions executes every extension study, rendering each result to
// w in format f.
func RunExtensions(o Options, f Format, w io.Writer) error {
	for _, r := range Extensions() {
		res, err := r.Run(o)
		if err != nil {
			return fmt.Errorf("%s: %w", r.ID, err)
		}
		if err := renderResult(res, f, w); err != nil {
			return fmt.Errorf("render %s: %w", r.ID, err)
		}
	}
	return nil
}
