package experiments

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Fig12Result holds the one-discharge-cycle comparison of Figure 12: five
// policies across six workloads.
type Fig12Result struct {
	Workloads []string
	Policies  []string
	// ServiceS[w][p] is the service time of workload w under policy p.
	ServiceS [][]float64
	// OracleThresholdW[w] is the offline-tuned Oracle cut point.
	OracleThresholdW []float64
	// Runs keeps the detailed CAPMAN run per workload for downstream
	// figures.
	Runs map[string]*sim.Result
}

// Fig12 runs the full policy-by-workload matrix.
func Fig12(o Options) (*Fig12Result, error) {
	wls, err := o.workloadFactories()
	if err != nil {
		return nil, err
	}
	policies := o.standardPolicies()
	res := &Fig12Result{
		Policies: []string{"Oracle", "CAPMAN", "Dual", "Heuristic", "Practice"},
		Runs:     make(map[string]*sim.Result, len(wls)),
	}
	for _, wl := range wls {
		res.Workloads = append(res.Workloads, wl.Name)
		row := make([]float64, len(res.Policies))

		// Oracle: offline-tuned threshold on the identical demand stream.
		// TuneOracle installs its own policy per trial.
		thr, oracleRun, err := sim.TuneOracle(o.baseSimConfig(wl.New, nil), nil)
		if err != nil {
			return nil, fmt.Errorf("fig12 %s oracle: %w", wl.Name, err)
		}
		res.OracleThresholdW = append(res.OracleThresholdW, thr)
		row[0] = oracleRun.ServiceTimeS

		for i, pf := range policies {
			p, err := pf.build()
			if err != nil {
				return nil, fmt.Errorf("fig12 %s %s: %w", wl.Name, pf.name, err)
			}
			cfg := o.baseSimConfig(wl.New, p)
			r, err := sim.Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("fig12 %s %s run: %w", wl.Name, pf.name, err)
			}
			row[1+i] = r.ServiceTimeS
			if pf.name == "CAPMAN" {
				res.Runs[wl.Name] = r
			}
		}

		pr, err := sim.Run(o.practiceConfig(wl.New))
		if err != nil {
			return nil, fmt.Errorf("fig12 %s practice: %w", wl.Name, err)
		}
		row[4] = pr.ServiceTimeS
		res.ServiceS = append(res.ServiceS, row)
	}
	return res, nil
}

// Service returns the service time of (workload, policy) or 0.
func (r *Fig12Result) Service(wl, policy string) float64 {
	wi, pi := -1, -1
	for i, w := range r.Workloads {
		if w == wl {
			wi = i
		}
	}
	for i, p := range r.Policies {
		if p == policy {
			pi = i
		}
	}
	if wi < 0 || pi < 0 {
		return 0
	}
	return r.ServiceS[wi][pi]
}

// Gain returns CAPMAN's relative service-time gain over the named policy on
// the workload (0.5 = 50% longer).
func (r *Fig12Result) Gain(wl, over string) float64 {
	return stats.Improvement(r.Service(wl, "CAPMAN"), r.Service(wl, over))
}

// ToTable renders the matrix with CAPMAN's gains.
func (r *Fig12Result) ToTable() *Table {
	t := &Table{
		ID:    "Fig12",
		Title: "One-discharge-cycle service time (seconds) per policy and workload",
		Header: []string{"workload", "Oracle", "CAPMAN", "Dual", "Heuristic", "Practice",
			"vsDual%", "vsHeur%", "vsPractice%", "vsOracle%"},
	}
	for i, wl := range r.Workloads {
		row := r.ServiceS[i]
		t.Rows = append(t.Rows, []string{
			wl,
			fmt.Sprintf("%.0f", row[0]),
			fmt.Sprintf("%.0f", row[1]),
			fmt.Sprintf("%.0f", row[2]),
			fmt.Sprintf("%.0f", row[3]),
			fmt.Sprintf("%.0f", row[4]),
			fmt.Sprintf("%+.1f", 100*stats.Improvement(row[1], row[2])),
			fmt.Sprintf("%+.1f", 100*stats.Improvement(row[1], row[3])),
			fmt.Sprintf("%+.1f", 100*stats.Improvement(row[1], row[4])),
			fmt.Sprintf("%+.1f", 100*stats.Improvement(row[1], row[0])),
		})
	}
	t.Notes = append(t.Notes,
		"paper headlines: Video +53/55/67% vs Heuristic/Dual/Practice and within 9.6% of Oracle; mixed loads up to +114% vs Practice",
		"Practice is the original phone: one LCO cell of the same per-cell capacity, no TEC")
	return t
}

// Fig13Result reports cooling and active power per workload (Figure 13).
type Fig13Result struct {
	Rows []Fig13Row
}

// Fig13Row is one workload under CAPMAN with TEC.
type Fig13Row struct {
	Workload        string
	PeakActiveW     float64
	AvgActiveW      float64
	MaxCPUTempC     float64
	MeanCPUTempC    float64
	TimeAbove45S    float64
	TimeAbove45Frac float64
	TECOnFrac       float64
	TECEnergyJ      float64
}

// Fig13 derives the cooling/active-power figures from the Figure 12 CAPMAN
// runs (or fresh runs when given a nil matrix).
func Fig13(o Options, fig12 *Fig12Result) (*Fig13Result, error) {
	if fig12 == nil {
		var err error
		fig12, err = Fig12(o)
		if err != nil {
			return nil, err
		}
	}
	res := &Fig13Result{}
	for _, wl := range fig12.Workloads {
		run, ok := fig12.Runs[wl]
		if !ok {
			return nil, fmt.Errorf("fig13: no CAPMAN run recorded for %s", wl)
		}
		peak := 0.0
		for _, s := range run.Samples {
			if s.PowerW > peak {
				peak = s.PowerW
			}
		}
		if peak == 0 {
			peak = run.AvgActivePowerW
		}
		row := Fig13Row{
			Workload:     wl,
			PeakActiveW:  peak,
			AvgActiveW:   run.AvgActivePowerW,
			MaxCPUTempC:  run.MaxCPUTempC,
			MeanCPUTempC: run.MeanCPUTempC,
			TimeAbove45S: run.TimeAbove45S,
		}
		if run.ServiceTimeS > 0 {
			row.TimeAbove45Frac = run.TimeAbove45S / run.ServiceTimeS
			row.TECOnFrac = run.TECOnTimeS / run.ServiceTimeS
		}
		row.TECEnergyJ = run.TECEnergyJ
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// ToTable renders the result.
func (r *Fig13Result) ToTable() *Table {
	t := &Table{
		ID:    "Fig13",
		Title: "Cooling and active power under CAPMAN",
		Header: []string{"workload", "avg active W", "max CPU C", "mean CPU C",
			">45C frac", "TEC on frac", "TEC J"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Workload,
			fmt.Sprintf("%.2f", row.AvgActiveW),
			fmt.Sprintf("%.1f", row.MaxCPUTempC),
			fmt.Sprintf("%.1f", row.MeanCPUTempC),
			fmt.Sprintf("%.2f", row.TimeAbove45Frac),
			fmt.Sprintf("%.2f", row.TECOnFrac),
			fmt.Sprintf("%.0f", row.TECEnergyJ),
		})
	}
	t.Notes = append(t.Notes,
		"paper: CAPMAN maintains the hot spot around 45C; active power peaks near 2300mW on fully utilised workloads")
	return t
}

// Fig14Result relates big/LITTLE activation ratio to temperature reduction
// (Figure 14).
type Fig14Result struct {
	Rows []Fig14Row
}

// Fig14Row is one workload's pair.
type Fig14Row struct {
	Workload        string
	LittleRatio     float64
	MaxTempNoTECC   float64
	MaxTempWithTECC float64
	ReductionC      float64
	// Above45NoTECFrac and Above45TECFrac are the fractions of the cycle
	// the hot spot exceeded the 45C threshold.
	Above45NoTECFrac float64
	Above45TECFrac   float64
}

// Fig14 reruns each workload under CAPMAN without the TEC and compares hot
// spots against the Figure 12 runs.
func Fig14(o Options, fig12 *Fig12Result) (*Fig14Result, error) {
	if fig12 == nil {
		var err error
		fig12, err = Fig12(o)
		if err != nil {
			return nil, err
		}
	}
	wls, err := o.workloadFactories()
	if err != nil {
		return nil, err
	}
	res := &Fig14Result{}
	for _, wl := range wls {
		withTEC, ok := fig12.Runs[wl.Name]
		if !ok {
			return nil, fmt.Errorf("fig14: no CAPMAN run recorded for %s", wl.Name)
		}
		policy, err := o.capmanPolicy()
		if err != nil {
			return nil, err
		}
		cfg := o.baseSimConfig(wl.New, policy)
		cfg.TEC = nil
		noTEC, err := sim.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("fig14 %s no-TEC: %w", wl.Name, err)
		}
		row := Fig14Row{
			Workload:        wl.Name,
			LittleRatio:     withTEC.LittleRatio(),
			MaxTempNoTECC:   noTEC.MaxCPUTempC,
			MaxTempWithTECC: withTEC.MaxCPUTempC,
			ReductionC:      noTEC.MaxCPUTempC - withTEC.MaxCPUTempC,
		}
		if noTEC.ServiceTimeS > 0 {
			row.Above45NoTECFrac = noTEC.TimeAbove45S / noTEC.ServiceTimeS
		}
		if withTEC.ServiceTimeS > 0 {
			row.Above45TECFrac = withTEC.TimeAbove45S / withTEC.ServiceTimeS
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// ToTable renders the result.
func (r *Fig14Result) ToTable() *Table {
	t := &Table{
		ID:    "Fig14",
		Title: "big.LITTLE activation ratio vs temperature reduction",
		Header: []string{"workload", "LITTLE ratio", "max C (no TEC)",
			"max C (TEC)", "reduction C", ">45C frac (no TEC)", ">45C frac (TEC)"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Workload,
			fmt.Sprintf("%.2f", row.LittleRatio),
			fmt.Sprintf("%.1f", row.MaxTempNoTECC),
			fmt.Sprintf("%.1f", row.MaxTempWithTECC),
			fmt.Sprintf("%.1f", row.ReductionC),
			fmt.Sprintf("%.3f", row.Above45NoTECFrac),
			fmt.Sprintf("%.3f", row.Above45TECFrac),
		})
	}
	t.Notes = append(t.Notes,
		"paper: workloads that lean on the LITTLE battery see the largest reductions (PCMark, Eta-80%)")
	return t
}

// Fig15Result compares CAPMAN across the three prototype phones
// (Figure 15).
type Fig15Result struct {
	Workload string
	Rows     []Fig15Row
}

// Fig15Row is one phone's snapshot.
type Fig15Row struct {
	Phone          string
	ServiceS       float64
	AvgActiveW     float64
	MinSampleW     float64
	MaxSampleW     float64
	DecisionMicros float64 // mean decision-path latency in microseconds
}

// Fig15 runs the Eta-50% trace on each phone profile.
func Fig15(o Options) (*Fig15Result, error) {
	wl, err := o.eta50()
	if err != nil {
		return nil, err
	}
	res := &Fig15Result{Workload: "Eta-50%"}
	for _, profile := range device.Profiles() {
		capCfg := o.capmanConfig()
		capCfg.OverheadScale = profile.DecisionOverheadScale
		policy, err := newCapman(capCfg)
		if err != nil {
			return nil, err
		}
		cfg := o.baseSimConfig(wl, policy)
		cfg.Profile = profile
		cfg.SampleEveryS = 30
		decisions := timeDecisions(&cfg)
		r, err := sim.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("fig15 %s: %w", profile.Name, err)
		}
		row := Fig15Row{
			Phone:      profile.Name,
			ServiceS:   r.ServiceTimeS,
			AvgActiveW: r.AvgActivePowerW,
		}
		for i, s := range r.Samples {
			if i == 0 || s.PowerW < row.MinSampleW {
				row.MinSampleW = s.PowerW
			}
			if s.PowerW > row.MaxSampleW {
				row.MaxSampleW = s.PowerW
			}
		}
		row.DecisionMicros = decisionMicros(decisions, capCfg.OverheadScale)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// ToTable renders the result.
func (r *Fig15Result) ToTable() *Table {
	t := &Table{
		ID:    "Fig15",
		Title: fmt.Sprintf("CAPMAN snapshot across phones (%s)", r.Workload),
		Header: []string{"phone", "service s", "avg active W", "min sample W",
			"max sample W", "decision us"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Phone,
			fmt.Sprintf("%.0f", row.ServiceS),
			fmt.Sprintf("%.2f", row.AvgActiveW),
			fmt.Sprintf("%.2f", row.MinSampleW),
			fmt.Sprintf("%.2f", row.MaxSampleW),
			fmt.Sprintf("%.1f", row.DecisionMicros),
		})
	}
	t.Notes = append(t.Notes,
		"paper: similar management across phones with sampled active power swinging ~100mW to ~450mW above idle")
	return t
}

// Fig16Result sweeps the discount factor against scheduler overhead
// (Figure 16).
type Fig16Result struct {
	Rows []Fig16Row
}

// Fig16Row is one (phone, rho) sample.
type Fig16Row struct {
	Phone          string
	Rho            float64
	DecisionMicros float64
	RefreshMillis  float64
	ValueIters     int
}

// Fig16 measures CAPMAN's decision-path overhead at increasing rho on each
// phone profile. The workload is a fixed PCMark prefix so every
// configuration digests the same stream.
func Fig16(o Options) (*Fig16Result, error) {
	rhos := []float64{0.05, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 0.99}
	if o.Quick {
		rhos = []float64{0.05, 0.6, 0.95}
	}
	profiles := device.Profiles()
	if o.Quick {
		profiles = profiles[:1]
	}
	seed := o.seed()
	res := &Fig16Result{}
	for _, profile := range profiles {
		for _, rho := range rhos {
			capCfg := o.capmanConfig()
			capCfg.Rho = rho
			capCfg.OverheadScale = profile.DecisionOverheadScale
			policy, err := newCapman(capCfg)
			if err != nil {
				return nil, err
			}
			cfg := o.baseSimConfig(func() workload.Generator { return workload.NewPCMark(seed + 10) }, policy)
			cfg.Profile = profile
			cfg.MaxTimeS = 1800 // fixed prefix: overhead, not service time
			if o.Quick {
				cfg.MaxTimeS = 600
			}
			decisions := timeDecisions(&cfg)
			if _, err := sim.Run(cfg); err != nil {
				return nil, fmt.Errorf("fig16 %s rho=%.2f: %w", profile.Name, rho, err)
			}
			st := policy.Stats()
			row := Fig16Row{Phone: profile.Name, Rho: rho, ValueIters: st.ValueIters,
				DecisionMicros: decisionMicros(decisions, capCfg.OverheadScale)}
			if st.Refreshes > 0 {
				row.RefreshMillis = st.TotalRefreshSec / float64(st.Refreshes) * 1e3
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// ToTable renders the result.
func (r *Fig16Result) ToTable() *Table {
	t := &Table{
		ID:     "Fig16",
		Title:  "Impact of the discount factor rho on scheduler overhead",
		Header: []string{"phone", "rho", "decision us", "refresh ms", "value iters"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Phone,
			fmt.Sprintf("%.2f", row.Rho),
			fmt.Sprintf("%.2f", row.DecisionMicros),
			fmt.Sprintf("%.2f", row.RefreshMillis),
			fmt.Sprintf("%d", row.ValueIters),
		})
	}
	t.Notes = append(t.Notes,
		"paper: overhead grows sharply as rho approaches 1 (about 300us on the Nexus), and slower phones pay proportionally more")
	return t
}
