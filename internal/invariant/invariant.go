// Package invariant is the runtime safety-invariant monitor: a low-overhead
// property layer that checks physics and state-machine contracts on every
// simulation step. The contracts encode what CAPMAN promises to keep true —
// zone temperatures under their ceilings, battery state inside the KiBaM
// envelope (SoC in [0,1], monotone non-increasing during discharge, wells
// non-negative with total charge conserved), TEC actuation inside the
// device's rated limits and off while a dropout fault is latched, and the
// big.LITTLE switch automaton honouring the degradation guard's
// hold-current override.
//
// Violations come in two severities. Warnings are environment-driven
// envelope excursions (a hot ambient can push the CPU past a ceiling with
// every model behaving correctly); fatals are contracts only a software bug
// can break (SoC increasing during discharge, a negative well, a TEC that
// draws power while forced off). The distinction is what lets the whole
// fault-plan library run under the checker in CI with "no fatal violations"
// as the pass condition, while thermal warnings remain useful signals.
//
// The package has two faces: Checker for the scalar engine (internal/sim)
// and BatchChecker for the structure-of-arrays twin engine (internal/twin).
// Both are allocation-free on the no-violation path: counters live in a
// fixed array indexed by kind, the detailed violation list is bounded and
// preallocated, and detail strings are only formatted when a violation
// actually fires.
package invariant

import (
	"fmt"

	"repro/internal/battery"
)

// Severity classifies a violation.
type Severity string

// Severities. Fatal marks contracts only a software bug can break; the
// simulation trips the degradation guard when one fires so the run degrades
// instead of integrating garbage. Warn marks envelope excursions the
// environment can cause legitimately.
const (
	SeverityWarn  Severity = "warn"
	SeverityFatal Severity = "fatal"
)

// Kind identifies one monitored contract. Kinds are small integers so the
// hot path can count per-kind violations in a fixed array.
type Kind uint8

// The monitored contracts.
const (
	// KindThermalCeilingCPU: CPU-node temperature above Config.MaxCPUTempC.
	KindThermalCeilingCPU Kind = iota
	// KindThermalCeilingBattery: battery node above Config.MaxBatteryTempC.
	KindThermalCeilingBattery
	// KindThermalCeilingBody: body node above Config.MaxBodyTempC.
	KindThermalCeilingBody
	// KindThermalRate: any monitored zone heating or cooling faster than
	// Config.MaxTempRateCps.
	KindThermalRate
	// KindSoCRange: a reported state of charge outside [0, 1].
	KindSoCRange
	// KindSoCMonotone: a state of charge that increased between steps of a
	// discharge-only run.
	KindSoCMonotone
	// KindVoltageCutoff: a cell that kept serving load with its terminal
	// voltage below the chemistry's cutoff. The single step that crosses the
	// cutoff is legal — discretization lands it marginally below before the
	// engine declares the cell empty — so the contract fires on the second
	// consecutive below-cutoff step of the same cell.
	KindVoltageCutoff
	// KindChargeConservation: the KiBaM wells out of envelope — a negative
	// well, or available charge exceeding total charge.
	KindChargeConservation
	// KindTECLimit: TEC actuation outside the device rating (current above
	// MaxCurrentA, or negative power/cooling).
	KindTECLimit
	// KindTECDropoutOn: the TEC drew power while a dropout fault (or the
	// guard's TEC veto) had it forced off.
	KindTECDropoutOn
	// KindTransition: an illegal power-state transition — the applied
	// decision requested a battery flip while the guard was degraded, when
	// the automaton only allows hold-current.
	KindTransition

	numKinds
)

var kindNames = [numKinds]string{
	KindThermalCeilingCPU:     "thermal-ceiling-cpu",
	KindThermalCeilingBattery: "thermal-ceiling-battery",
	KindThermalCeilingBody:    "thermal-ceiling-body",
	KindThermalRate:           "thermal-rate",
	KindSoCRange:              "soc-range",
	KindSoCMonotone:           "soc-monotone",
	KindVoltageCutoff:         "voltage-cutoff",
	KindChargeConservation:    "charge-conservation",
	KindTECLimit:              "tec-limit",
	KindTECDropoutOn:          "tec-dropout-on",
	KindTransition:            "state-transition",
}

var kindSeverities = [numKinds]Severity{
	KindThermalCeilingCPU:     SeverityWarn,
	KindThermalCeilingBattery: SeverityWarn,
	KindThermalCeilingBody:    SeverityWarn,
	KindThermalRate:           SeverityWarn,
	KindSoCRange:              SeverityFatal,
	KindSoCMonotone:           SeverityFatal,
	KindVoltageCutoff:         SeverityFatal,
	KindChargeConservation:    SeverityFatal,
	KindTECLimit:              SeverityFatal,
	KindTECDropoutOn:          SeverityFatal,
	KindTransition:            SeverityFatal,
}

// String returns the kind's stable name, used as the metric label value.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind-%d", uint8(k))
}

// Severity returns the kind's severity class.
func (k Kind) Severity() Severity {
	if int(k) < len(kindSeverities) {
		return kindSeverities[k]
	}
	return SeverityWarn
}

// Kinds returns every monitored contract name in declaration order.
func Kinds() []string {
	out := make([]string, numKinds)
	for k := Kind(0); k < numKinds; k++ {
		out[k] = k.String()
	}
	return out
}

// SeverityOfName maps a contract name back to its severity; unknown names
// report SeverityWarn.
func SeverityOfName(name string) Severity {
	for k := Kind(0); k < numKinds; k++ {
		if kindNames[k] == name {
			return kindSeverities[k]
		}
	}
	return SeverityWarn
}

// Violation is one observed contract breach.
type Violation struct {
	// Invariant is the contract name (Kind.String()).
	Invariant string `json:"invariant"`
	// Severity is "warn" or "fatal".
	Severity Severity `json:"severity"`
	// At is the simulated time of the breach; Step the step index.
	At   float64 `json:"at"`
	Step int     `json:"step"`
	// Value is the observed quantity, Limit the bound it crossed.
	Value float64 `json:"value"`
	Limit float64 `json:"limit"`
	// Detail is a human-readable one-liner.
	Detail string `json:"detail"`
	// First marks the first breach of this contract in the run; consumers
	// that must stay bounded (span events) keep only these.
	First bool `json:"first,omitempty"`
	// Twin is the cohort index for batch violations; -1 for scalar runs.
	Twin int `json:"twin,omitempty"`
}

// Config tunes the monitored envelopes. The zero value takes defaults, so
// &invariant.Config{} enables the checker with the calibrated ceilings.
type Config struct {
	// MaxCPUTempC is the CPU-node ceiling (default 80: silicon-throttle
	// territory, far above the TEC's 45 degC comfort gate).
	MaxCPUTempC float64
	// MaxBatteryTempC is the battery-node ceiling (default 60: cell vendors
	// cap discharge around here).
	MaxBatteryTempC float64
	// MaxBodyTempC is the body/skin-node ceiling (default 65).
	MaxBodyTempC float64
	// MaxTempRateCps bounds |dT/dt| per zone in degC per second (default 5;
	// calibrated runs peak below 0.3, so a breach means a runaway
	// integrator, not a hot workload).
	MaxTempRateCps float64
	// Tolerance is the slack applied to exact physics contracts to absorb
	// floating-point round-off (default 1e-9).
	Tolerance float64
	// MaxViolations bounds the detailed violation list in the report
	// (default 32); counting is unbounded either way.
	MaxViolations int
}

// DefaultConfig returns the calibrated default envelopes.
func DefaultConfig() Config { return Config{}.withDefaults() }

func (c Config) withDefaults() Config {
	if c.MaxCPUTempC == 0 {
		c.MaxCPUTempC = 80
	}
	if c.MaxBatteryTempC == 0 {
		c.MaxBatteryTempC = 60
	}
	if c.MaxBodyTempC == 0 {
		c.MaxBodyTempC = 65
	}
	if c.MaxTempRateCps == 0 {
		c.MaxTempRateCps = 5
	}
	if c.Tolerance == 0 {
		c.Tolerance = 1e-9
	}
	if c.MaxViolations == 0 {
		c.MaxViolations = 32
	}
	return c
}

// Report summarizes a run's violations; nil means the run was clean.
type Report struct {
	// Total counts every violation, including ones beyond the detail bound.
	Total int `json:"total"`
	// Fatal reports whether any fatal-severity contract fired.
	Fatal bool `json:"fatal"`
	// Counts tallies violations per contract name.
	Counts map[string]int `json:"counts"`
	// Violations is the bounded detail list (first Config.MaxViolations).
	Violations []Violation `json:"violations,omitempty"`
	// Truncated counts violations dropped from the detail list.
	Truncated int `json:"truncated,omitempty"`
}

// SimStep is everything the scalar checker inspects about one step. The
// simulation fills it from true physics state (never from fault-corrupted
// sensor views), so sensor faults cannot cause false fatals.
type SimStep struct {
	Now  float64
	DT   float64
	Step int

	// True zone temperatures as read this step.
	CPUTempC     float64
	BatteryTempC float64
	BodyTempC    float64

	// True cell states (before any sensor-fault corruption).
	BigSoC         float64
	BigAvailSoC    float64
	LittleSoC      float64
	LittleAvailSoC float64

	// Electrical outcome of the active cell's step. StepOK false (the run
	// is ending) skips the voltage contract.
	StepOK         bool
	ActivePowerW   float64
	ActiveVoltageV float64
	ActiveCutoffV  float64 // zero disables the voltage contract

	// TEC actuation this step.
	TECPowerW      float64
	TECCoolingW    float64
	TECCurrentA    float64
	TECMaxCurrentA float64 // zero disables the current-limit contract
	TECForcedOff   bool    // dropout fault latched or guard veto active

	// Switch automaton view: the decision actually applied after guard
	// review, the selection that served the previous step, and whether the
	// guard was degraded when the decision was made.
	Degraded        bool
	DecisionBattery battery.Selection
	ActiveBattery   battery.Selection
}

// Checker evaluates the contracts for one scalar run. Not safe for
// concurrent use; internal/sim drives it from the single-threaded step loop.
type Checker struct {
	cfg    Config
	counts [numKinds]int

	violations []Violation
	truncated  int
	fatal      bool
	fatalV     Violation
	onViolate  func(Violation)

	prevValid     bool
	prevCPUC      float64
	prevBattC     float64
	prevBodyC     float64
	prevBigSoC    float64
	prevLittleSoC float64

	prevBelowCutoff bool
	prevActive      battery.Selection
}

// NewChecker builds a checker; zero-value config fields take defaults.
func NewChecker(cfg Config) *Checker {
	cfg = cfg.withDefaults()
	return &Checker{
		cfg:        cfg,
		violations: make([]Violation, 0, cfg.MaxViolations),
	}
}

// SetOnViolation registers a hook fired synchronously for every violation
// (the simulation streams them into the metrics sink and its run span).
// A nil fn clears the hook.
func (c *Checker) SetOnViolation(fn func(Violation)) { c.onViolate = fn }

// Fatal reports whether any fatal contract has fired.
func (c *Checker) Fatal() bool { return c.fatal }

// FatalViolation returns the first fatal violation, if any.
func (c *Checker) FatalViolation() (Violation, bool) { return c.fatalV, c.fatal }

// Total returns the number of violations observed so far.
func (c *Checker) Total() int {
	n := 0
	for _, v := range c.counts {
		n += v
	}
	return n
}

// Report returns the run's violation summary, or nil if the run was clean —
// so a clean run's Result serializes identically to one checked without the
// monitor.
func (c *Checker) Report() *Report {
	total := c.Total()
	if total == 0 {
		return nil
	}
	r := &Report{
		Total:      total,
		Fatal:      c.fatal,
		Counts:     make(map[string]int, numKinds),
		Violations: c.violations,
		Truncated:  c.truncated,
	}
	for k := Kind(0); k < numKinds; k++ {
		if c.counts[k] > 0 {
			r.Counts[k.String()] = c.counts[k]
		}
	}
	return r
}

// violate records one breach: count it, keep bounded detail, latch fatal,
// fire the hook. detail is formatted here, after the no-violation fast path
// has already returned, so clean steps never pay for fmt.
func (c *Checker) violate(k Kind, at float64, step int, value, limit float64, format string, args ...any) {
	c.counts[k]++
	v := Violation{
		Invariant: k.String(),
		Severity:  k.Severity(),
		At:        at,
		Step:      step,
		Value:     value,
		Limit:     limit,
		Detail:    fmt.Sprintf(format, args...),
		First:     c.counts[k] == 1,
		Twin:      -1,
	}
	if v.Severity == SeverityFatal && !c.fatal {
		c.fatal = true
		c.fatalV = v
	}
	if len(c.violations) < cap(c.violations) {
		c.violations = append(c.violations, v)
	} else {
		c.truncated++
	}
	if c.onViolate != nil {
		c.onViolate(v)
	}
}

// CheckSim evaluates every contract against one step. The fast path — all
// contracts holding — is branch-only and allocation-free.
func (c *Checker) CheckSim(s *SimStep) {
	tol := c.cfg.Tolerance

	// Thermal ceilings (warn: a hot environment can cause these).
	if s.CPUTempC > c.cfg.MaxCPUTempC {
		c.violate(KindThermalCeilingCPU, s.Now, s.Step, s.CPUTempC, c.cfg.MaxCPUTempC,
			"cpu %.2fC above ceiling %.2fC", s.CPUTempC, c.cfg.MaxCPUTempC)
	}
	if s.BatteryTempC > c.cfg.MaxBatteryTempC {
		c.violate(KindThermalCeilingBattery, s.Now, s.Step, s.BatteryTempC, c.cfg.MaxBatteryTempC,
			"battery %.2fC above ceiling %.2fC", s.BatteryTempC, c.cfg.MaxBatteryTempC)
	}
	if s.BodyTempC > c.cfg.MaxBodyTempC {
		c.violate(KindThermalCeilingBody, s.Now, s.Step, s.BodyTempC, c.cfg.MaxBodyTempC,
			"body %.2fC above ceiling %.2fC", s.BodyTempC, c.cfg.MaxBodyTempC)
	}
	if c.prevValid && s.DT > 0 {
		lim := c.cfg.MaxTempRateCps * s.DT
		if d := abs(s.CPUTempC - c.prevCPUC); d > lim {
			c.violate(KindThermalRate, s.Now, s.Step, d/s.DT, c.cfg.MaxTempRateCps,
				"cpu |dT/dt| %.2fC/s above %.2fC/s", d/s.DT, c.cfg.MaxTempRateCps)
		}
		if d := abs(s.BatteryTempC - c.prevBattC); d > lim {
			c.violate(KindThermalRate, s.Now, s.Step, d/s.DT, c.cfg.MaxTempRateCps,
				"battery |dT/dt| %.2fC/s above %.2fC/s", d/s.DT, c.cfg.MaxTempRateCps)
		}
		if d := abs(s.BodyTempC - c.prevBodyC); d > lim {
			c.violate(KindThermalRate, s.Now, s.Step, d/s.DT, c.cfg.MaxTempRateCps,
				"body |dT/dt| %.2fC/s above %.2fC/s", d/s.DT, c.cfg.MaxTempRateCps)
		}
	}

	// Battery physics (fatal: discharge-only KiBaM cannot do any of this).
	c.checkCell(s, "big", s.BigSoC, s.BigAvailSoC, c.prevBigSoC)
	c.checkCell(s, "little", s.LittleSoC, s.LittleAvailSoC, c.prevLittleSoC)
	below := s.StepOK && s.ActivePowerW > 0 && s.ActiveCutoffV > 0 && s.ActiveVoltageV > 0 &&
		s.ActiveVoltageV < s.ActiveCutoffV-tol
	if below && c.prevBelowCutoff && s.ActiveBattery == c.prevActive {
		c.violate(KindVoltageCutoff, s.Now, s.Step, s.ActiveVoltageV, s.ActiveCutoffV,
			"kept serving %.2fW at %.4fV, below cutoff %.3fV", s.ActivePowerW, s.ActiveVoltageV, s.ActiveCutoffV)
	}
	c.prevBelowCutoff = below
	c.prevActive = s.ActiveBattery

	// TEC actuation limits.
	if s.TECMaxCurrentA > 0 && s.TECCurrentA > s.TECMaxCurrentA+tol {
		c.violate(KindTECLimit, s.Now, s.Step, s.TECCurrentA, s.TECMaxCurrentA,
			"tec current %.3fA above rated %.3fA", s.TECCurrentA, s.TECMaxCurrentA)
	}
	if s.TECPowerW < -tol || s.TECCoolingW < -tol {
		c.violate(KindTECLimit, s.Now, s.Step, min(s.TECPowerW, s.TECCoolingW), 0,
			"negative tec actuation: power %.3fW cooling %.3fW", s.TECPowerW, s.TECCoolingW)
	}
	if s.TECForcedOff && s.TECPowerW > tol {
		c.violate(KindTECDropoutOn, s.Now, s.Step, s.TECPowerW, 0,
			"tec drew %.3fW while forced off", s.TECPowerW)
	}

	// Switch automaton: while degraded the only legal decision is
	// hold-current (the guard's override); a flip request reaching the
	// actuator means the override was bypassed.
	if s.Degraded && s.DecisionBattery != s.ActiveBattery &&
		(s.DecisionBattery == battery.SelectBig || s.DecisionBattery == battery.SelectLittle) {
		c.violate(KindTransition, s.Now, s.Step, float64(s.DecisionBattery), float64(s.ActiveBattery),
			"battery flip %s->%s requested while degraded", s.ActiveBattery, s.DecisionBattery)
	}

	c.prevCPUC = s.CPUTempC
	c.prevBattC = s.BatteryTempC
	c.prevBodyC = s.BodyTempC
	c.prevBigSoC = s.BigSoC
	c.prevLittleSoC = s.LittleSoC
	c.prevValid = true
}

// checkCell applies the per-cell charge contracts: SoC range, discharge
// monotonicity, and well conservation (0 <= available <= total).
func (c *Checker) checkCell(s *SimStep, name string, soc, availSoC, prevSoC float64) {
	tol := c.cfg.Tolerance
	if soc < -tol || soc > 1+tol {
		c.violate(KindSoCRange, s.Now, s.Step, soc, 1,
			"%s SoC %.6g outside [0,1]", name, soc)
	}
	if c.prevValid && soc > prevSoC+tol {
		c.violate(KindSoCMonotone, s.Now, s.Step, soc, prevSoC,
			"%s SoC rose %.6g -> %.6g during discharge", name, prevSoC, soc)
	}
	if availSoC < -tol || availSoC > soc+tol {
		c.violate(KindChargeConservation, s.Now, s.Step, availSoC, soc,
			"%s available charge %.6g outside [0, total %.6g]", name, availSoC, soc)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func min(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
