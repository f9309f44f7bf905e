package invariant

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// BatchParams carries the physical constants the lane checker needs once
// per cohort instead of once per step.
type BatchParams struct {
	// CapacityC is the usable cell capacity in coulombs; SoC for the range
	// contract is computed from the raw wells as (avail+bound)/CapacityC,
	// deliberately without the clamp the production SoC accessor applies —
	// a clamped accessor would hide exactly the bug the contract exists to
	// catch.
	CapacityC float64
	// CutoffV is the chemistry's cutoff voltage; zero disables the voltage
	// contract.
	CutoffV float64
	// TECMaxCurrentA is the TEC rating; zero disables the current contract.
	TECMaxCurrentA float64
}

// LaneStep is one twin's post-step state, read straight off the SoA lanes.
type LaneStep struct {
	Twin int
	Now  float64
	DT   float64

	// Raw KiBaM wells after the step.
	AvailC float64
	BoundC float64

	// Electrical outcome; StepOK false (the twin just died) skips the
	// voltage contract.
	StepOK   bool
	PowerW   float64
	VoltageV float64

	// Zone temperatures after the thermal step.
	CPUTempC     float64
	BatteryTempC float64
	BodyTempC    float64

	// TEC actuation this step.
	TECPowerW   float64
	TECCurrentA float64
}

// BatchChecker evaluates the physics contracts over a structure-of-arrays
// twin cohort. Disjoint twin ranges may be checked concurrently: per-kind
// totals are atomic counters (commutative, so any worker partition yields
// identical counts), the fatal latch is atomic, and only the bounded detail
// list takes a mutex — and only when a violation actually fires. The
// no-violation path is branch-only and allocation-free, preserving the twin
// engine's 0-allocs/step guarantee.
type BatchChecker struct {
	cfg Config
	p   BatchParams

	// Per-twin previous-step lanes, primed from the initial state so the
	// first step already has a baseline.
	prevTotalC []float64
	prevCPUC   []float64
	prevBattC  []float64
	prevBodyC  []float64
	prevBelow  []bool

	counts [numKinds]atomic.Int64
	fatal  atomic.Bool

	mu         sync.Mutex
	violations []Violation
	truncated  int
}

// NewBatchChecker builds a checker for an n-twin cohort; zero-value config
// fields take defaults. Prime each twin before stepping.
func NewBatchChecker(cfg Config, n int, p BatchParams) *BatchChecker {
	cfg = cfg.withDefaults()
	return &BatchChecker{
		cfg:        cfg,
		p:          p,
		prevTotalC: make([]float64, n),
		prevCPUC:   make([]float64, n),
		prevBattC:  make([]float64, n),
		prevBodyC:  make([]float64, n),
		prevBelow:  make([]bool, n),
		violations: make([]Violation, 0, cfg.MaxViolations),
	}
}

// Prime seeds twin i's previous-step baseline from its initial state. The
// twin engine calls it from Reset, which also makes the checker reusable
// across batch reruns (counts persist; only the baselines rewind).
func (b *BatchChecker) Prime(i int, totalC, cpuC, battC, bodyC float64) {
	b.prevTotalC[i] = totalC
	b.prevCPUC[i] = cpuC
	b.prevBattC[i] = battC
	b.prevBodyC[i] = bodyC
	b.prevBelow[i] = false
}

// Fatal reports whether any fatal contract has fired.
func (b *BatchChecker) Fatal() bool { return b.fatal.Load() }

// Counts returns the per-contract violation totals as a name-keyed map, or
// nil when the cohort was clean. The map is deterministic at any worker
// count: every (twin, step) check is a pure function of lane state, and
// atomic adds commute.
func (b *BatchChecker) Counts() map[string]int {
	var out map[string]int
	for k := Kind(0); k < numKinds; k++ {
		if n := b.counts[k].Load(); n > 0 {
			if out == nil {
				out = make(map[string]int, numKinds)
			}
			out[k.String()] = int(n)
		}
	}
	return out
}

// Report returns the cohort's violation summary, or nil when clean. The
// detail list's order depends on worker interleaving; the counts do not.
func (b *BatchChecker) Report() *Report {
	counts := b.Counts()
	if counts == nil {
		return nil
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	violations := make([]Violation, len(b.violations))
	copy(violations, b.violations)
	return &Report{
		Total:      total,
		Fatal:      b.fatal.Load(),
		Counts:     counts,
		Violations: violations,
		Truncated:  b.truncated,
	}
}

// violate counts one breach and keeps bounded detail. Formatting and the
// mutex are only paid when a violation fires.
func (b *BatchChecker) violate(k Kind, s LaneStep, value, limit float64, format string, args ...any) {
	first := b.counts[k].Add(1) == 1
	sev := k.Severity()
	if sev == SeverityFatal {
		b.fatal.Store(true)
	}
	v := Violation{
		Invariant: k.String(),
		Severity:  sev,
		At:        s.Now,
		Step:      -1,
		Value:     value,
		Limit:     limit,
		Detail:    fmt.Sprintf(format, args...),
		First:     first,
		Twin:      s.Twin,
	}
	b.mu.Lock()
	if len(b.violations) < cap(b.violations) {
		b.violations = append(b.violations, v)
	} else {
		b.truncated++
	}
	b.mu.Unlock()
}

// CheckLane evaluates the contracts for one twin's step. Callers from
// concurrent workers must keep twin ranges disjoint, exactly as they do for
// the state lanes themselves.
func (b *BatchChecker) CheckLane(s LaneStep) {
	tol := b.cfg.Tolerance
	i := s.Twin

	// KiBaM well envelope: non-negative wells, total charge non-increasing
	// (discharge only), SoC from the raw wells inside [0, 1].
	totalC := s.AvailC + s.BoundC
	if s.AvailC < -tol || s.BoundC < -tol {
		b.violate(KindChargeConservation, s, min(s.AvailC, s.BoundC), 0,
			"twin %d well negative: avail %.6g bound %.6g", i, s.AvailC, s.BoundC)
	}
	if totalC > b.prevTotalC[i]+tol {
		b.violate(KindSoCMonotone, s, totalC, b.prevTotalC[i],
			"twin %d charge rose %.6g -> %.6g during discharge", i, b.prevTotalC[i], totalC)
	}
	if b.p.CapacityC > 0 {
		soc := totalC / b.p.CapacityC
		if soc < -tol || soc > 1+tol {
			b.violate(KindSoCRange, s, soc, 1,
				"twin %d SoC %.6g outside [0,1]", i, soc)
		}
	}
	// The crossing step may legitimately land marginally below the cutoff;
	// only a second consecutive below-cutoff step is a contract breach.
	below := s.StepOK && s.PowerW > 0 && b.p.CutoffV > 0 && s.VoltageV > 0 &&
		s.VoltageV < b.p.CutoffV-tol
	if below && b.prevBelow[i] {
		b.violate(KindVoltageCutoff, s, s.VoltageV, b.p.CutoffV,
			"twin %d kept serving %.2fW at %.4fV, below cutoff %.3fV", i, s.PowerW, s.VoltageV, b.p.CutoffV)
	}
	b.prevBelow[i] = below

	// Thermal ceilings and rate.
	if s.CPUTempC > b.cfg.MaxCPUTempC {
		b.violate(KindThermalCeilingCPU, s, s.CPUTempC, b.cfg.MaxCPUTempC,
			"twin %d cpu %.2fC above ceiling %.2fC", i, s.CPUTempC, b.cfg.MaxCPUTempC)
	}
	if s.BatteryTempC > b.cfg.MaxBatteryTempC {
		b.violate(KindThermalCeilingBattery, s, s.BatteryTempC, b.cfg.MaxBatteryTempC,
			"twin %d battery %.2fC above ceiling %.2fC", i, s.BatteryTempC, b.cfg.MaxBatteryTempC)
	}
	if s.BodyTempC > b.cfg.MaxBodyTempC {
		b.violate(KindThermalCeilingBody, s, s.BodyTempC, b.cfg.MaxBodyTempC,
			"twin %d body %.2fC above ceiling %.2fC", i, s.BodyTempC, b.cfg.MaxBodyTempC)
	}
	if s.DT > 0 {
		lim := b.cfg.MaxTempRateCps * s.DT
		if d := abs(s.CPUTempC - b.prevCPUC[i]); d > lim {
			b.violate(KindThermalRate, s, d/s.DT, b.cfg.MaxTempRateCps,
				"twin %d cpu |dT/dt| %.2fC/s above %.2fC/s", i, d/s.DT, b.cfg.MaxTempRateCps)
		}
		if d := abs(s.BatteryTempC - b.prevBattC[i]); d > lim {
			b.violate(KindThermalRate, s, d/s.DT, b.cfg.MaxTempRateCps,
				"twin %d battery |dT/dt| %.2fC/s above %.2fC/s", i, d/s.DT, b.cfg.MaxTempRateCps)
		}
		if d := abs(s.BodyTempC - b.prevBodyC[i]); d > lim {
			b.violate(KindThermalRate, s, d/s.DT, b.cfg.MaxTempRateCps,
				"twin %d body |dT/dt| %.2fC/s above %.2fC/s", i, d/s.DT, b.cfg.MaxTempRateCps)
		}
	}

	// TEC actuation limits (twins carry no fault layer, so there is no
	// dropout contract here).
	if b.p.TECMaxCurrentA > 0 && s.TECCurrentA > b.p.TECMaxCurrentA+tol {
		b.violate(KindTECLimit, s, s.TECCurrentA, b.p.TECMaxCurrentA,
			"twin %d tec current %.3fA above rated %.3fA", i, s.TECCurrentA, b.p.TECMaxCurrentA)
	}
	if s.TECPowerW < -tol {
		b.violate(KindTECLimit, s, s.TECPowerW, 0,
			"twin %d negative tec power %.3fW", i, s.TECPowerW)
	}

	b.prevTotalC[i] = totalC
	b.prevCPUC[i] = s.CPUTempC
	b.prevBattC[i] = s.BatteryTempC
	b.prevBodyC[i] = s.BodyTempC
}
