package battery

import (
	"errors"
	"fmt"
)

// SwitchConfig describes the physical cost of the switch facility (the
// LM339AD comparator + MOS pair of the paper's Figure 11). Each flip costs
// energy and injects heat near the battery, and the switch cannot flip
// faster than its latency.
type SwitchConfig struct {
	// FlipEnergyJ is the energy dissipated per battery switch.
	FlipEnergyJ float64
	// FlipHeatFraction of FlipEnergyJ becomes local heat (the rest is
	// radiated by the supercapacitor filter).
	FlipHeatFraction float64
	// LatencyS is the minimum interval between flips. The paper's
	// oscillator supports millisecond-scale switching.
	LatencyS float64
}

// DefaultSwitchConfig mirrors the prototype: millisecond switching with a
// small per-flip loss.
func DefaultSwitchConfig() SwitchConfig {
	return SwitchConfig{FlipEnergyJ: 0.05, FlipHeatFraction: 0.8, LatencyS: 0.002}
}

// PackConfig assembles a big.LITTLE pack.
type PackConfig struct {
	Big    Params
	Little Params
	Switch SwitchConfig
	// Supercap optionally filters the LITTLE rail (Figure 10). Nil
	// disables it.
	Supercap *SupercapConfig
	// Initial selects the cell that starts active; zero means big.
	Initial Selection
}

// DefaultPackConfig returns the paper's setup: a 2500 mAh NCA big cell and a
// 2500 mAh LMO LITTLE cell behind the default switch facility with a
// supercapacitor on the LITTLE rail.
func DefaultPackConfig() PackConfig {
	sc := DefaultSupercapConfig()
	return PackConfig{
		Big:      MustParams(NCA, 2500),
		Little:   MustParams(LMO, 2500),
		Switch:   DefaultSwitchConfig(),
		Supercap: &sc,
		Initial:  SelectBig,
	}
}

// Pack is a big.LITTLE battery pack with a switch facility. A Pack is not
// safe for concurrent use.
type Pack struct {
	big    *Cell
	little *Cell
	cfg    PackConfig

	active      Selection
	now         float64 // pack-local clock, seconds
	lastFlipAt  float64
	switchCount int
	switchLossJ float64
	supercap    *Supercap

	bigActiveS    float64
	littleActiveS float64
	signal        []SignalEdge
	gate          SwitchGate
}

// SwitchGate vets a flip that is otherwise about to happen: it is called
// after every internal check (latency, depletion) has passed, so returning
// false is exactly one denied flip — the physical switch failing to
// acknowledge the control edge. forced marks the pack's internal emergency
// fallback, which a truly stuck switch must also deny. A nil gate allows
// everything; the fault layer installs one to inject actuator failures.
type SwitchGate func(now float64, to Selection, forced bool) bool

// SignalEdge records one battery-switch control edge (the paper's Figure 9
// signal trace).
type SignalEdge struct {
	At float64   // seconds since pack creation
	To Selection // selection after the edge
}

// ErrExhausted reports that both cells are depleted.
var ErrExhausted = errors.New("battery: pack exhausted")

// NewPack builds a pack from the configuration.
func NewPack(cfg PackConfig) (*Pack, error) {
	big, err := NewCell(cfg.Big)
	if err != nil {
		return nil, fmt.Errorf("big cell: %w", err)
	}
	little, err := NewCell(cfg.Little)
	if err != nil {
		return nil, fmt.Errorf("LITTLE cell: %w", err)
	}
	p := &Pack{big: big, little: little, cfg: cfg, active: cfg.Initial, lastFlipAt: -1e18}
	if p.active != SelectBig && p.active != SelectLittle {
		p.active = SelectBig
	}
	if cfg.Supercap != nil {
		sc, err := NewSupercap(*cfg.Supercap)
		if err != nil {
			return nil, fmt.Errorf("supercap: %w", err)
		}
		p.supercap = sc
	}
	return p, nil
}

// Active returns the currently selected cell.
func (p *Pack) Active() Selection { return p.active }

// SetSwitchGate installs (or clears, with nil) the flip gate.
func (p *Pack) SetSwitchGate(g SwitchGate) { p.gate = g }

// Cell returns the named cell for observation.
func (p *Pack) Cell(sel Selection) *Cell {
	if sel == SelectLittle {
		return p.little
	}
	return p.big
}

// Switches returns the number of battery flips performed.
func (p *Pack) Switches() int { return p.switchCount }

// SwitchLossJ returns the cumulative energy dissipated by flips.
func (p *Pack) SwitchLossJ() float64 { return p.switchLossJ }

// Signal returns a copy of the recorded switch-signal edges.
func (p *Pack) Signal() []SignalEdge {
	out := make([]SignalEdge, len(p.signal))
	copy(out, p.signal)
	return out
}

// ActiveTime returns the cumulative seconds each cell has been selected.
func (p *Pack) ActiveTime() (big, little float64) {
	return p.bigActiveS, p.littleActiveS
}

// Exhausted reports whether both cells are depleted.
func (p *Pack) Exhausted() bool { return p.big.Depleted() && p.little.Depleted() }

// TotalSoC returns the charge-weighted state of charge of the whole pack.
func (p *Pack) TotalSoC() float64 {
	cb := p.big.usableCapacity()
	cl := p.little.usableCapacity()
	if cb+cl <= 0 {
		return 0
	}
	return (p.big.SoC()*cb + p.little.SoC()*cl) / (cb + cl)
}

// Select requests that the pack switch to sel. It returns true when a flip
// actually happened. Flips are rate-limited by the switch latency and are
// refused toward a depleted cell.
func (p *Pack) Select(sel Selection) bool { return p.selectCell(sel, false) }

// selectCell performs the flip; force bypasses the latency limit (the
// pack's internal emergency fallback when the active cell collapses
// mid-step — physically the comparator flips within the same oscillator
// window).
func (p *Pack) selectCell(sel Selection, force bool) bool {
	if sel != SelectBig && sel != SelectLittle {
		return false
	}
	if sel == p.active {
		return false
	}
	if p.Cell(sel).Depleted() {
		return false
	}
	if !force && p.now-p.lastFlipAt < p.cfg.Switch.LatencyS {
		return false
	}
	if p.gate != nil && !p.gate(p.now, sel, force) {
		return false
	}
	p.active = sel
	p.switchCount++
	p.switchLossJ += p.cfg.Switch.FlipEnergyJ
	p.lastFlipAt = p.now
	p.signal = append(p.signal, SignalEdge{At: p.now, To: sel})
	return true
}

// PackStep reports the outcome of one pack step.
type PackStep struct {
	Active    Selection
	Cell      StepResult
	HeatW     float64 // total pack heat: active cell + idle parasitic + flips
	Delivered bool    // false when the demand could not be served
	Fallback  bool    // true when the pack auto-switched to the other cell
}

// Step serves powerW for dt seconds from the active cell while the idle
// cell rests (leaking and recovering). If the active cell cannot serve the
// demand, the pack automatically falls back to the other cell; only when
// neither can serve does it return an error wrapping ErrExhausted or
// ErrCannotSupply.
func (p *Pack) Step(powerW, tempC, dt float64) (PackStep, error) {
	if p.Exhausted() && powerW > 0 {
		return PackStep{}, fmt.Errorf("step %.2fW: %w", powerW, ErrExhausted)
	}
	defer func() { p.now += dt }()

	// Supercapacitor smoothing on the LITTLE rail: surge demand above the
	// smoothing threshold is partly served from the buffer.
	effective := powerW
	var scHeat float64
	if p.supercap != nil && p.active == SelectLittle {
		effective, scHeat = p.supercap.Filter(powerW, dt)
	} else if p.supercap != nil {
		p.supercap.Recharge(dt)
	}

	arrhBig, arrhLittle := p.arrhenius(tempC)
	arrh := func(sel Selection) float64 {
		if sel == SelectLittle {
			return arrhLittle
		}
		return arrhBig
	}
	res, err := p.Cell(p.active).step(effective, tempC, dt, arrh(p.active))
	fallback := false
	if err != nil {
		other := p.active.Other()
		if p.Cell(other).CanSupply(effective, tempC) && p.selectCell(other, true) {
			res, err = p.Cell(p.active).step(effective, tempC, dt, arrh(p.active))
			fallback = err == nil
		}
	}
	if err != nil {
		return PackStep{}, fmt.Errorf("step %.2fW on %v: %w", powerW, p.active, err)
	}

	// Idle cell rests.
	idle := p.active.Other()
	if _, err := p.Cell(idle).step(0, tempC, dt, arrh(idle)); err != nil && !errors.Is(err, ErrDepleted) {
		return PackStep{}, fmt.Errorf("rest %v: %w", idle, err)
	}

	switch p.active {
	case SelectBig:
		p.bigActiveS += dt
	case SelectLittle:
		p.littleActiveS += dt
	}

	heat := res.HeatW + scHeat + p.flipHeatW(dt)
	return PackStep{Active: p.active, Cell: res, HeatW: heat, Delivered: true, Fallback: fallback}, nil
}

// arrhenius returns the parasitic-drain Arrhenius factors of the big and
// LITTLE cells at tempC. Both cells sit at the one battery temperature, so
// when they share a doubling interval (every calibrated chemistry does)
// the factor is computed once for both.
func (p *Pack) arrhenius(tempC float64) (big, little float64) {
	bp, lp := &p.big.params, &p.little.params
	if bp.ParasiticDoubleC == lp.ParasiticDoubleC && (bp.ParasiticW != 0 || lp.ParasiticW != 0) {
		f := arrheniusAt(bp.ParasiticDoubleC, tempC)
		return f, f
	}
	return bp.arrhenius(tempC), lp.arrhenius(tempC)
}

// flipHeatW converts a flip that happened at the current pack time (Select
// stamps flips at p.now, and Step runs before advancing the clock) into an
// average heat rate over the step.
func (p *Pack) flipHeatW(dt float64) float64 {
	if p.lastFlipAt != p.now {
		return 0
	}
	return p.cfg.Switch.FlipEnergyJ * p.cfg.Switch.FlipHeatFraction / dt
}

// CanSupply reports whether any cell in the pack could serve powerW.
func (p *Pack) CanSupply(powerW, tempC float64) bool {
	return p.big.CanSupply(powerW, tempC) || p.little.CanSupply(powerW, tempC)
}

// CanSupplyCell reports whether the named cell could serve powerW.
func (p *Pack) CanSupplyCell(sel Selection, powerW, tempC float64) bool {
	return p.Cell(sel).CanSupply(powerW, tempC)
}

// RemainingJ returns the estimated remaining energy across both cells.
func (p *Pack) RemainingJ() float64 {
	return p.big.RemainingJ() + p.little.RemainingJ()
}
