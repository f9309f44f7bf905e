package battery

import (
	"errors"
	"fmt"
)

// Source abstracts the power supply the simulation drains: either a
// big.LITTLE Pack or a conventional single cell (the paper's "Practice"
// baseline phone).
type Source interface {
	// Step serves powerW for dt seconds at temperature tempC.
	Step(powerW, tempC, dt float64) (PackStep, error)
	// Select requests the active cell; single-cell sources ignore it.
	Select(sel Selection) bool
	// Active returns the currently selected cell.
	Active() Selection
	// CellState summarises the named cell.
	CellState(sel Selection) CellState
	// CanSupply reports whether any cell could serve powerW.
	CanSupply(powerW, tempC float64) bool
	// CanSupplyCell reports whether the named cell could serve powerW.
	CanSupplyCell(sel Selection, powerW, tempC float64) bool
	// Exhausted reports whether no cell can serve load any more.
	Exhausted() bool
	// RemainingJ estimates the remaining deliverable energy.
	RemainingJ() float64
	// Switches returns the number of battery flips performed.
	Switches() int
	// ActiveTime returns per-cell selected time in seconds.
	ActiveTime() (big, little float64)
}

// CellState is an observational summary of one cell.
type CellState struct {
	SoC       float64
	AvailSoC  float64
	VoltageV  float64
	Depleted  bool
	WastedJ   float64
	DrawnJ    float64
	Chemistry Chemistry
}

// Compile-time interface checks.
var (
	_ Source = (*Pack)(nil)
	_ Source = (*SingleSource)(nil)
)

// CellState implements Source for Pack.
func (p *Pack) CellState(sel Selection) CellState {
	c := p.Cell(sel)
	return CellState{
		SoC:       c.SoC(),
		AvailSoC:  c.AvailableSoC(),
		VoltageV:  c.Voltage(),
		Depleted:  c.Depleted(),
		WastedJ:   c.WastedJ(),
		DrawnJ:    c.DrawnJ(),
		Chemistry: c.params.Chemistry,
	}
}

// SingleSource adapts one Cell to the Source interface: the stock
// single-battery phone of the Practice baseline.
type SingleSource struct {
	cell    *Cell
	activeS float64
}

// NewSingleSource builds the source from cell parameters.
func NewSingleSource(p Params) (*SingleSource, error) {
	c, err := NewCell(p)
	if err != nil {
		return nil, fmt.Errorf("single source: %w", err)
	}
	return &SingleSource{cell: c}, nil
}

// Cell exposes the underlying cell for observation.
func (s *SingleSource) Cell() *Cell { return s.cell }

// Step implements Source.
func (s *SingleSource) Step(powerW, tempC, dt float64) (PackStep, error) {
	if s.cell.Depleted() && powerW > 0 {
		return PackStep{}, fmt.Errorf("step %.2fW: %w", powerW, ErrExhausted)
	}
	res, err := s.cell.Step(powerW, tempC, dt)
	if err != nil {
		if errors.Is(err, ErrDepleted) || errors.Is(err, ErrCannotSupply) {
			return PackStep{}, fmt.Errorf("step %.2fW: %w", powerW, err)
		}
		return PackStep{}, err
	}
	s.activeS += dt
	return PackStep{Active: SelectBig, Cell: res, HeatW: res.HeatW, Delivered: true}, nil
}

// Select implements Source; a single cell has nothing to switch.
func (s *SingleSource) Select(Selection) bool { return false }

// Active implements Source.
func (s *SingleSource) Active() Selection { return SelectBig }

// CellState implements Source; both selections report the only cell.
func (s *SingleSource) CellState(Selection) CellState {
	return CellState{
		SoC:       s.cell.SoC(),
		AvailSoC:  s.cell.AvailableSoC(),
		VoltageV:  s.cell.Voltage(),
		Depleted:  s.cell.Depleted(),
		WastedJ:   s.cell.WastedJ(),
		DrawnJ:    s.cell.DrawnJ(),
		Chemistry: s.cell.params.Chemistry,
	}
}

// CanSupply implements Source.
func (s *SingleSource) CanSupply(powerW, tempC float64) bool {
	return s.cell.CanSupply(powerW, tempC)
}

// CanSupplyCell implements Source; both selections name the only cell.
func (s *SingleSource) CanSupplyCell(_ Selection, powerW, tempC float64) bool {
	return s.cell.CanSupply(powerW, tempC)
}

// Exhausted implements Source.
func (s *SingleSource) Exhausted() bool { return s.cell.Depleted() }

// RemainingJ implements Source.
func (s *SingleSource) RemainingJ() float64 { return s.cell.RemainingJ() }

// Switches implements Source.
func (s *SingleSource) Switches() int { return 0 }

// ActiveTime implements Source.
func (s *SingleSource) ActiveTime() (big, little float64) { return s.activeS, 0 }
