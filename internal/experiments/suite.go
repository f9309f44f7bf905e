package experiments

import (
	"fmt"
	"io"
)

// Tabler is any experiment result that renders as a Table.
type Tabler interface {
	ToTable() *Table
}

// Runner executes one experiment.
type Runner struct {
	ID   string
	Desc string
	Run  func(Options) (Tabler, error)
}

// Suite lists every paper table and figure in presentation order. Fig13 and
// Fig14 reuse Fig12's CAPMAN runs when executed through RunAll; standalone
// invocation recomputes them.
func Suite() []Runner {
	return []Runner{
		{ID: "Fig1", Desc: "LMO vs NCA electron release under surge load",
			Run: func(o Options) (Tabler, error) { return Fig1(o) }},
		{ID: "Fig2a", Desc: "Discharge cycle by application and chemistry",
			Run: func(o Options) (Tabler, error) { return Fig2a(o) }},
		{ID: "Fig2b", Desc: "Screen on/off frequency sweep",
			Run: func(o Options) (Tabler, error) { return Fig2b(o) }},
		{ID: "Fig3", Desc: "V-edge transients and saving potential",
			Run: func(o Options) (Tabler, error) { return Fig3(o) }},
		{ID: "TableI", Desc: "Battery model table and Figure 4 radar",
			Run: func(o Options) (Tabler, error) { return TableI(o) }},
		{ID: "Fig6", Desc: "TEC dT vs operating current",
			Run: func(o Options) (Tabler, error) { return Fig6(o) }},
		{ID: "TableIII", Desc: "Average power of hardware states",
			Run: func(o Options) (Tabler, error) { return TableIII(o) }},
		{ID: "Fig9", Desc: "Battery switch control signal",
			Run: func(o Options) (Tabler, error) { return Fig9(o) }},
		{ID: "Fig12", Desc: "Service time per policy and workload",
			Run: func(o Options) (Tabler, error) { return Fig12(o) }},
		{ID: "Fig12Curves", Desc: "Discharge curve with fitted trend",
			Run: func(o Options) (Tabler, error) { return Fig12Curves(o) }},
		{ID: "Fig13", Desc: "Cooling and active power under CAPMAN",
			Run: func(o Options) (Tabler, error) { return Fig13(o, nil) }},
		{ID: "Fig14", Desc: "big.LITTLE ratio vs temperature reduction",
			Run: func(o Options) (Tabler, error) { return Fig14(o, nil) }},
		{ID: "Fig15", Desc: "CAPMAN snapshot across phones",
			Run: func(o Options) (Tabler, error) { return Fig15(o) }},
		{ID: "Fig16", Desc: "Discount factor vs scheduler overhead",
			Run: func(o Options) (Tabler, error) { return Fig16(o) }},
	}
}

// Format selects how results render.
type Format int

const (
	// Text renders aligned tables and, under curve-shaped results, ASCII
	// charts.
	Text Format = iota
	// Markdown renders markdown tables and no charts.
	Markdown
)

// RunAll executes the whole suite, rendering each result to w in format
// f. It shares the Figure 12 matrix with Figures 13 and 14 to avoid
// recomputing the expensive policy-by-workload sweep.
func RunAll(o Options, f Format, w io.Writer) error {
	var fig12 *Fig12Result
	for _, r := range Suite() {
		var (
			res Tabler
			err error
		)
		switch r.ID {
		case "Fig12":
			fig12, err = Fig12(o)
			res = fig12
		case "Fig13":
			res, err = Fig13(o, fig12)
		case "Fig14":
			res, err = Fig14(o, fig12)
		default:
			res, err = r.Run(o)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", r.ID, err)
		}
		if err := renderResult(res, f, w); err != nil {
			return fmt.Errorf("render %s: %w", r.ID, err)
		}
	}
	return nil
}

// RunOne executes a single paper or extension experiment by ID.
func RunOne(id string, o Options, f Format, w io.Writer) error {
	for _, r := range append(Suite(), Extensions()...) {
		if r.ID != id {
			continue
		}
		res, err := r.Run(o)
		if err != nil {
			return fmt.Errorf("%s: %w", r.ID, err)
		}
		return renderResult(res, f, w)
	}
	return fmt.Errorf("experiments: unknown experiment %q", id)
}

// renderResult writes the table in format f and, in text, the ASCII chart
// of a curve-shaped result underneath.
func renderResult(res Tabler, f Format, w io.Writer) error {
	if f == Markdown {
		return res.ToTable().RenderMarkdown(w)
	}
	if err := res.ToTable().Render(w); err != nil {
		return err
	}
	if p, ok := res.(Plotter); ok {
		if err := p.Plot().Render(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
