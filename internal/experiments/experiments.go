// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V) plus the motivation measurements of Section II.
// Each experiment returns a typed result with a ToTable rendering; the
// cmd/capman-bench tool and the repository's benchmark suite both drive
// these runners, and EXPERIMENTS.md records their output against the
// paper's numbers.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/battery"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/tec"
	"repro/internal/workload"
)

// Options tunes experiment scale.
type Options struct {
	// Quick shrinks battery capacity and sweep sizes so the whole suite
	// runs in seconds (used by tests); full scale reproduces the paper's
	// discharge-cycle magnitudes.
	Quick bool
	// Seed drives all workload generators.
	Seed int64
}

// CapacityMAh returns the per-cell capacity for this scale.
func (o Options) CapacityMAh() float64 {
	if o.Quick {
		return 500
	}
	return 2500
}

// dt returns the simulation step.
func (o Options) dt() float64 {
	if o.Quick {
		return 0.25
	}
	return 0.25
}

// seed returns a non-zero seed.
func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 42
	}
	return o.Seed
}

// packConfig builds the standard NCA+LMO pack at this scale.
func (o Options) packConfig() battery.PackConfig {
	cfg := battery.DefaultPackConfig()
	cfg.Big = battery.MustParams(battery.NCA, o.CapacityMAh())
	cfg.Little = battery.MustParams(battery.LMO, o.CapacityMAh())
	return cfg
}

// capmanConfig scales CAPMAN's learning clocks to the discharge length.
func (o Options) capmanConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = o.seed()
	if o.Quick {
		cfg.RefreshIntervalS = 15
		cfg.ExploreHalfLifeS = 120
	}
	return cfg
}

// Table is a rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		return strings.Join(parts, "  ")
	}
	if _, err := fmt.Fprintln(w, line(t.Header)); err != nil {
		return err
	}
	total := len(widths) - 1
	for _, wd := range widths {
		total += wd + 1
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", max(total, 8))); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// RenderMarkdown writes the table as GitHub-flavoured markdown, the format
// EXPERIMENTS.md records.
func (t *Table) RenderMarkdown(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "### %s — %s\n\n", t.ID, t.Title); err != nil {
		return err
	}
	row := func(cells []string) string {
		return "| " + strings.Join(cells, " | ") + " |"
	}
	if _, err := fmt.Fprintln(w, row(t.Header)); err != nil {
		return err
	}
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	if _, err := fmt.Fprintln(w, row(sep)); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if _, err := fmt.Fprintln(w, row(r)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "\n> %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// policyFactory builds a fresh policy per run so state never leaks between
// discharge cycles.
type policyFactory struct {
	name  string
	build func() (sched.Policy, error)
}

// standardPolicies returns the evaluation's policy set minus Oracle (which
// needs per-configuration offline tuning) and minus Practice (which runs on
// a different source).
func (o Options) standardPolicies() []policyFactory {
	return []policyFactory{
		{name: "CAPMAN", build: func() (sched.Policy, error) { return core.New(o.capmanConfig()) }},
		{name: "Dual", build: func() (sched.Policy, error) { return sched.NewDual(), nil }},
		{name: "Heuristic", build: func() (sched.Policy, error) { return sched.NewHeuristic(), nil }},
	}
}

// namedWorkload is one evaluation workload: its Figure 12 label and a
// factory of fresh generators.
type namedWorkload struct {
	Name string
	New  func() workload.Generator
}

// workloadFactories returns the six evaluation workloads of Figure 12.
func (o Options) workloadFactories() ([]namedWorkload, error) {
	seed := o.seed()
	wls := []namedWorkload{
		{Name: "Geekbench", New: func() workload.Generator { return workload.NewGeekbench(seed) }},
		{Name: "PCMark", New: func() workload.Generator { return workload.NewPCMark(seed + 10) }},
		{Name: "Video", New: func() workload.Generator { return workload.NewVideo(seed + 20) }},
	}
	for i, eta := range []float64{0.2, 0.5, 0.8} {
		wl, err := etaStatic(eta, seed+30+10*int64(i))
		if err != nil {
			return nil, err
		}
		wls = append(wls, namedWorkload{Name: wl().Name(), New: wl})
	}
	return wls, nil
}

// etaStatic is the η-static mix at the given PCMark fraction and seed.
func etaStatic(eta float64, seed int64) (func() workload.Generator, error) {
	return workload.Fresh(func() (workload.Generator, error) { return workload.NewEtaStatic(eta, seed) })
}

// eta50 is the Eta-50% mix of Figure 15 and the extension studies, on
// the seed Figure 12 gives it.
func (o Options) eta50() (func() workload.Generator, error) { return etaStatic(0.5, o.seed()+40) }

// suiteInvariants is the safety-invariant envelope every experiment runs
// under: a violation anywhere in the suite means the physics engine broke,
// not that a figure shifted.
var suiteInvariants = invariant.DefaultConfig()

// baseSimConfig assembles the standard Nexus + pack + TEC configuration.
func (o Options) baseSimConfig(wl func() workload.Generator, p sched.Policy) sim.Config {
	dev := tec.ATE31()
	return sim.Config{
		Profile:      device.Nexus(),
		Workload:     wl,
		Policy:       p,
		Pack:         o.packConfig(),
		TEC:          &dev,
		DT:           o.dt(),
		SampleEveryS: 30,
		Invariants:   &suiteInvariants,
	}
}

// capmanPolicy builds a fresh CAPMAN scheduler at this scale.
func (o Options) capmanPolicy() (sched.Policy, error) { return core.New(o.capmanConfig()) }

// newCapman builds a scheduler whose Stats the caller wants to inspect.
func newCapman(cfg core.Config) (*core.Scheduler, error) { return core.New(cfg) }

// timeDecisions attaches a decision-latency histogram to cfg: the sim
// engine times every Policy.Decide call into it.
func timeDecisions(cfg *sim.Config) *obs.Histogram {
	h := obs.MustHistogram(obs.LatencyBuckets()...)
	cfg.Metrics = &sim.MetricsSink{DecisionLatency: h}
	return h
}

// decisionMicros is the mean decision latency in h, in microseconds,
// scaled by the phone's decision-overhead factor (core.Config's
// OverheadScale); zero before any decision.
func decisionMicros(h *obs.Histogram, overheadScale float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n) * overheadScale * 1e6
}

// practiceConfig assembles the single-battery original-phone baseline: one
// LCO cell at the same per-cell capacity, no TEC, no switch facility.
func (o Options) practiceConfig(wl func() workload.Generator) sim.Config {
	single := battery.MustParams(battery.LCO, o.CapacityMAh())
	return sim.Config{
		Profile:    device.Nexus(),
		Workload:   wl,
		Policy:     sched.NewSingle(),
		Single:     &single,
		DT:         o.dt(),
		Invariants: &suiteInvariants,
	}
}
