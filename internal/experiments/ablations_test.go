package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestAblationCAPMANQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("six quick-scale cycles")
	}
	res, err := AblationCAPMAN(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("%d variants", len(res.Rows))
	}
	var full, noSim *AblationRow
	for i := range res.Rows {
		row := &res.Rows[i]
		if row.ServiceS <= 0 {
			t.Errorf("%s: no service time", row.Variant)
		}
		switch row.Variant {
		case "full":
			full = row
		case "no-similarity":
			noSim = row
		}
	}
	if full == nil || noSim == nil {
		t.Fatal("missing variants")
	}
	// Removing the similarity index must not change outcomes drastically
	// (it is an acceleration structure), and it removes Algorithm 1 from
	// the decision path.
	if noSim.ServiceS < full.ServiceS*0.9 {
		t.Errorf("no-similarity collapsed service time: %.0f vs %.0f",
			noSim.ServiceS, full.ServiceS)
	}
	if noSim.DecisionMicros >= full.DecisionMicros {
		t.Errorf("dropping the similarity refresh should cut decision cost: %.1f vs %.1f us",
			noSim.DecisionMicros, full.DecisionMicros)
	}
	assertRenders(t, res.ToTable())
}

func TestAblationSwitchCostQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("flip sweep")
	}
	res, err := AblationSwitchCost(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	free := res.Rows[0]
	costly := res.Rows[len(res.Rows)-1]
	// Expensive flips cannot make the system live longer than free flips
	// by more than noise, and the rate limiter plus flip losses should
	// not increase the switch count.
	if costly.ServiceS > free.ServiceS*1.05 {
		t.Errorf("expensive flips extended service: %.0f vs %.0f", costly.ServiceS, free.ServiceS)
	}
	assertRenders(t, res.ToTable())
}

func TestAblationSupercapQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("two cycles")
	}
	res, err := AblationSupercap(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	assertRenders(t, res.ToTable())
}

func TestAblationSolverQuick(t *testing.T) {
	res, err := AblationSolver(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("%d solvers", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.WallMicros < 0 || row.Iterations <= 0 {
			t.Errorf("%s: %+v", row.Solver, row)
		}
		// Both solvers must reach a consistent fixed point.
		if row.Residual > 1e-4 {
			t.Errorf("%s residual %v", row.Solver, row.Residual)
		}
	}
	assertRenders(t, res.ToTable())
}

func TestPairStudyQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("pairing sweep")
	}
	res, err := PairStudy(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 { // 2 bigs x 2 littles in quick mode
		t.Fatalf("%d pairs", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.ServiceS <= 0 {
			t.Errorf("%v+%v: no service time", row.Big, row.Little)
		}
		if row.Ratio < 0 || row.Ratio > 1 {
			t.Errorf("%v+%v: ratio %v", row.Big, row.Little, row.Ratio)
		}
	}
	assertRenders(t, res.ToTable())
}

func TestExtensionsList(t *testing.T) {
	ids := map[string]bool{}
	for _, r := range Extensions() {
		if r.ID == "" || r.Desc == "" || r.Run == nil {
			t.Errorf("incomplete extension %+v", r.ID)
		}
		if ids[r.ID] {
			t.Errorf("duplicate extension %s", r.ID)
		}
		ids[r.ID] = true
	}
	if len(ids) != 7 {
		t.Errorf("%d extensions", len(ids))
	}
}

func TestRunExtensionsQuickSolverOnly(t *testing.T) {
	// Run the cheapest extension through the generic path.
	var buf bytes.Buffer
	for _, r := range Extensions() {
		if r.ID != "AblSolver" {
			continue
		}
		res, err := r.Run(quickOpts())
		if err != nil {
			t.Fatal(err)
		}
		if err := res.ToTable().Render(&buf); err != nil {
			t.Fatal(err)
		}
	}
	if buf.Len() == 0 {
		t.Error("no output")
	}
}

// TestRunExtensionsMarkdown: capman-bench -ext -format md renders every
// extension study as a markdown table.
func TestRunExtensionsMarkdown(t *testing.T) {
	if testing.Short() {
		t.Skip("every extension study at quick scale")
	}
	var buf bytes.Buffer
	if err := RunExtensions(quickOpts(), Markdown, &buf); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Count(buf.String(), "\n| --- |"), len(Extensions()); got != want {
		t.Errorf("%d markdown header rows for %d studies:\n%s", got, want, buf.String())
	}
}

func TestAmbientSweepQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("two cycles")
	}
	res, err := AmbientSweep(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("%d ambients", len(res.Rows))
	}
	cool, hot := res.Rows[0], res.Rows[1]
	if hot.ServiceS >= cool.ServiceS {
		t.Errorf("hot ambient should shorten service: %.0f vs %.0f", hot.ServiceS, cool.ServiceS)
	}
	if hot.TECOnFrac <= cool.TECOnFrac {
		t.Errorf("hot ambient should demand more cooling: %.2f vs %.2f", hot.TECOnFrac, cool.TECOnFrac)
	}
	assertRenders(t, res.ToTable())
}

func TestSeedStudyQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	res, err := SeedStudy(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]SeedRow{}
	for _, row := range res.Rows {
		if row.Seeds < 3 || row.MeanS <= 0 {
			t.Errorf("%s: %+v", row.Policy, row)
		}
		byName[row.Policy] = row
	}
	// The headline ordering must survive seed noise on the means.
	if byName["CAPMAN"].MeanS <= byName["Dual"].MeanS {
		t.Errorf("CAPMAN mean %.0f below Dual %.0f", byName["CAPMAN"].MeanS, byName["Dual"].MeanS)
	}
	assertRenders(t, res.ToTable())
}
