package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func quickOpts() Options { return Options{Quick: true, Seed: 42} }

func TestFig1Shape(t *testing.T) {
	res, err := Fig1(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("%d cells", len(res.Cells))
	}
	lmo, nca := res.Cells[0], res.Cells[1]
	if lmo.Chemistry != "LMO" || nca.Chemistry != "NCA" {
		t.Fatalf("cell order %v/%v", lmo.Chemistry, nca.Chemistry)
	}
	// The paper's Figure 1: LMO releases electrons faster — here, it
	// sustains the surge longer and delivers more charge.
	if lmo.SustainedS <= nca.SustainedS {
		t.Errorf("LMO sustained %.0fs <= NCA %.0fs", lmo.SustainedS, nca.SustainedS)
	}
	if lmo.DeliveredC <= nca.DeliveredC {
		t.Errorf("LMO delivered %.0fC <= NCA %.0fC", lmo.DeliveredC, nca.DeliveredC)
	}
	assertRenders(t, res.ToTable())
}

func TestFig2aShape(t *testing.T) {
	res, err := Fig2a(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	byApp := map[string]Fig2aRow{}
	for _, row := range res.Rows {
		byApp[row.App] = row
	}
	// Figure 2a: Idle favours LMO, Video favours NCA.
	if byApp["Idle"].Winner != "LMO" {
		t.Errorf("Idle winner %s, want LMO", byApp["Idle"].Winner)
	}
	if byApp["Video"].Winner != "NCA" {
		t.Errorf("Video winner %s, want NCA", byApp["Video"].Winner)
	}
	assertRenders(t, res.ToTable())
}

func TestFig2bShape(t *testing.T) {
	res, err := Fig2b(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 2 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	// Figure 2b: the NCA advantage shrinks as cycling frequency rises
	// (periods are listed slow to fast).
	slow := res.Rows[0].NCAAdvantage
	fast := res.Rows[len(res.Rows)-1].NCAAdvantage
	if slow <= 0 {
		t.Errorf("NCA should lead at slow cycling, advantage %.3f", slow)
	}
	if fast >= slow {
		t.Errorf("advantage should shrink with frequency: slow %.3f, fast %.3f", slow, fast)
	}
	assertRenders(t, res.ToTable())
}

func TestFig3Shape(t *testing.T) {
	res, err := Fig3(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	d1 := map[string]float64{}
	for _, row := range res.Rows {
		if row.Edge.MinV >= row.Edge.InitialV {
			t.Errorf("%s/%s: no V-edge drop", row.Scenario, row.Chem)
		}
		if row.Scenario == "VideoStream" {
			d1[row.Chem] = row.Edge.D1
		}
	}
	// The LITTLE chemistry minimises the transient loss D1.
	if d1["LMO"] >= d1["NCA"] {
		t.Errorf("LMO D1 %.3f should undercut NCA %.3f", d1["LMO"], d1["NCA"])
	}
	assertRenders(t, res.ToTable())
}

func TestTableIShape(t *testing.T) {
	res, err := TableI(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("%d chemistries", len(res.Rows))
	}
	classes := map[string]string{}
	for _, row := range res.Rows {
		classes[row.Chemistry] = row.Class.String()
		if len(row.Radar) != 5 {
			t.Errorf("%s radar has %d axes", row.Chemistry, len(row.Radar))
		}
	}
	if classes["NCA"] != "big" || classes["LMO"] != "LITTLE" {
		t.Errorf("classification %v", classes)
	}
	assertRenders(t, res.ToTable())
}

func TestFig6Shape(t *testing.T) {
	res, err := Fig6(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Peak near the rated ~1A current, interior to the sweep.
	if res.PeakA < 0.5 || res.PeakA > 1.5 {
		t.Errorf("peak at %.2fA, want near 1.0A", res.PeakA)
	}
	if res.PeakA == res.Points[0].CurrentA || res.PeakA == res.Points[len(res.Points)-1].CurrentA {
		t.Error("peak at the sweep boundary")
	}
	assertRenders(t, res.ToTable())
}

func TestTableIIIValues(t *testing.T) {
	res, err := TableIII(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"CPU/C0": 612, "CPU/C1": 462, "CPU/C2": 310, "CPU/SLEEP": 55,
		"Screen/ON": 790, "Screen/OFF": 22,
		"WiFi/IDLE": 60, "WiFi/ACCESS": 1284, "WiFi/SEND": 1548,
		"TEC/OFF": 0,
	}
	got := map[string]float64{}
	for _, row := range res.Rows {
		got[row.Hardware+"/"+row.Status] = row.PowerMW
	}
	for key, wantMW := range want {
		if gotMW, ok := got[key]; !ok || gotMW < wantMW-1 || gotMW > wantMW+1 {
			t.Errorf("%s = %.1f mW, want %.1f", key, gotMW, wantMW)
		}
	}
	assertRenders(t, res.ToTable())
}

// TestFig12Ordering is the expensive quick-scale end-to-end check of the
// evaluation's headline ordering.
func TestFig12Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick-scale policy matrix")
	}
	res, err := Fig12(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i, wl := range res.Workloads {
		row := res.ServiceS[i]
		oracle, capman, dual, practice := row[0], row[1], row[2], row[4]
		if capman <= practice {
			t.Errorf("%s: CAPMAN %.0fs <= Practice %.0fs", wl, capman, practice)
		}
		if capman < dual*0.97 {
			t.Errorf("%s: CAPMAN %.0fs clearly below Dual %.0fs", wl, capman, dual)
		}
		if capman > oracle*1.02 {
			t.Errorf("%s: CAPMAN %.0fs above Oracle %.0fs", wl, capman, oracle)
		}
	}
	// The accessor helpers agree with the matrix.
	if res.Service("Video", "CAPMAN") != res.ServiceS[2][1] {
		t.Error("Service accessor mismatch")
	}
	if res.Service("nope", "CAPMAN") != 0 || res.Service("Video", "nope") != 0 {
		t.Error("unknown lookups should return 0")
	}
	if g := res.Gain("Video", "Practice"); g <= 0 {
		t.Errorf("video gain over practice %.2f", g)
	}
	assertRenders(t, res.ToTable())

	// Fig13/Fig14 reuse the matrix.
	f13, err := Fig13(quickOpts(), res)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range f13.Rows {
		if row.MaxCPUTempC <= 25 || row.MaxCPUTempC > 60 {
			t.Errorf("%s: implausible max temperature %.1fC", row.Workload, row.MaxCPUTempC)
		}
		if row.AvgActiveW <= 0 || row.AvgActiveW > 4 {
			t.Errorf("%s: implausible active power %.2fW", row.Workload, row.AvgActiveW)
		}
	}
	assertRenders(t, f13.ToTable())

	f14, err := Fig14(quickOpts(), res)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range f14.Rows {
		if row.LittleRatio < 0 || row.LittleRatio > 1 {
			t.Errorf("%s: ratio %.2f", row.Workload, row.LittleRatio)
		}
		if row.Above45TECFrac > row.Above45NoTECFrac+0.01 {
			t.Errorf("%s: TEC increased hot-spot time (%.3f vs %.3f)",
				row.Workload, row.Above45TECFrac, row.Above45NoTECFrac)
		}
	}
	assertRenders(t, f14.ToTable())
}

func TestFig15AcrossPhones(t *testing.T) {
	if testing.Short() {
		t.Skip("three full quick-scale cycles")
	}
	res, err := Fig15(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d phones", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.ServiceS <= 0 || row.AvgActiveW <= 0 {
			t.Errorf("%s: empty snapshot %+v", row.Phone, row)
		}
		if row.MaxSampleW <= row.MinSampleW {
			t.Errorf("%s: no power dynamic range", row.Phone)
		}
	}
	assertRenders(t, res.ToTable())
}

func TestFig16OverheadGrowsWithRho(t *testing.T) {
	if testing.Short() {
		t.Skip("rho sweep")
	}
	res, err := Fig16(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 2 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if last.ValueIters <= first.ValueIters {
		t.Errorf("value iterations should grow with rho: %d -> %d",
			first.ValueIters, last.ValueIters)
	}
	assertRenders(t, res.ToTable())
}

func TestSuiteCoversEveryExperiment(t *testing.T) {
	want := []string{"Fig1", "Fig2a", "Fig2b", "Fig3", "TableI", "Fig6",
		"TableIII", "Fig9", "Fig12", "Fig12Curves", "Fig13", "Fig14", "Fig15", "Fig16"}
	suite := Suite()
	if len(suite) != len(want) {
		t.Fatalf("suite has %d runners, want %d", len(suite), len(want))
	}
	for i, id := range want {
		if suite[i].ID != id {
			t.Errorf("runner %d = %s, want %s", i, suite[i].ID, id)
		}
		if suite[i].Desc == "" || suite[i].Run == nil {
			t.Errorf("runner %s incomplete", id)
		}
	}
}

func TestRunOneUnknown(t *testing.T) {
	var buf bytes.Buffer
	if err := RunOne("Fig99", quickOpts(), Text, &buf); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunOneRendersQuick(t *testing.T) {
	var buf bytes.Buffer
	if err := RunOne("Fig6", quickOpts(), Text, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Fig6") {
		t.Errorf("output missing header: %q", buf.String())
	}
}

// assertRenders checks a table renders with aligned header and rows.
func assertRenders(t *testing.T, tab *Table) {
	t.Helper()
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatalf("render %s: %v", tab.ID, err)
	}
	out := buf.String()
	if !strings.Contains(out, tab.ID) || len(tab.Rows) == 0 {
		head := out
		if len(head) > 80 {
			head = head[:80]
		}
		t.Errorf("table %s rendered %d rows: %q", tab.ID, len(tab.Rows), head)
	}
}

func TestRenderMarkdown(t *testing.T) {
	res, err := TableI(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.ToTable().RenderMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"### TableI/Fig4", "| battery |", "| --- |", "| LiMn2O4(LMO) |"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}

// TestMarkdownFormat: the Markdown format reaches paper experiments and
// extension studies alike (capman-bench -format md with -run or -ext).
func TestMarkdownFormat(t *testing.T) {
	for _, id := range []string{"TableI", "AblSolver"} {
		var buf bytes.Buffer
		if err := RunOne(id, quickOpts(), Markdown, &buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "| --- |") {
			t.Errorf("%s: markdown format not applied:\n%s", id, buf.String())
		}
	}
}
