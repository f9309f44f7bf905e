package workload

import (
	"strings"
	"testing"

	"repro/internal/device"
)

// allGenerators builds one of each generator with a fixed seed.
func allGenerators(t *testing.T) []Generator {
	t.Helper()
	eta, err := NewEtaStatic(0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	onoff, err := NewOnOff(30, 7)
	if err != nil {
		t.Fatal(err)
	}
	return []Generator{
		NewIdle(7), NewGeekbench(7), NewPCMark(7), NewVideo(7),
		NewSteadyVideo(7), eta, onoff,
	}
}

func TestActionStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range Actions() {
		s := a.String()
		if strings.HasPrefix(s, "Action(") {
			t.Errorf("action %d has no name", a)
		}
		if seen[s] {
			t.Errorf("duplicate action name %q", s)
		}
		seen[s] = true
	}
	if len(Actions()) != NumActions {
		t.Errorf("Actions() returned %d, NumActions %d", len(Actions()), NumActions)
	}
	if got := Action(999).String(); got != "Action(999)" {
		t.Errorf("unknown action string %q", got)
	}
}

// TestGeneratorDemandsValid: every generator produces demands the phone
// accepts for a full simulated hour.
func TestGeneratorDemandsValid(t *testing.T) {
	phone, err := device.NewPhone(device.Nexus())
	if err != nil {
		t.Fatal(err)
	}
	const dt = 0.25
	for _, g := range allGenerators(t) {
		for now := 0.0; now < 3600; now += dt {
			s := g.Next(now, dt)
			if err := phone.Apply(s.Demand); err != nil {
				t.Fatalf("%s at %.2fs: %v", g.Name(), now, err)
			}
			if s.Action < ActNone || int(s.Action) > NumActions {
				t.Fatalf("%s at %.2fs: action %d out of vocabulary", g.Name(), now, s.Action)
			}
		}
	}
}

// TestGeneratorDeterminism: the same seed reproduces the same stream.
func TestGeneratorDeterminism(t *testing.T) {
	build := func() []Generator {
		eta, err := NewEtaStatic(0.5, 7)
		if err != nil {
			t.Fatal(err)
		}
		onoff, err := NewOnOff(30, 7)
		if err != nil {
			t.Fatal(err)
		}
		return []Generator{NewIdle(7), NewGeekbench(7), NewPCMark(7), NewVideo(7), eta, onoff}
	}
	a, b := build(), build()
	const dt = 0.25
	for i := range a {
		for now := 0.0; now < 600; now += dt {
			sa := a[i].Next(now, dt)
			sb := b[i].Next(now, dt)
			if sa != sb {
				t.Fatalf("%s diverged at %.2fs: %+v vs %+v", a[i].Name(), now, sa, sb)
			}
		}
	}
}

// TestFresh: Fresh reports an invalid parameter once, up front, and a
// valid factory hands out a new generator per call, each replaying the
// seed's stream from the start.
func TestFresh(t *testing.T) {
	if _, err := Fresh(func() (Generator, error) { return NewOnOff(0, 1) }); err == nil {
		t.Error("zero on/off period accepted")
	}
	wl, err := Fresh(func() (Generator, error) { return NewEtaStatic(0.5, 7) })
	if err != nil {
		t.Fatal(err)
	}
	a := wl()
	first := a.Next(0, 0.25)
	a.Next(0.25, 0.25)
	b := wl()
	if a == b {
		t.Fatal("factory returned the same generator twice")
	}
	if got := b.Next(0, 0.25); got != first {
		t.Errorf("second generator starts at %+v, want %+v", got, first)
	}
}

func TestGeneratorNames(t *testing.T) {
	names := map[string]bool{}
	for _, g := range allGenerators(t) {
		n := g.Name()
		if n == "" || names[n] {
			t.Errorf("bad or duplicate generator name %q", n)
		}
		names[n] = true
	}
	eta, err := NewEtaStatic(0.8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if eta.Name() != "Eta-80%" {
		t.Errorf("eta name %q", eta.Name())
	}
	if eta.Eta() != 0.8 {
		t.Errorf("eta fraction %v", eta.Eta())
	}
}

func TestEtaStaticValidation(t *testing.T) {
	if _, err := NewEtaStatic(-0.1, 1); err == nil {
		t.Error("negative eta accepted")
	}
	if _, err := NewEtaStatic(1.1, 1); err == nil {
		t.Error("eta above one accepted")
	}
}

func TestOnOffValidation(t *testing.T) {
	if _, err := NewOnOff(0, 1); err == nil {
		t.Error("zero period accepted")
	}
}

// TestOnOffDutyCycle: the cycler spends roughly half its time asleep.
func TestOnOffDutyCycle(t *testing.T) {
	g, err := NewOnOff(60, 3)
	if err != nil {
		t.Fatal(err)
	}
	const dt = 0.25
	var asleep, total int
	for now := 0.0; now < 3600; now += dt {
		s := g.Next(now, dt)
		if s.Demand.Screen == device.ScreenOff {
			asleep++
		}
		total++
	}
	frac := float64(asleep) / float64(total)
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("asleep fraction %.2f, want ~0.5", frac)
	}
}

// TestOnOffWakeEvents: each cycle produces exactly one wake and one sleep
// action.
func TestOnOffWakeEvents(t *testing.T) {
	g, err := NewOnOff(20, 3)
	if err != nil {
		t.Fatal(err)
	}
	const dt = 0.25
	wakes, sleeps := 0, 0
	for now := 0.0; now < 2000; now += dt {
		switch g.Next(now, dt).Action {
		case ActWake:
			wakes++
		case ActSleep:
			sleeps++
		}
	}
	// 2000s / 20s = 100 cycles.
	if wakes < 95 || wakes > 105 || sleeps < 95 || sleeps > 105 {
		t.Errorf("wakes %d sleeps %d, want ~100 each", wakes, sleeps)
	}
}

// TestVideoHasFetchesAndSpikes: the evaluation Video workload exercises the
// radio regularly and spikes occasionally; the steady variant never spikes.
func TestVideoHasFetchesAndSpikes(t *testing.T) {
	count := func(g Generator) (sends, peaks int) {
		const dt = 0.25
		for now := 0.0; now < 3600; now += dt {
			s := g.Next(now, dt)
			if s.Demand.WiFi == device.WiFiSend {
				sends++
				if s.Demand.PacketRate > 2000 {
					peaks++
				}
			}
		}
		return
	}
	sends, peaks := count(NewVideo(5))
	if sends == 0 || peaks == 0 {
		t.Errorf("video: %d sends, %d peaks; both must occur", sends, peaks)
	}
	_, steadyPeaks := count(NewSteadyVideo(5))
	if steadyPeaks != 0 {
		t.Errorf("steady video produced %d seek spikes", steadyPeaks)
	}
}

// TestGeekbenchAlwaysBusy: Geekbench keeps the CPU in C0 at high
// utilisation (the paper: "always fulfills the system utilization").
func TestGeekbenchAlwaysBusy(t *testing.T) {
	g := NewGeekbench(9)
	const dt = 0.25
	for now := 0.0; now < 1800; now += dt {
		s := g.Next(now, dt)
		if s.Demand.CPUState != device.CPUC0 {
			t.Fatalf("CPU left C0 at %.2fs", now)
		}
		if s.Demand.CPUUtil < 0.8 {
			t.Fatalf("utilisation %.2f below 0.8 at %.2fs", s.Demand.CPUUtil, now)
		}
	}
}

// TestPCMarkHasLulls: PCMark alternates bursts and lulls.
func TestPCMarkHasLulls(t *testing.T) {
	g := NewPCMark(11)
	const dt = 0.25
	busy, idle := 0, 0
	for now := 0.0; now < 3600; now += dt {
		s := g.Next(now, dt)
		if s.Demand.CPUState == device.CPUC0 && s.Demand.CPUUtil > 0.5 {
			busy++
		} else {
			idle++
		}
	}
	if busy == 0 || idle == 0 {
		t.Errorf("PCMark busy=%d idle=%d; both phases must occur", busy, idle)
	}
}

// TestEtaMixesBothSources: eta-0 is pure video, eta-1 is pure PCMark, and
// intermediate values mix.
func TestEtaMixesBothSources(t *testing.T) {
	countDecode := func(eta float64) int {
		g, err := NewEtaStatic(eta, 13)
		if err != nil {
			t.Fatal(err)
		}
		decodes := 0
		const dt = 0.25
		for now := 0.0; now < 7200; now += dt {
			if g.Next(now, dt).Action == ActFrameDecode {
				decodes++
			}
		}
		return decodes
	}
	pure := countDecode(0)
	mixed := countDecode(0.5)
	none := countDecode(1)
	if pure == 0 {
		t.Error("eta=0 produced no video decode at all")
	}
	if none != 0 {
		t.Errorf("eta=1 produced %d video decodes", none)
	}
	if mixed == 0 || mixed >= pure {
		t.Errorf("eta=0.5 decode count %d should sit between %d and 0", mixed, pure)
	}
}
