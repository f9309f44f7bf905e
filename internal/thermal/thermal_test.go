package thermal

import (
	"math"
	"testing"
	"testing/quick"
)

func twoNode(t *testing.T) *Network {
	t.Helper()
	n, err := NewNetwork(
		[]Node{
			{Name: "hot", CapacityJK: 10, InitialC: 25},
			{Name: "ambient", CapacityJK: 0, InitialC: 25},
		},
		[]Link{{A: 0, B: 1, RKW: 5}},
	)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	return n
}

func TestNewNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(nil, nil); err != ErrNoNodes {
		t.Errorf("empty network error = %v", err)
	}
	nodes := []Node{{Name: "a", CapacityJK: 1}, {Name: "b", CapacityJK: 1}}
	bad := [][]Link{
		{{A: 0, B: 5, RKW: 1}},
		{{A: -1, B: 0, RKW: 1}},
		{{A: 0, B: 0, RKW: 1}},
		{{A: 0, B: 1, RKW: 0}},
		{{A: 0, B: 1, RKW: -2}},
	}
	for i, links := range bad {
		if _, err := NewNetwork(nodes, links); err == nil {
			t.Errorf("bad links %d accepted", i)
		}
	}
}

func TestStepValidation(t *testing.T) {
	n := twoNode(t)
	if err := n.Step(nil, 0); err == nil {
		t.Error("zero dt accepted")
	}
	if err := n.Step(nil, -1); err == nil {
		t.Error("negative dt accepted")
	}
}

// TestSteadyState: a constant input settles at T_ambient + P*R.
func TestSteadyState(t *testing.T) {
	n := twoNode(t)
	eq, err := n.Equilibrium([]float64{2})
	if err != nil {
		t.Fatalf("Equilibrium: %v", err)
	}
	want := 25 + 2.0*5
	if math.Abs(eq[0]-want) > 0.01 {
		t.Errorf("steady state %v, want %v", eq[0], want)
	}
	// Boundary node never moves.
	if eq[1] != 25 {
		t.Errorf("ambient moved to %v", eq[1])
	}
}

// TestRelaxationToAmbient: with no input every node converges to ambient.
func TestRelaxationToAmbient(t *testing.T) {
	n := twoNode(t)
	if err := n.SetTemperature(0, 60); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		if err := n.Step(nil, 1); err != nil {
			t.Fatal(err)
		}
	}
	if math.Abs(n.Temperature(0)-25) > 0.01 {
		t.Errorf("did not relax to ambient: %v", n.Temperature(0))
	}
	if n.MaxTemperature(0) < 60 {
		t.Errorf("max temperature %v lost the initial peak", n.MaxTemperature(0))
	}
}

func TestSetTemperatureRange(t *testing.T) {
	n := twoNode(t)
	if err := n.SetTemperature(5, 30); err == nil {
		t.Error("out-of-range node accepted")
	}
}

// TestMonotoneApproach: heating from equilibrium raises temperature
// monotonically toward the new steady state (no oscillation).
func TestMonotoneApproach(t *testing.T) {
	n := twoNode(t)
	prev := n.Temperature(0)
	for i := 0; i < 500; i++ {
		if err := n.Step([]float64{1.5}, 1); err != nil {
			t.Fatal(err)
		}
		cur := n.Temperature(0)
		if cur < prev-1e-9 {
			t.Fatalf("temperature oscillated: %v -> %v at step %d", prev, cur, i)
		}
		prev = cur
	}
}

func TestPhoneNetworkTopology(t *testing.T) {
	n, err := PhoneNetwork(DefaultPhoneConfig())
	if err != nil {
		t.Fatal(err)
	}
	if n.NodeCount() != 5 {
		t.Fatalf("phone network has %d nodes", n.NodeCount())
	}
	names := map[int]string{
		NodeCPU: "cpu", NodeBattery: "battery", NodeBody: "body",
		NodeSpreader: "spreader", NodeAmbient: "ambient",
	}
	for idx, want := range names {
		if got := n.NodeName(idx); got != want {
			t.Errorf("node %d = %q, want %q", idx, got, want)
		}
	}
}

// TestPhoneHotSpotCalibration: a sustained ~1.7W system load with the CPU
// drawing ~0.7W pushes the CPU node past the 45C hot-spot threshold, while
// a light load stays well below — the calibration contract of
// DefaultPhoneConfig.
func TestPhoneHotSpotCalibration(t *testing.T) {
	heavy, err := PhoneNetwork(DefaultPhoneConfig())
	if err != nil {
		t.Fatal(err)
	}
	// A fully utilised phone late in its discharge cycle: CPU at its C0
	// ceiling, screen+radio in the body, and the battery dumping its
	// LITTLE-overhead and resistive losses.
	inputs := make([]float64, 5)
	inputs[NodeCPU] = 0.72
	inputs[NodeBody] = 1.00
	inputs[NodeBattery] = 0.50
	eq, err := heavy.Equilibrium(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if !IsHotSpot(eq[NodeCPU]) {
		t.Errorf("sustained heavy load should cross %vC, reached %.1fC",
			HotSpotThresholdC, eq[NodeCPU])
	}

	light, err := PhoneNetwork(DefaultPhoneConfig())
	if err != nil {
		t.Fatal(err)
	}
	lightIn := make([]float64, 5)
	lightIn[NodeCPU] = 0.06
	lightIn[NodeBody] = 0.10
	leq, err := light.Equilibrium(lightIn)
	if err != nil {
		t.Fatal(err)
	}
	if IsHotSpot(leq[NodeCPU]) {
		t.Errorf("light load reached hot-spot territory: %.1fC", leq[NodeCPU])
	}
}

// Property: total energy into non-boundary nodes equals the capacity-
// weighted temperature change plus what leaked into the ambient boundary.
func TestEnergyBookkeeping(t *testing.T) {
	n := twoNode(t)
	const dt, steps, inW = 0.5, 2000, 2.0
	var leaked float64
	for i := 0; i < steps; i++ {
		before := n.Temperature(0)
		if err := n.Step([]float64{inW}, dt); err != nil {
			t.Fatal(err)
		}
		// Leak across the single link, integrated with the midpoint
		// temperature for second-order accuracy.
		mid := (before + n.Temperature(0)) / 2
		leaked += (mid - 25) / 5 * dt
	}
	stored := 10 * (n.Temperature(0) - 25)
	input := inW * dt * steps
	if math.Abs(input-(stored+leaked)) > input*0.02 {
		t.Errorf("energy books do not balance: in %.1fJ, stored %.1fJ, leaked %.1fJ",
			input, stored, leaked)
	}
}

// Property: temperatures remain finite for arbitrary bounded inputs.
func TestStepFiniteness(t *testing.T) {
	f := func(raw []uint8) bool {
		n, err := PhoneNetwork(DefaultPhoneConfig())
		if err != nil {
			return false
		}
		inputs := make([]float64, 5)
		for i := 0; i < 200; i++ {
			for j := range inputs {
				if len(raw) > 0 {
					inputs[j] = float64(raw[(i+j)%len(raw)]%60) / 10 // 0..6W
				}
			}
			if err := n.Step(inputs, 0.5); err != nil {
				return false
			}
		}
		for i := 0; i < n.NodeCount(); i++ {
			temp := n.Temperature(i)
			if math.IsNaN(temp) || temp < 0 || temp > 500 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
