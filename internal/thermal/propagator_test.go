package thermal

import (
	"math"
	"testing"
)

// eulerStep is the forward-Euler integrator the propagator replaced, kept
// as an independent oracle: it advances temps by dt in substeps of at most
// h, walking the links for the heat flow, and returns the highest CPU-node
// temperature seen at any substep.
func eulerStep(n *Network, temps, inputsW []float64, dt, h float64) float64 {
	steps := int(math.Ceil(dt / h))
	h = dt / float64(steps)
	flux := make([]float64, len(temps))
	peak := math.Inf(-1)
	for s := 0; s < steps; s++ {
		for i := range flux {
			flux[i] = 0
			if i < len(inputsW) {
				flux[i] = inputsW[i]
			}
		}
		for _, l := range n.links {
			q := (temps[l.A] - temps[l.B]) / l.RKW
			flux[l.A] -= q
			flux[l.B] += q
		}
		for i, node := range n.nodes {
			if node.CapacityJK > 0 {
				temps[i] += flux[i] * h / node.CapacityJK
			}
		}
		peak = math.Max(peak, temps[NodeCPU])
	}
	return peak
}

// phoneConfigs are the phone networks the oracles run on: the calibrated
// default every device profile simulates with, at a cold and a hot
// ambient, and with every capacity and resistance halved or doubled.
func phoneConfigs() map[string]PhoneConfig {
	def := DefaultPhoneConfig()
	cold, hot := def, def
	cold.AmbientC, hot.AmbientC = 5, 40
	scale := func(fc, fr float64) PhoneConfig {
		c := def
		c.CPUCapacityJK *= fc
		c.BatteryCapacityJK *= fc
		c.BodyCapacityJK *= fc
		c.SpreaderCapacityJK *= fc
		c.RCPUBody *= fr
		c.RBatteryBody *= fr
		c.RBodyAmbient *= fr
		c.RCPUBattery *= fr
		c.RSpreaderAmbient *= fr
		c.RSpreaderBody *= fr
		return c
	}
	return map[string]PhoneConfig{
		"default": def, "cold": cold, "hot": hot,
		"light-leaky": scale(0.5, 0.5), "heavy-insulated": scale(2, 2),
		"light-insulated": scale(0.5, 2),
	}
}

// phoneLoad is a representative heat input: CPU, battery, body, spreader.
var phoneLoad = []float64{1.4, 0.25, 0.6, 0.3}

// TestPropagatorFixedPointIsEquilibrium: the propagator's fixed point
// (I - A_d)⁻¹·B_d·u must equal the steady state of G·T = P, which
// Equilibrium solves from the conductances alone.
func TestPropagatorFixedPointIsEquilibrium(t *testing.T) {
	for name, cfg := range phoneConfigs() {
		n, err := PhoneNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		eq, err := n.Equilibrium(phoneLoad)
		if err != nil {
			t.Fatal(err)
		}
		for _, dt := range []float64{0.01, 0.25, 1, 30} {
			p, err := n.Propagator(dt)
			if err != nil {
				t.Fatal(err)
			}
			nf := len(p.free)
			// (I - A_d)·T* = B_d·u, solved densely.
			a := make([]float64, nf*nf)
			rhs := make([]float64, nf)
			for r := 0; r < nf; r++ {
				for c := 0; c < nf; c++ {
					a[r*nf+c] = -p.at(r, c)
					rhs[r] += p.at(r, nf+c) * phoneLoad[p.free[c]]
				}
				a[r*nf+r]++
				for k, j := range p.bnd {
					rhs[r] += p.at(r, 2*nf+k) * n.Temperature(j)
				}
			}
			if err := solve(a, rhs, nf, 1); err != nil {
				t.Fatal(err)
			}
			for r, i := range p.free {
				if d := math.Abs(rhs[r] - eq[i]); d > 1e-6 {
					t.Errorf("%s dt=%v node %s: fixed point %.9f, G·T=P %.9f", name, dt, n.NodeName(i), rhs[r], eq[i])
				}
			}
		}
	}
}

// TestEquilibriumHeatBalance checks the direct solve against the physics
// it encodes: at steady state every non-boundary node's input equals the
// heat it conducts away.
func TestEquilibriumHeatBalance(t *testing.T) {
	n, err := PhoneNetwork(DefaultPhoneConfig())
	if err != nil {
		t.Fatal(err)
	}
	eq, err := n.Equilibrium(phoneLoad)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, n.NodeCount())
	for _, l := range n.links {
		q := (eq[l.A] - eq[l.B]) / l.RKW
		out[l.A] += q
		out[l.B] -= q
	}
	for i, in := range phoneLoad {
		if math.Abs(out[i]-in) > 1e-9 {
			t.Errorf("node %s conducts %.12f W, input %.12f W", n.NodeName(i), out[i], in)
		}
	}
	// An island with no path to a boundary has no steady state.
	island, err := NewNetwork([]Node{{Name: "a", CapacityJK: 1}, {Name: "b", CapacityJK: 1}}, []Link{{A: 0, B: 1, RKW: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := island.Equilibrium([]float64{1}); err == nil {
		t.Error("isolated network reported an equilibrium")
	}
}

// TestPropagatorStable: A_d's spectral radius is below 1 for every phone
// network and step length, so the step contracts toward its fixed point.
// Two independent checks: A_d is nonnegative with every row sum below 1
// (so ρ ≤ ‖A_d‖∞ < 1), and Gelfand's formula ρ = lim ‖A_d^k‖^(1/k),
// evaluated at k = 2^40, lands in (0, 1).
func TestPropagatorStable(t *testing.T) {
	for name, cfg := range phoneConfigs() {
		n, err := PhoneNetwork(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, dt := range []float64{0.01, 0.25, 1, 30} {
			p, err := n.Propagator(dt)
			if err != nil {
				t.Fatal(err)
			}
			nf := len(p.free)
			ad := make([]float64, nf*nf)
			for r := 0; r < nf; r++ {
				for c := 0; c < nf; c++ {
					ad[r*nf+c] = p.at(r, c)
				}
				row := 0.0
				for c := 0; c < nf; c++ {
					if ad[r*nf+c] < 0 {
						t.Errorf("%s dt=%v: A_d[%d][%d] = %v < 0", name, dt, r, c, ad[r*nf+c])
					}
					row += ad[r*nf+c]
				}
				if row >= 1 {
					t.Errorf("%s dt=%v: A_d row %d sums to %v, want < 1", name, dt, r, row)
				}
			}
			rho := gelfandRadius(ad, nf)
			if !(rho > 0 && rho < 1) {
				t.Errorf("%s dt=%v: spectral radius %v, want in (0,1)", name, dt, rho)
			}
		}
	}
}

// at returns row r, column c of [A_d | B_d].
func (p *Propagator) at(r, c int) float64 {
	return p.rows[r*(2*len(p.free)+len(p.bnd))+c]
}

// gelfandRadius estimates the spectral radius of an n×n matrix as
// ‖A^(2^k)‖^(1/2^k), renormalising after each squaring.
func gelfandRadius(a []float64, n int) float64 {
	m := append([]float64(nil), a...)
	tmp := make([]float64, n*n)
	logScale := 0.0 // log of A^(2^k) = exp(logScale)·m
	for k := 0; k < 40; k++ {
		matMul(tmp, m, m, n)
		norm := 0.0
		for i := 0; i < n; i++ {
			row := 0.0
			for j := 0; j < n; j++ {
				row += math.Abs(tmp[i*n+j])
			}
			norm = math.Max(norm, row)
		}
		if norm == 0 {
			return 0
		}
		for i := range tmp {
			m[i] = tmp[i] / norm
		}
		logScale = 2*logScale + math.Log(norm)
	}
	return math.Exp(logScale / math.Exp2(40))
}

// TestEulerConvergesToPropagator: forward Euler is first order, so its
// error against the exact propagator must shrink about tenfold for every
// tenfold smaller substep, at the served 0.25 s step and at a 30 s step
// long enough that the propagator's expm scales and squares.
func TestEulerConvergesToPropagator(t *testing.T) {
	n, err := PhoneNetwork(DefaultPhoneConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		dt    float64
		steps int
	}{{0.25, 400}, {30, 10}} {
		exact := n.Temperatures()
		p, err := n.Propagator(tc.dt)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < tc.steps; k++ {
			p.Step(exact, phoneLoad)
		}
		prev := math.Inf(1)
		for _, h := range []float64{0.05, 0.005, 0.0005} {
			temps := n.Temperatures()
			for k := 0; k < tc.steps; k++ {
				eulerStep(n, temps, phoneLoad, tc.dt, h)
			}
			var worst float64
			for i := range temps {
				worst = math.Max(worst, math.Abs(temps[i]-exact[i]))
			}
			t.Logf("dt=%v h=%v: max |Euler - propagator| = %.3g degC", tc.dt, h, worst)
			if worst > prev/5 {
				t.Errorf("dt=%v h=%v: Euler error %.3g did not shrink from %.3g", tc.dt, h, worst, prev)
			}
			prev = worst
		}
		if prev > 1e-4 {
			t.Errorf("dt=%v: finest Euler still %.3g degC from the propagator", tc.dt, prev)
		}
	}
}

// maxTempToleranceC bounds how far a run's peak CPU temperature may move
// between the old integrator (forward Euler in 0.05 s substeps, peak taken
// at every substep) and the propagator (exact, peak taken once per step).
const maxTempToleranceC = 0.01

// TestPeakTemperatureMoves drives the phone network with bursty loads —
// CPU surges, a TEC-like pump cycle on the spreader — and checks each
// run's peak against the old integrator's.
func TestPeakTemperatureMoves(t *testing.T) {
	for _, period := range []int{4, 40, 400} {
		n, err := PhoneNetwork(DefaultPhoneConfig())
		if err != nil {
			t.Fatal(err)
		}
		old := n.Temperatures()
		oldPeak := old[NodeCPU]
		in := make([]float64, 4)
		for k := 0; k < 20000; k++ {
			on := (k/period)%2 == 0
			in[NodeCPU], in[NodeSpreader] = 0.3, 0
			if on {
				in[NodeCPU], in[NodeSpreader] = 2.8, 0.9
			}
			in[NodeBattery], in[NodeBody] = 0.2, 0.4
			if err := n.Step(in, 0.25); err != nil {
				t.Fatal(err)
			}
			oldPeak = math.Max(oldPeak, eulerStep(n, old, in, 0.25, 0.05))
		}
		d := math.Abs(n.MaxTemperature(NodeCPU) - oldPeak)
		t.Logf("period %d steps: peak %.4f degC, old %.4f degC", period, n.MaxTemperature(NodeCPU), oldPeak)
		if d > maxTempToleranceC {
			t.Errorf("period %d steps: peak moved %.4f degC, tolerance %v", period, d, maxTempToleranceC)
		}
	}
}

func TestPropagatorValidation(t *testing.T) {
	n, err := PhoneNetwork(DefaultPhoneConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, dt := range []float64{0, -1} {
		if _, err := n.Propagator(dt); err == nil {
			t.Errorf("dt %v accepted", dt)
		}
	}
	nodes := make([]Node, maxPropagatorNodes+2)
	for i := range nodes {
		nodes[i] = Node{Name: "n", CapacityJK: 1}
	}
	nodes[0].CapacityJK = 0
	big, err := NewNetwork(nodes, []Link{{A: 0, B: 1, RKW: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := big.Propagator(1); err == nil {
		t.Errorf("%d free nodes accepted", len(nodes)-1)
	}
	for i := range nodes {
		nodes[i].CapacityJK = 0
	}
	nodes[0].CapacityJK = 1
	walls, err := NewNetwork(nodes, []Link{{A: 0, B: 1, RKW: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := walls.Propagator(1); err == nil {
		t.Errorf("%d boundary nodes accepted", len(nodes)-1)
	}
}

// BenchmarkThermalStep is one served step's thermal work: a phone-network
// step of 0.25 s through the cached propagator. It must not allocate.
func BenchmarkThermalStep(b *testing.B) {
	n, err := PhoneNetwork(DefaultPhoneConfig())
	if err != nil {
		b.Fatal(err)
	}
	in := []float64{1.4, 0.25, 0.6, 0.3}
	if err := n.Step(in, 0.25); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n.Step(in, 0.25); err != nil {
			b.Fatal(err)
		}
	}
}
