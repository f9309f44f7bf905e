// Package thermal provides a lumped RC thermal network for simulating heat
// flow in a smartphone: each component is a node with a heat capacity, nodes
// are coupled by thermal resistances, and an ambient node pins the boundary
// condition. The network reproduces the hot spots (surface temperature above
// 45 degC) that trigger CAPMAN's active cooling.
//
// Temperatures are degrees Celsius, capacities J/K, resistances K/W.
package thermal

import (
	"errors"
	"fmt"
	"math"
)

// Node is one lumped thermal mass.
type Node struct {
	Name string
	// CapacityJK is the heat capacity in J/K. A non-positive capacity
	// marks a fixed-temperature boundary node (e.g. ambient).
	CapacityJK float64
	// InitialC is the starting temperature.
	InitialC float64
}

// Link couples two nodes with a thermal resistance.
type Link struct {
	A, B int     // node indices
	RKW  float64 // thermal resistance in K/W
}

// Network integrates the node temperatures. It is not safe for concurrent
// use.
type Network struct {
	nodes []Node
	links []Link
	temps []float64
	maxes []float64
	// flux is Step's per-node heat-flow scratch, sized at construction so
	// the hot loop never allocates.
	flux []float64
}

// Construction errors.
var (
	ErrNoNodes = errors.New("thermal: network has no nodes")
	ErrBadLink = errors.New("thermal: invalid link")
)

// NewNetwork validates and builds a network.
func NewNetwork(nodes []Node, links []Link) (*Network, error) {
	if len(nodes) == 0 {
		return nil, ErrNoNodes
	}
	for i, l := range links {
		if l.A < 0 || l.A >= len(nodes) || l.B < 0 || l.B >= len(nodes) || l.A == l.B {
			return nil, fmt.Errorf("%w: link %d connects %d-%d", ErrBadLink, i, l.A, l.B)
		}
		if l.RKW <= 0 {
			return nil, fmt.Errorf("%w: link %d resistance %v", ErrBadLink, i, l.RKW)
		}
	}
	n := &Network{
		nodes: append([]Node(nil), nodes...),
		links: append([]Link(nil), links...),
		temps: make([]float64, len(nodes)),
		maxes: make([]float64, len(nodes)),
		flux:  make([]float64, len(nodes)),
	}
	for i, node := range nodes {
		n.temps[i] = node.InitialC
		n.maxes[i] = node.InitialC
	}
	return n, nil
}

// NodeCount returns the number of nodes.
func (n *Network) NodeCount() int { return len(n.nodes) }

// NodeName returns the name of node i.
func (n *Network) NodeName(i int) string { return n.nodes[i].Name }

// Temperature returns the current temperature of node i.
func (n *Network) Temperature(i int) float64 { return n.temps[i] }

// MaxTemperature returns the highest temperature node i has reached.
func (n *Network) MaxTemperature(i int) float64 { return n.maxes[i] }

// Temperatures returns a copy of all node temperatures.
func (n *Network) Temperatures() []float64 {
	out := make([]float64, len(n.temps))
	copy(out, n.temps)
	return out
}

// SetTemperature overrides node i's temperature (used to vary ambient).
func (n *Network) SetTemperature(i int, tempC float64) error {
	if i < 0 || i >= len(n.temps) {
		return fmt.Errorf("thermal: node %d out of range", i)
	}
	n.temps[i] = tempC
	if tempC > n.maxes[i] {
		n.maxes[i] = tempC
	}
	return nil
}

// maxSubstep bounds the integrator step for stability; forward Euler on an
// RC network is stable when dt < min(C*R) over adjacent pairs, and phone
// constants are small, so we subdivide conservatively.
const maxSubstep = 0.05

// Substeps returns the substep count and substep length Step uses to
// integrate dt seconds. Exported so batch integrators (internal/twin) can
// subdivide identically and stay bit-compatible with Network.Step.
func Substeps(dt float64) (steps int, h float64) {
	steps = int(math.Ceil(dt / maxSubstep))
	if steps < 1 {
		steps = 1
	}
	return steps, dt / float64(steps)
}

// Nodes returns a copy of the network's node definitions.
func (n *Network) Nodes() []Node {
	return append([]Node(nil), n.nodes...)
}

// Links returns a copy of the network's links in integration order.
func (n *Network) Links() []Link {
	return append([]Link(nil), n.links...)
}

// Step advances the network by dt seconds with the given per-node heat
// inputs in watts (positive heats the node). The inputs slice may be shorter
// than the node count; missing entries are zero. Step does not allocate.
func (n *Network) Step(inputsW []float64, dt float64) error {
	if dt <= 0 {
		return fmt.Errorf("thermal: non-positive dt %v", dt)
	}
	steps, h := Substeps(dt)
	flux := n.flux
	for s := 0; s < steps; s++ {
		for i := range flux {
			flux[i] = 0
			if i < len(inputsW) {
				flux[i] = inputsW[i]
			}
		}
		for _, l := range n.links {
			q := (n.temps[l.A] - n.temps[l.B]) / l.RKW
			flux[l.A] -= q
			flux[l.B] += q
		}
		for i, node := range n.nodes {
			if node.CapacityJK <= 0 {
				continue // boundary node
			}
			n.temps[i] += flux[i] * h / node.CapacityJK
			if n.temps[i] > n.maxes[i] {
				n.maxes[i] = n.temps[i]
			}
		}
	}
	return nil
}

// Equilibrium solves the steady-state temperatures for constant inputs by
// relaxation. It is used by tests and calibration, not the hot path.
func (n *Network) Equilibrium(inputsW []float64, tol float64) ([]float64, error) {
	if tol <= 0 {
		tol = 1e-6
	}
	const step = 1.0
	prev := n.Temperatures()
	for iter := 0; iter < 2_000_000; iter++ {
		if err := n.Step(inputsW, step); err != nil {
			return nil, err
		}
		cur := n.temps
		maxDelta := 0.0
		for i := range cur {
			d := math.Abs(cur[i] - prev[i])
			if d > maxDelta {
				maxDelta = d
			}
			prev[i] = cur[i]
		}
		if maxDelta < tol {
			return n.Temperatures(), nil
		}
	}
	return nil, errors.New("thermal: equilibrium did not converge")
}
