// Package thermal provides a lumped RC thermal network for simulating heat
// flow in a smartphone: each component is a node with a heat capacity, nodes
// are coupled by thermal resistances, and an ambient node pins the boundary
// condition. The network reproduces the hot spots (surface temperature above
// 45 degC) that trigger CAPMAN's active cooling.
//
// The network is linear and its heat inputs are held constant over a step,
// so a step has an exact discrete-time form, T[k+1] = A_d·T[k] + B_d·u[k]
// with A_d = exp(A·dt) (the power-temperature model Bhat, Gumussoy and
// Ogras analyse). A Propagator holds A_d and B_d for one dt; Network.Step
// and the batched twin engine both step through it.
//
// Temperatures are degrees Celsius, capacities J/K, resistances K/W.
package thermal

import (
	"errors"
	"fmt"
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

// Network holds the node temperatures and steps them with a Propagator. It
// is not safe for concurrent use.
type Network struct {
	nodes []Node
	links []Link
	temps []float64
	maxes []float64
	// prop is the propagator of the last step length Step saw; a run
	// steps one dt throughout, so it is built once per run.
	prop *Propagator
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

// MaxTemperature returns the highest temperature node i has reached at a
// step boundary.
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

// Nodes returns a copy of the network's node definitions.
func (n *Network) Nodes() []Node {
	return append([]Node(nil), n.nodes...)
}

// Step advances the network by dt seconds with the given per-node heat
// inputs in watts (positive heats the node), held constant over the step.
// The inputs slice may be shorter than the node count; missing entries are
// zero, and inputs into boundary nodes are ignored. The step is exact for
// any dt. Once the propagator for dt exists, Step does not allocate.
func (n *Network) Step(inputsW []float64, dt float64) error {
	if n.prop == nil || n.prop.dt != dt {
		p, err := n.Propagator(dt)
		if err != nil {
			return err
		}
		n.prop = p
	}
	n.prop.Step(n.temps, inputsW)
	for _, i := range n.prop.free {
		if n.temps[i] > n.maxes[i] {
			n.maxes[i] = n.temps[i]
		}
	}
	return nil
}

// Equilibrium returns the steady-state temperatures under constant inputs:
// the solution of G·T = P over the non-boundary nodes, with boundary nodes
// held at their current temperatures. It leaves the network unchanged.
func (n *Network) Equilibrium(inputsW []float64) ([]float64, error) {
	c := n.conductances()
	nf := len(c.free)
	rhs := make([]float64, nf)
	for r, i := range c.free {
		if i < len(inputsW) {
			rhs[r] = inputsW[i]
		}
		for k, j := range c.bnd {
			rhs[r] += c.gfb[r*len(c.bnd)+k] * n.temps[j]
		}
	}
	if err := solve(c.gff, rhs, nf, 1); err != nil {
		return nil, fmt.Errorf("thermal: no equilibrium: %w", err)
	}
	out := n.Temperatures()
	for r, i := range c.free {
		out[i] = rhs[r]
	}
	return out, nil
}

// conductanceMatrix is a network's heat balance C·dT/dt = P - G·T split
// between its free (positive-capacity) and boundary nodes: heat leaves
// the free nodes as gff·T_free - gfb·T_boundary.
type conductanceMatrix struct {
	free, bnd []int     // node indices, ascending
	gff       []float64 // len(free)², row-major: the conductance Laplacian's free block
	gfb       []float64 // len(free)×len(bnd): each free node's conductance to each boundary node
}

func (n *Network) conductances() conductanceMatrix {
	var c conductanceMatrix
	pos := make([]int, len(n.nodes)) // free or boundary position of each node
	for i, node := range n.nodes {
		if node.CapacityJK > 0 {
			pos[i] = len(c.free)
			c.free = append(c.free, i)
		} else {
			pos[i] = len(c.bnd)
			c.bnd = append(c.bnd, i)
		}
	}
	nf, nb := len(c.free), len(c.bnd)
	c.gff = make([]float64, nf*nf)
	c.gfb = make([]float64, nf*nb)
	free := func(i int) bool { return n.nodes[i].CapacityJK > 0 }
	for _, l := range n.links {
		g := 1 / l.RKW
		for _, end := range [2][2]int{{l.A, l.B}, {l.B, l.A}} {
			from, to := end[0], end[1]
			if !free(from) {
				continue
			}
			r := pos[from]
			c.gff[r*nf+r] += g
			if free(to) {
				c.gff[r*nf+pos[to]] -= g
			} else {
				c.gfb[r*nb+pos[to]] += g
			}
		}
	}
	return c
}

// maxPropagatorNodes bounds a Propagator's non-boundary nodes and, apart,
// its boundary nodes, so Step can keep its scratch on the stack; the phone
// network has four and one.
const maxPropagatorNodes = 8

// Propagator is the exact discrete-time step of a network over a fixed dt.
// With T the non-boundary temperatures and u the inputs (heat into each
// non-boundary node, then each boundary node's temperature),
//
//	T[k+1] = A_d·T[k] + B_d·u[k],   A_d = exp(A·dt),
//	B_d = ∫_0^dt exp(A·s) ds · B,
//
// where dT/dt = A·T + B·u is the network's heat balance C·dT/dt = P - G·T
// with the boundary temperatures moved to the input side. Boundary nodes
// enter only through u, so a caller may move them between steps (ambient
// drift, per-twin ambient noise). A Propagator is immutable and safe for
// concurrent use.
type Propagator struct {
	dt   float64
	free []int // non-boundary node indices, ascending
	bnd  []int // boundary node indices, ascending
	// rows holds [A_d | B_d] row by row (one row per non-boundary node):
	// A_d's columns, then B_d's heat-input columns, then its
	// boundary-temperature columns.
	rows []float64
}

// Propagator builds the exact step of length dt for the network's
// structure; the network's temperatures play no part.
func (n *Network) Propagator(dt float64) (*Propagator, error) {
	if dt <= 0 {
		return nil, fmt.Errorf("thermal: non-positive dt %v", dt)
	}
	c := n.conductances()
	free, bnd := c.free, c.bnd
	nf, nb := len(free), len(bnd)
	if nf > maxPropagatorNodes || nb > maxPropagatorNodes {
		return nil, fmt.Errorf("thermal: %d non-boundary and %d boundary nodes, propagator supports %d of each",
			nf, nb, maxPropagatorNodes)
	}
	// dT/dt = A·T + B·u with A = -C⁻¹·gff and B = C⁻¹·[I | gfb]. The
	// augmented generator M = [[A, B], [0, 0]]·dt has
	// exp(M) = [[A_d, B_d], [0, I]] (Van Loan), so one matrix
	// exponential yields both blocks: the first nf rows of exp(M) are
	// [A_d | B_d].
	w := nf + nf + nb
	aug := make([]float64, w*w)
	for r, i := range free {
		k := dt / n.nodes[i].CapacityJK
		row := aug[r*w : (r+1)*w]
		for col := 0; col < nf; col++ {
			row[col] = -k * c.gff[r*nf+col]
		}
		row[nf+r] = k
		for col := 0; col < nb; col++ {
			row[2*nf+col] = k * c.gfb[r*nb+col]
		}
	}
	e, err := expm(aug, w)
	if err != nil {
		return nil, fmt.Errorf("thermal: propagator: %w", err)
	}
	return &Propagator{dt: dt, free: free, bnd: bnd, rows: e[:nf*w]}, nil
}

// Step advances temps (every node, in network order) by the propagator's
// dt in place under per-node heat inputs in watts. inputsW may be shorter
// than temps; missing entries are zero, and inputs into boundary nodes are
// ignored. Boundary temperatures are read, never written. Step does not
// allocate.
func (p *Propagator) Step(temps, inputsW []float64) {
	nf, nb := len(p.free), len(p.bnd)
	// u is this step's right-hand vector: the non-boundary temperatures,
	// their heat inputs, then the boundary temperatures.
	var ubuf [3 * maxPropagatorNodes]float64
	u := ubuf[:2*nf+nb]
	for r, i := range p.free {
		u[r] = temps[i]
		if i < len(inputsW) {
			u[nf+r] = inputsW[i]
		}
	}
	for k, i := range p.bnd {
		u[2*nf+k] = temps[i]
	}
	// u holds the old temperatures, so each row writes its node as soon
	// as it is summed.
	w := len(u)
	for r, i := range p.free {
		row := p.rows[r*w : (r+1)*w]
		var sum float64
		for c, uc := range u {
			sum += row[c] * uc
		}
		temps[i] = sum
	}
}
