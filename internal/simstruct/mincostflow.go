package simstruct

import (
	"errors"
	"fmt"
	"math"
)

// flowArc is one directed arc of the min-cost-flow network, stored with its
// residual twin.
type flowArc struct {
	to   int
	cap  float64
	cost float64
	rev  int // index of the reverse arc in graph[to]
}

// FlowNetwork is a min-cost-flow network over real-valued capacities,
// solved by successive shortest paths (Jewell's algorithm, the SSP the
// paper cites) with Dijkstra on an indexed binary heap and Johnson
// potentials. The paper cites a Fibonacci heap; any heap gives Dijkstra
// the same shortest distances, and the index heap's scratch is reusable
// without allocation.
//
// The zero value is usable after Reset; networks built with NewFlowNetwork
// are ready immediately.
type FlowNetwork struct {
	arcs [][]flowArc
}

// Flow errors.
var (
	ErrBadNode    = errors.New("simstruct: node out of range")
	ErrNegCost    = errors.New("simstruct: negative arc cost")
	ErrInfeasible = errors.New("simstruct: flow demand not satisfiable")
)

// NewFlowNetwork builds a network with n nodes.
func NewFlowNetwork(n int) *FlowNetwork {
	return &FlowNetwork{arcs: make([][]flowArc, n)}
}

// Reset reinitialises the network to n empty nodes, retaining per-node arc
// storage so repeated builds (the EMDSolver inner loop) stay
// allocation-free once warm.
func (f *FlowNetwork) Reset(n int) {
	if n <= cap(f.arcs) {
		f.arcs = f.arcs[:n]
	} else {
		old := f.arcs
		f.arcs = make([][]flowArc, n)
		copy(f.arcs, old[:cap(old)])
	}
	for i := range f.arcs {
		f.arcs[i] = f.arcs[i][:0]
	}
}

// AddArc adds a directed arc with capacity and non-negative cost.
func (f *FlowNetwork) AddArc(from, to int, capacity, cost float64) error {
	if from < 0 || from >= len(f.arcs) || to < 0 || to >= len(f.arcs) {
		return fmt.Errorf("%w: %d -> %d of %d", ErrBadNode, from, to, len(f.arcs))
	}
	if cost < 0 {
		return fmt.Errorf("%w: %v", ErrNegCost, cost)
	}
	if capacity < 0 {
		capacity = 0
	}
	f.arcs[from] = append(f.arcs[from], flowArc{to: to, cap: capacity, cost: cost, rev: len(f.arcs[to])})
	f.arcs[to] = append(f.arcs[to], flowArc{to: from, cap: 0, cost: -cost, rev: len(f.arcs[from]) - 1})
	return nil
}

// flowEps treats residual capacities below this as saturated, guarding
// float accumulation.
const flowEps = 1e-12

// flowScratch is the reusable successive-shortest-path state: Johnson
// potentials, Dijkstra labels, predecessor links, and an indexed binary
// heap keyed by tentative distance. One scratch serves one goroutine; the
// similarity engine keeps one per worker inside its EMDSolver.
type flowScratch struct {
	potential []float64
	dist      []float64
	prevNode  []int
	prevArc   []int
	heap      []int // node ids, sift-ordered by dist
	heapPos   []int // node -> index into heap, -1 when absent
}

// grow sizes the scratch for an n-node network and zeroes the potentials.
func (sc *flowScratch) grow(n int) {
	if cap(sc.potential) < n {
		sc.potential = make([]float64, n)
		sc.dist = make([]float64, n)
		sc.prevNode = make([]int, n)
		sc.prevArc = make([]int, n)
		sc.heap = make([]int, 0, n)
		sc.heapPos = make([]int, n)
	}
	sc.potential = sc.potential[:n]
	sc.dist = sc.dist[:n]
	sc.prevNode = sc.prevNode[:n]
	sc.prevArc = sc.prevArc[:n]
	sc.heapPos = sc.heapPos[:n]
	for i := 0; i < n; i++ {
		sc.potential[i] = 0
	}
}

// heapPush inserts node v (keyed by dist[v]) into the heap.
func (sc *flowScratch) heapPush(v int) {
	sc.heapPos[v] = len(sc.heap)
	sc.heap = append(sc.heap, v)
	sc.siftUp(len(sc.heap) - 1)
}

// heapPop removes and returns the node with the smallest dist.
func (sc *flowScratch) heapPop() int {
	v := sc.heap[0]
	last := len(sc.heap) - 1
	sc.heap[0] = sc.heap[last]
	sc.heapPos[sc.heap[0]] = 0
	sc.heap = sc.heap[:last]
	sc.heapPos[v] = -1
	if last > 0 {
		sc.siftDown(0)
	}
	return v
}

// heapFix restores the heap order after dist[v] decreased.
func (sc *flowScratch) heapFix(v int) { sc.siftUp(sc.heapPos[v]) }

func (sc *flowScratch) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if sc.dist[sc.heap[parent]] <= sc.dist[sc.heap[i]] {
			return
		}
		sc.heap[parent], sc.heap[i] = sc.heap[i], sc.heap[parent]
		sc.heapPos[sc.heap[parent]] = parent
		sc.heapPos[sc.heap[i]] = i
		i = parent
	}
}

func (sc *flowScratch) siftDown(i int) {
	n := len(sc.heap)
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && sc.dist[sc.heap[left]] < sc.dist[sc.heap[smallest]] {
			smallest = left
		}
		if right < n && sc.dist[sc.heap[right]] < sc.dist[sc.heap[smallest]] {
			smallest = right
		}
		if smallest == i {
			return
		}
		sc.heap[smallest], sc.heap[i] = sc.heap[i], sc.heap[smallest]
		sc.heapPos[sc.heap[smallest]] = smallest
		sc.heapPos[sc.heap[i]] = i
		i = smallest
	}
}

// MinCostFlow pushes `amount` units from source to sink and returns the
// total cost. It fails with ErrInfeasible when the network cannot carry the
// requested amount. It allocates fresh scratch per call; hot loops should
// go through EMDSolver, which reuses one scratch across solves.
func (f *FlowNetwork) MinCostFlow(source, sink int, amount float64) (float64, error) {
	var sc flowScratch
	return f.minCostFlow(source, sink, amount, &sc)
}

// minCostFlow is the scratch-reusing successive-shortest-path solve.
func (f *FlowNetwork) minCostFlow(source, sink int, amount float64, sc *flowScratch) (float64, error) {
	n := len(f.arcs)
	if source < 0 || source >= n || sink < 0 || sink >= n {
		return 0, fmt.Errorf("%w: source %d sink %d", ErrBadNode, source, sink)
	}
	sc.grow(n)
	var totalCost float64
	remaining := amount
	for remaining > flowEps {
		// Dijkstra on reduced costs.
		for i := 0; i < n; i++ {
			sc.dist[i] = math.Inf(1)
			sc.prevNode[i] = -1
			sc.heapPos[i] = -1
		}
		sc.heap = sc.heap[:0]
		sc.dist[source] = 0
		sc.heapPush(source)
		for len(sc.heap) > 0 {
			u := sc.heapPop()
			du := sc.dist[u]
			for ai := range f.arcs[u] {
				a := &f.arcs[u][ai]
				if a.cap <= flowEps {
					continue
				}
				rc := a.cost + sc.potential[u] - sc.potential[a.to]
				if rc < 0 {
					// Floating point slack only; clamp.
					rc = 0
				}
				nd := du + rc
				if nd < sc.dist[a.to]-flowEps {
					sc.dist[a.to] = nd
					sc.prevNode[a.to] = u
					sc.prevArc[a.to] = ai
					if sc.heapPos[a.to] >= 0 {
						sc.heapFix(a.to)
					} else {
						sc.heapPush(a.to)
					}
				}
			}
		}
		if math.IsInf(sc.dist[sink], 1) {
			return totalCost, fmt.Errorf("%w: %v units undelivered", ErrInfeasible, remaining)
		}
		for i := 0; i < n; i++ {
			if !math.IsInf(sc.dist[i], 1) {
				sc.potential[i] += sc.dist[i]
			}
		}
		// Bottleneck along the path.
		push := remaining
		for v := sink; v != source; v = sc.prevNode[v] {
			a := f.arcs[sc.prevNode[v]][sc.prevArc[v]]
			if a.cap < push {
				push = a.cap
			}
		}
		if push <= flowEps {
			return totalCost, fmt.Errorf("%w: stalled with %v remaining", ErrInfeasible, remaining)
		}
		for v := sink; v != source; v = sc.prevNode[v] {
			arc := &f.arcs[sc.prevNode[v]][sc.prevArc[v]]
			arc.cap -= push
			f.arcs[v][arc.rev].cap += push
			totalCost += push * arc.cost
		}
		remaining -= push
	}
	return totalCost, nil
}
