// Package partition implements the data placement policies of PGX.D
// (paper §3.3): partitioning consecutive vertex ranges across machines by
// node count (vertex partitioning) or by in+out degree sums (edge
// partitioning), ranking vertices by degree — the paper's ghost selection,
// which the engine uses only to cap its remote sets (core.Cluster.LoadPlan's
// ghost set) — and cutting local node ranges into edge-balanced chunks for intra-machine
// scheduling.
package partition

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// Strategy selects how vertex ranges are assigned to machines.
type Strategy int

const (
	// VertexBalanced gives each machine a roughly equal number of vertices —
	// the "naive" baseline the paper compares against in Figure 6b.
	VertexBalanced Strategy = iota
	// EdgeBalanced gives each machine a roughly equal total of in+out
	// degrees, the paper's edge partitioning: "it first computes the total
	// sum of in-degrees and out-degrees for all vertices. It then chooses
	// the pivot vertices that result in a balanced sum".
	EdgeBalanced
)

// String implements fmt.Stringer for harness output.
func (s Strategy) String() string {
	switch s {
	case VertexBalanced:
		return "vertex"
	case EdgeBalanced:
		return "edge"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Layout records which consecutive vertex range each machine owns. As in the
// paper, a partitioning of N vertices over P machines is fully described by
// P-1 pivots; we store the equivalent P+1 range starts. Layout is immutable
// and shared (by value) across all machines.
type Layout struct {
	NumMachines int
	// Starts has length NumMachines+1: machine m owns global vertices
	// [Starts[m], Starts[m+1]). Starts[0] == 0, Starts[P] == N.
	Starts []uint32
}

// Compute builds a Layout for g over p machines under the given strategy.
func Compute(g *graph.Graph, p int, strategy Strategy) (Layout, error) {
	n := g.NumNodes()
	if p < 1 {
		return Layout{}, fmt.Errorf("partition: machine count %d must be >= 1", p)
	}
	if n == 0 {
		return Layout{}, graph.ErrEmptyGraph
	}
	var starts []uint32
	switch strategy {
	case VertexBalanced:
		starts = vertexBalancedStarts(n, p)
	case EdgeBalanced:
		starts = EdgeBalancedStarts(n, p, func(u int) int64 { return g.TotalDegree(graph.NodeID(u)) })
	default:
		return Layout{}, fmt.Errorf("partition: unknown strategy %d", strategy)
	}
	return Layout{NumMachines: p, Starts: starts}, nil
}

func vertexBalancedStarts(n, p int) []uint32 {
	starts := make([]uint32, p+1)
	for m := 1; m <= p; m++ {
		starts[m] = uint32(m * n / p)
	}
	return starts
}

// EdgeBalancedStarts cuts [0, n) into p consecutive ranges of roughly equal
// in+out degree mass: it walks the vertices accumulating degree(u) and cuts
// where the running sum crosses the next equal-share boundary. An edgeless
// input falls back to vertex balancing. The degree accessor is all it needs,
// so the store's streaming writer — which only ever holds degree counts —
// cuts exactly where Compute cuts the materialized graph; the cuts are
// monotone by construction (each lands at or past the previous one).
func EdgeBalancedStarts(n, p int, degree func(u int) int64) []uint32 {
	var total int64
	for u := 0; u < n; u++ {
		total += degree(u)
	}
	if total == 0 {
		return vertexBalancedStarts(n, p)
	}
	starts := make([]uint32, p+1)
	var acc int64
	next := 1
	for u := 0; u < n && next < p; u++ {
		acc += degree(u)
		for next < p && acc >= int64(next)*total/int64(p) {
			starts[next] = uint32(u + 1)
			next++
		}
	}
	for ; next <= p; next++ {
		starts[next] = uint32(n)
	}
	return starts
}

// SkewedLayout deliberately mis-cuts the degree-prefix walk: machine 0 takes
// the vertices up to where the in+out degree prefix crosses the skew fraction
// (in (0,1)) of the total, and the remaining machines split the suffix by
// EdgeBalancedStarts. It is the adversarial input for loading under an
// explicit cut (core.Cluster.LoadPlan) — a partition the edge-balanced cut
// would never produce.
func SkewedLayout(g *graph.Graph, p int, skew float64) (Layout, error) {
	if p < 1 {
		return Layout{}, fmt.Errorf("partition: machine count %d must be >= 1", p)
	}
	if skew <= 0 || skew >= 1 {
		return Layout{}, fmt.Errorf("partition: skew %v must be in (0, 1)", skew)
	}
	n := g.NumNodes()
	if n == 0 {
		return Layout{}, graph.ErrEmptyGraph
	}
	starts := make([]uint32, p+1)
	starts[p] = uint32(n)
	if p == 1 {
		return Layout{NumMachines: p, Starts: starts}, nil
	}
	degree := func(u int) int64 { return g.TotalDegree(graph.NodeID(u)) }
	var total, acc int64
	for u := 0; u < n; u++ {
		total += degree(u)
	}
	cut := 0
	for cut < n && float64(acc) < skew*float64(total) {
		acc += degree(cut)
		cut++
	}
	rest := EdgeBalancedStarts(n-cut, p-1, func(u int) int64 { return degree(cut + u) })
	for m, s := range rest {
		starts[m+1] = uint32(cut) + s
	}
	return Layout{NumMachines: p, Starts: starts}, nil
}

// Validate checks that l cuts n vertices: NumMachines+1 starts running from 0
// to n without decreasing (an empty machine is legal). A store file's layout
// and an explicit plan (core.Cluster.LoadPlan) are held to this one rule.
func (l Layout) Validate(n int64) error {
	p := l.NumMachines
	if p < 1 || len(l.Starts) != p+1 {
		return fmt.Errorf("partition: a layout of %d machines has %d starts", p, len(l.Starts))
	}
	if l.Starts[0] != 0 || int64(l.Starts[p]) != n {
		return fmt.Errorf("partition: starts [%d..%d] do not cover [0, %d)", l.Starts[0], l.Starts[p], n)
	}
	for m := 1; m <= p; m++ {
		if l.Starts[m] < l.Starts[m-1] {
			return fmt.Errorf("partition: starts decrease at machine %d (%d > %d)", m, l.Starts[m-1], l.Starts[m])
		}
	}
	return nil
}

// Owner returns the machine owning global vertex v. Binary search over at
// most NumMachines+1 entries; with P <= 64 this is a handful of compares and
// is the hot-path location lookup the paper does with shared pivots.
func (l Layout) Owner(v graph.NodeID) int {
	// sort.Search returns the first m with Starts[m] > v; owner is m-1.
	m := sort.Search(l.NumMachines, func(m int) bool { return l.Starts[m+1] > v })
	return m
}

// LocalOffset converts global vertex v to its offset within its owner's range.
func (l Layout) LocalOffset(v graph.NodeID) uint32 {
	return v - l.Starts[l.Owner(v)]
}

// GlobalOf converts (machine, local offset) back to the global vertex id.
func (l Layout) GlobalOf(machine int, offset uint32) graph.NodeID {
	return l.Starts[machine] + offset
}

// NumLocal returns how many vertices machine m owns.
func (l Layout) NumLocal(m int) int {
	return int(l.Starts[m+1] - l.Starts[m])
}

// Range returns the half-open global vertex range of machine m.
func (l Layout) Range(m int) (graph.NodeID, graph.NodeID) {
	return l.Starts[m], l.Starts[m+1]
}

// DegreeMass returns each machine's in+out degree sum under this layout —
// the static per-machine load estimate behind EdgeImbalance.
func (l Layout) DegreeMass(g *graph.Graph) []int64 {
	mass := make([]int64, l.NumMachines)
	for m := 0; m < l.NumMachines; m++ {
		lo, hi := l.Range(m)
		for u := lo; u < hi; u++ {
			mass[m] += g.TotalDegree(u)
		}
	}
	return mass
}

// EdgeImbalance returns max/mean of the per-machine in+out degree sums, the
// load-balance figure of merit behind Figure 6b. 1.0 is perfect balance.
func (l Layout) EdgeImbalance(g *graph.Graph) float64 {
	var maxW, totalW int64
	for _, w := range l.DegreeMass(g) {
		totalW += w
		if w > maxW {
			maxW = w
		}
	}
	if totalW == 0 {
		return 1
	}
	mean := float64(totalW) / float64(l.NumMachines)
	return float64(maxW) / mean
}
