package graph

import (
	"fmt"
	"math"
	"sort"
)

// DegreeStats summarizes a graph's degree distribution. The paper's load
// balance and ghosting claims are all functions of this distribution
// ("real-world graphs have high skewness in their degree distribution"), so
// the harness prints it next to every experiment to show the synthetic
// stand-ins match the intended shape.
type DegreeStats struct {
	Nodes        int
	Edges        int64
	MaxInDegree  int64
	MaxOutDegree int64
	MeanDegree   float64 // mean out-degree
	// Gini is the Gini coefficient of total degree: 0 = perfectly uniform,
	// →1 = all edges on one vertex. Erdős–Rényi graphs land near 0.1-0.2;
	// Twitter-shaped RMAT graphs exceed 0.6.
	Gini float64
	// P99Share is the fraction of all edge endpoints held by the top 1% of
	// vertices by total degree — the quantity selective ghosting exploits.
	P99Share float64
}

// ComputeDegreeStats scans g once and returns its degree summary.
func ComputeDegreeStats(g *Graph) DegreeStats {
	n := g.NumNodes()
	s := DegreeStats{Nodes: n, Edges: g.NumEdges()}
	if n == 0 {
		return s
	}
	total := make([]int64, n)
	var sum int64
	for u := 0; u < n; u++ {
		in := g.InDegree(NodeID(u))
		out := g.OutDegree(NodeID(u))
		if in > s.MaxInDegree {
			s.MaxInDegree = in
		}
		if out > s.MaxOutDegree {
			s.MaxOutDegree = out
		}
		total[u] = in + out
		sum += total[u]
	}
	s.MeanDegree = float64(g.NumEdges()) / float64(n)
	if sum == 0 {
		return s
	}
	sort.Slice(total, func(i, j int) bool { return total[i] < total[j] })
	// Gini via the sorted-index formula: G = (2*sum(i*x_i))/(n*sum(x)) - (n+1)/n.
	var weighted float64
	for i, d := range total {
		weighted += float64(i+1) * float64(d)
	}
	s.Gini = 2*weighted/(float64(n)*float64(sum)) - float64(n+1)/float64(n)
	if s.Gini < 0 {
		s.Gini = 0
	}
	top := n / 100
	if top < 1 {
		top = 1
	}
	var topSum int64
	for i := n - top; i < n; i++ {
		topSum += total[i]
	}
	s.P99Share = float64(topSum) / float64(sum)
	return s
}

// String renders the stats on one line for harness output.
func (s DegreeStats) String() string {
	return fmt.Sprintf("N=%d M=%d meanDeg=%.1f maxIn=%d maxOut=%d gini=%.2f top1%%share=%.2f",
		s.Nodes, s.Edges, s.MeanDegree, s.MaxInDegree, s.MaxOutDegree, s.Gini, s.P99Share)
}

// NodesAboveDegree returns how many nodes have in-degree or out-degree
// strictly greater than threshold — i.e. how many ghosts selective ghosting
// would create at that threshold (paper §3.3: "creates a ghost if either
// degree is larger than the specified threshold value").
func NodesAboveDegree(g *Graph, threshold int64) int {
	count := 0
	for u := 0; u < g.NumNodes(); u++ {
		if g.InDegree(NodeID(u)) > threshold || g.OutDegree(NodeID(u)) > threshold {
			count++
		}
	}
	return count
}

// EffectiveDiameterSample estimates the 90th-percentile BFS eccentricity from
// nSamples random sources (deterministic in seed). Used by tests to verify
// the grid generator produces high-diameter road-like graphs and RMAT
// produces small-world ones.
func EffectiveDiameterSample(g *Graph, nSamples int, seed int64) float64 {
	n := g.NumNodes()
	if n == 0 || nSamples <= 0 {
		return 0
	}
	var eccs []float64
	state := uint64(seed)*2862933555777941757 + 3037000493
	for i := 0; i < nSamples; i++ {
		state = state*2862933555777941757 + 3037000493
		src := NodeID(state % uint64(n))
		ecc := bfsEccentricity(g, src)
		if ecc >= 0 {
			eccs = append(eccs, float64(ecc))
		}
	}
	if len(eccs) == 0 {
		return 0
	}
	sort.Float64s(eccs)
	idx := int(math.Ceil(0.9*float64(len(eccs)))) - 1
	if idx < 0 {
		idx = 0
	}
	return eccs[idx]
}

// bfsEccentricity returns the max hop distance reachable from src, or -1 if
// src has no out-edges.
func bfsEccentricity(g *Graph, src NodeID) int {
	if g.OutDegree(src) == 0 {
		return -1
	}
	dist := make([]int32, g.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	frontier := []NodeID{src}
	depth := 0
	for len(frontier) > 0 {
		var next []NodeID
		for _, u := range frontier {
			for _, v := range g.Out.Neighbors(u) {
				if dist[v] < 0 {
					dist[v] = int32(depth + 1)
					next = append(next, v)
				}
			}
		}
		if len(next) > 0 {
			depth++
		}
		frontier = next
	}
	return depth
}
