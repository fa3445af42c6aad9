package algorithms

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
)

// PersonalizedPageRank is random-walk-with-restart PageRank: the teleport
// mass returns only to the given source set instead of spreading uniformly,
// ranking vertices by proximity to the sources. A one-field variation of
// PageRank-pull — the same one-job iteration (rankPullKernel), its restart
// term landing only where the ppr_src column is set — included as an
// engine-reuse demonstration (and because the production PGX product that
// grew out of the paper ships it).
//
//	PR'(n) = d * Σ_{t∈inNbrs(n)} PR(t)/outDeg(t) + (1-d) * [n ∈ S]/|S|
//
// It runs iters pull-mode power iterations restarting at sources, all mass
// on the sources at the start; a source outside the graph is an error.
func PersonalizedPageRank(c *core.Cluster, sources []graph.NodeID, iters int, damping float64) ([]float64, Metrics, error) {
	if len(sources) == 0 {
		return nil, Metrics{}, fmt.Errorf("algorithms: personalized PageRank needs at least one source")
	}
	if err := checkSources(c, sources...); err != nil {
		return nil, Metrics{}, err
	}
	return pullRank(c, "ppr", iters, damping, sources)
}

// PersonalizedPageRankReference computes the same iteration sequentially.
func PersonalizedPageRankReference(g *graph.Graph, sources []graph.NodeID, iters int, damping float64) []float64 {
	n := g.NumNodes()
	isSource := make([]bool, n)
	for _, s := range sources {
		isSource[s] = true
	}
	pr := make([]float64, n)
	for _, s := range sources {
		pr[s] = 1 / float64(len(sources))
	}
	sourceBase := (1 - damping) / float64(len(sources))
	scaled := make([]float64, n)
	for it := 0; it < iters; it++ {
		for u := 0; u < n; u++ {
			if d := g.OutDegree(graph.NodeID(u)); d > 0 {
				scaled[u] = pr[u] / float64(d)
			} else {
				scaled[u] = 0
			}
		}
		for u := 0; u < n; u++ {
			var sum float64
			for _, t := range g.In.Neighbors(graph.NodeID(u)) {
				sum += scaled[t]
			}
			pr[u] = damping * sum
			if isSource[u] {
				pr[u] += sourceBase
			}
		}
	}
	return pr
}
