package algorithms

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
)

// PersonalizedPageRank is random-walk-with-restart PageRank: the teleport
// mass returns only to the given source set instead of spreading uniformly,
// ranking vertices by proximity to the sources. A one-field variation of
// the pull kernel, included as an engine-reuse demonstration (and because
// the production PGX product that grew out of the paper ships it).
//
//	PR'(n) = d * Σ_{t∈inNbrs(n)} PR(t)/outDeg(t) + (1-d) * [n ∈ S]/|S|
type pprApplyKernel struct {
	core.NoReads
	pr, nxt, scaled, isSource core.PropID
	sourceBase                float64
	damping                   float64
}

func (k *pprApplyKernel) RunNodes(c *core.Ctx, nodes *core.Cursor) {
	for nodes.Next() {
		pr := k.damping * c.GetF64(k.nxt)
		if c.GetI64(k.isSource) != 0 {
			pr += k.sourceBase
		}
		c.SetF64(k.pr, pr)
		c.SetF64(k.nxt, 0)
		if d := c.OutDegree(); d > 0 {
			c.SetF64(k.scaled, pr/float64(d))
		} else {
			c.SetF64(k.scaled, 0)
		}
	}
}

// PersonalizedPageRank runs iters pull-mode power iterations restarting at
// sources; a source outside the graph is an error.
func PersonalizedPageRank(c *core.Cluster, sources []graph.NodeID, iters int, damping float64) ([]float64, Metrics, error) {
	if len(sources) == 0 {
		return nil, Metrics{}, fmt.Errorf("algorithms: personalized PageRank needs at least one source")
	}
	if err := checkSources(c, sources...); err != nil {
		return nil, Metrics{}, err
	}
	r := &runner{c: c}
	defer r.dropProps()
	pr := r.propF64("ppr")
	nxt := r.propF64("ppr_nxt")
	scaled := r.propF64("ppr_scaled")
	isSource := r.propI64("ppr_src")
	if r.err != nil {
		return nil, r.met, r.err
	}

	c.FillI64(isSource, 0)
	for _, s := range sources {
		c.SetNodeI64(s, isSource, 1)
	}
	sourceBase := (1 - damping) / float64(len(sources))
	// Start with all mass on the sources.
	c.FillF64(pr, 0)
	for _, s := range sources {
		c.SetNodeF64(s, pr, 1/float64(len(sources)))
	}
	c.FillF64(nxt, 0)

	start := nowFn()
	r.run(core.JobSpec{Name: "ppr-scale", Iter: core.IterNodes,
		Task: &scaleKernel{pr: pr, scaled: scaled}})
	for it := 0; it < iters && r.err == nil; it++ {
		r.run(core.JobSpec{Name: "ppr-pull", Iter: core.IterInEdges,
			Task:      &sumPullKernel{src: scaled, acc: nxt},
			ReadProps: []core.PropID{scaled}})
		r.run(core.JobSpec{Name: "ppr-apply", Iter: core.IterNodes,
			Task: &pprApplyKernel{pr: pr, nxt: nxt, scaled: scaled, isSource: isSource,
				sourceBase: sourceBase, damping: damping}})
		r.met.Iterations++
	}
	r.met.Total = nowFn().Sub(start)
	if r.err != nil {
		return nil, r.met, r.err
	}
	return c.GatherF64(pr), r.met, nil
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
