package algorithms

import (
	"math"

	"repro/internal/core"
	"repro/internal/reduce"
)

// Eigenvector centrality by power iteration (paper: "EV is similar to exact
// Pagerank computation — every vertex is computing a new value from its
// neighbors at every iteration step. PGX.D implements this algorithm with
// data pulling."):
//
//	nxt(n) = Σ_{t∈inNbrs(n)} ev(t);   ev = nxt / ‖nxt‖₂
//
// The L2 normalization is a sequential region between jobs, realized with a
// cluster-wide sum reduction.

// evNormalizeKernel applies ev = nxt * invNorm and clears nxt.
type evNormalizeKernel struct {
	core.NoReads
	ev, nxt core.PropID
	invNorm float64
}

func (k *evNormalizeKernel) RunNodes(c *core.Ctx, nodes *core.Cursor) {
	for nodes.Next() {
		c.SetF64(k.ev, c.GetF64(k.nxt)*k.invNorm)
		c.SetF64(k.nxt, 0)
	}
}

// Eigenvector runs iters power iterations and returns the (L2-normalized)
// eigenvector centrality of every node.
func Eigenvector(c *core.Cluster, iters int) ([]float64, Metrics, error) {
	r := &runner{c: c}
	defer r.dropProps()
	ev := r.propF64("ev")
	nxt := r.propF64("ev_nxt")
	if r.err != nil {
		return nil, r.met, r.err
	}
	n := float64(c.NumNodes())
	c.FillF64(ev, 1/math.Sqrt(n))
	c.FillF64(nxt, 0)

	start := nowFn()
	for it := 0; it < iters && r.err == nil; it++ {
		r.run(core.JobSpec{Name: "ev-pull", Iter: core.IterInEdges,
			Task:      &sumPullKernel{src: ev, acc: nxt},
			ReadProps: []core.PropID{ev}})
		if r.err != nil {
			break
		}
		sumSq, err := c.ReduceMappedF64(nxt, reduce.Sum, func(v float64) float64 { return v * v })
		if err != nil {
			r.err = err
			break
		}
		invNorm := 0.0
		if sumSq > 0 {
			invNorm = 1 / math.Sqrt(sumSq)
		}
		r.run(core.JobSpec{Name: "ev-normalize", Iter: core.IterNodes,
			Task: &evNormalizeKernel{ev: ev, nxt: nxt, invNorm: invNorm}})
		r.met.Iterations++
	}
	r.met.Total = nowFn().Sub(start)
	if r.err != nil {
		return nil, r.met, r.err
	}
	return c.GatherF64(ev), r.met, nil
}
