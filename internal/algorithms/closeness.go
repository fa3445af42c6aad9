package algorithms

import (
	"math"

	"repro/internal/baseline/sa"
	"repro/internal/core"
	"repro/internal/graph"
)

// Sampled harmonic closeness centrality: for K sampled sources s, run a BFS
// and accumulate 1/dist(s, v) at every reached vertex v; the estimate for v
// is the scaled sum n/K * Σ 1/dist. Harmonic closeness handles disconnected
// graphs gracefully (unreachable pairs contribute zero), which matters on
// RMAT instances with many small components. Each BFS reuses the engine's
// HopDist machinery; the accumulation is one extra node job per source.

// closenessAccumKernel folds one finished BFS into the harmonic sums.
type closenessAccumKernel struct {
	core.NoReads
	dist, acc core.PropID
}

func (k *closenessAccumKernel) Run(c *core.Ctx) {
	d := c.GetI64(k.dist)
	if d <= 0 || d >= hopUnreached {
		return // self or unreached
	}
	c.SetF64(k.acc, c.GetF64(k.acc)+1/float64(d))
}

// closenessRoots returns the seeded pseudo-random sample sources, samples
// clamped to [1, n].
func closenessRoots(n, samples int, seed int64) []graph.NodeID {
	samples = max(1, min(samples, n))
	roots := make([]graph.NodeID, samples)
	state := uint64(seed)*2862933555777941757 + 3037000493
	for s := range roots {
		state = state*2862933555777941757 + 3037000493
		roots[s] = graph.NodeID(state % uint64(n))
	}
	return roots
}

// Closeness estimates harmonic closeness from samples deterministic
// pseudo-random sources (seeded). samples is clamped to the node count.
func Closeness(c *core.Cluster, samples int, seed int64, maxIter int) ([]float64, Metrics, error) {
	r := &runner{c: c}
	defer r.dropProps()
	acc := r.propF64("close_acc")
	dist := r.propI64("close_dist")
	if r.err != nil {
		return nil, r.met, r.err
	}
	n := c.NumNodes()
	roots := closenessRoots(n, samples, seed)
	c.FillF64(acc, 0)
	cur, unvis := c.NewFrontier("close_cur"), c.NewFrontier("close_unvis")

	start := nowFn()
	for _, root := range roots {
		if r.err != nil {
			break
		}
		r.bfs(dist, cur, unvis, root, maxIter)
		r.run(core.JobSpec{Name: "close-accum", Iter: core.IterNodes,
			Task: &closenessAccumKernel{dist: dist, acc: acc}})
	}
	r.met.Total = nowFn().Sub(start)
	if r.err != nil {
		return nil, r.met, r.err
	}
	out := c.GatherF64(acc)
	scale := float64(n) / float64(len(roots))
	for i := range out {
		out[i] *= scale
	}
	return out, r.met, nil
}

// ClosenessReference computes the same sampled estimate sequentially (same
// source sequence, the SA baseline's BFS) for tests.
func ClosenessReference(g *graph.Graph, samples int, seed int64) []float64 {
	n := g.NumNodes()
	roots := closenessRoots(n, samples, seed)
	acc := make([]float64, n)
	for _, root := range roots {
		dist, _ := sa.HopDist(g, root, 1)
		for v, d := range dist {
			if d > 0 && d < math.MaxInt64 {
				acc[v] += 1 / float64(d)
			}
		}
	}
	scale := float64(n) / float64(len(roots))
	for i := range acc {
		acc[i] *= scale
	}
	return acc
}
