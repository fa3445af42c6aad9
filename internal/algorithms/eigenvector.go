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
// The L2 norm is a sequential region between jobs, a cluster-wide sum
// reduction; the division by it rides in the next pull. Each iteration is one
// job that reads the previous, un-normalised nxt through its view and writes
// the other of two nxt columns (ping-pong, the paper's temporary copies),
// scaling every word it reads by the previous 1/‖nxt‖ — ev(t) = nxt(t)/‖nxt‖
// as SA computes it, but never stored — and the driver normalises once, on
// the gathered vector.

// evPullKernel is one iteration: the row head zeroes the node's dst word, the
// row sums scale·src over the words its view holds in a register and hands
// every other ref to ReadRef, and the fold adds the sum to dst — a
// read-modify-write, because a continuation of the node may have added its
// part meanwhile (see core.RowTask on re-entrancy). ReadDone adds
// scale·word. The word, not the row's sum, is scaled, so the sum adds the
// same terms in the same order as SA's and as the kernel's per-edge form.
type evPullKernel struct {
	src, dst core.PropID
	scale    float64
}

func (k *evPullKernel) RunRows(c *core.Ctx, rows *core.Cursor) {
	src := c.F64(k.src)
	for rows.Next() {
		c.SetF64(k.dst, 0)
		var sum float64
		for _, ref := range rows.Row().Refs {
			if v, ok := src.At(ref); ok {
				sum += float64(v * k.scale) // rounded: never fused into the add
			} else {
				c.ReadRef(ref, k.src)
			}
		}
		c.SetF64(k.dst, c.GetF64(k.dst)+sum)
	}
}

func (k *evPullKernel) ReadDone(c *core.Ctx, val uint64) {
	c.SetF64(k.dst, c.GetF64(k.dst)+float64(core.F64Word(val)*k.scale))
}

// Eigenvector runs iters power iterations and returns the (L2-normalized)
// eigenvector centrality of every node.
func Eigenvector(c *core.Cluster, iters int) ([]float64, Metrics, error) {
	r := &runner{c: c}
	defer r.dropProps()
	nxt := [2]core.PropID{r.propF64("ev_nxt"), r.propF64("ev_nxt2")}
	if r.err != nil {
		return nil, r.met, r.err
	}
	// ev₀ = 1/√N, read by the first pull at scale 1.
	c.FillF64(nxt[0], 1/math.Sqrt(float64(c.NumNodes())))
	invNorm := 1.0

	start := nowFn()
	it := 0
	for ; it < iters && r.err == nil; it++ {
		pull := &evPullKernel{src: nxt[it%2], dst: nxt[1-it%2], scale: invNorm}
		r.run(core.JobSpec{Name: "ev-pull", Iter: core.IterInEdges,
			Task:      pull,
			ReadProps: []core.PropID{pull.src}})
		if r.err != nil {
			break
		}
		sumSq, err := c.ReduceMappedF64(pull.dst, reduce.Sum, func(v float64) float64 { return v * v })
		if err != nil {
			r.err = err
			break
		}
		invNorm = 0
		if sumSq > 0 {
			invNorm = 1 / math.Sqrt(sumSq)
		}
		r.met.Iterations++
	}
	r.met.Total = nowFn().Sub(start)
	if r.err != nil {
		return nil, r.met, r.err
	}
	ev := c.GatherF64(nxt[it%2])
	for u, v := range ev {
		ev[u] = v * invNorm
	}
	return ev, r.met, nil
}
