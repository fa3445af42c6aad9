package algorithms

import (
	"math"

	"repro/internal/core"
	"repro/internal/reduce"
)

// The three PageRank variants of the paper's §5.2. All compute the power
// iteration
//
//	PR'(n) = (1-d)/N + d * Σ_{t∈inNbrs(n)} PR(t)/outDeg(t)
//
// but move the data differently: pull reads PR(t)/outDeg(t) from incoming
// neighbors (one-sided remote reads, plain local accumulation — no atomics);
// push writes n's contribution to each outgoing neighbor (SUM reductions, the
// only form conventional frameworks support: compare-and-swap loops where a
// machine's workers share the target column, plain adds on a one-worker
// machine, per-worker accumulators for remote targets); approx propagates only
// PR deltas and deactivates converged vertices.

// scaleKernel computes scaled = pr/outDeg per node (a temporary property, so
// the iteration job never reads and writes the same property — the paper's
// "temporary copies" discipline).
type scaleKernel struct {
	core.NoReads
	pr, scaled core.PropID
}

func (k *scaleKernel) RunNodes(c *core.Ctx, nodes *core.Cursor) {
	for nodes.Next() {
		if d := c.OutDegree(); d > 0 {
			c.SetF64(k.scaled, c.GetF64(k.pr)/float64(d))
		} else {
			c.SetF64(k.scaled, 0)
		}
	}
}

// sumPullKernel is the pull step of PageRank (src = scaled), personalized
// PageRank and eigenvector centrality (src = ev): it sums src over the
// node's incoming neighbors in a register — no atomic, because all edges of
// one node run on one worker — and folds the sum into the node's acc once,
// after the row. Mirrored remote neighbors fold in the same register, through
// the same view; the rest arrive later through ReadDone, which adds to acc
// directly, and the fold after the loop is a read-modify-write for exactly
// that reason (see core.RowTask on re-entrancy).
type sumPullKernel struct {
	src, acc core.PropID
}

func (k *sumPullKernel) RunRows(c *core.Ctx, rows *core.Cursor) {
	src := c.F64(k.src)
	for rows.Next() {
		var sum float64
		for _, ref := range rows.Row().Refs {
			if v, ok := src.At(ref); ok {
				sum += v
			} else {
				c.ReadRef(ref, k.src)
			}
		}
		c.SetF64(k.acc, c.GetF64(k.acc)+sum)
	}
}

func (k *sumPullKernel) ReadDone(c *core.Ctx, val uint64) {
	c.SetF64(k.acc, c.GetF64(k.acc)+core.F64Word(val))
}

// pushKernel reduces the node's own src word into every neighbor's dst with
// op — the push step of PageRank (scaled → nxt, SUM), approximate PageRank
// (scaled delta → next delta, SUM) and min-label propagation (label → next
// label, MIN). The value is read once per row — as a raw 8-byte word, so one
// kernel serves float64 and int64 properties.
type pushKernel struct {
	core.NoReads
	src, dst core.PropID
	op       reduce.Op
}

func (k *pushKernel) RunRows(c *core.Ctx, rows *core.Cursor) {
	dst := c.Writer(k.dst, k.op)
	for rows.Next() {
		dst.WriteRow(rows.Row().Refs, core.WordI64(c.GetI64(k.src)))
	}
}

// prApplyKernel finishes an iteration and prepares the next in one pass:
// pr = (1-d)/N + d*nxt, scaled = pr/outDeg, nxt = 0. Fusing the apply and
// scale phases halves the node-iterator jobs per power iteration.
type prApplyKernel struct {
	core.NoReads
	pr, nxt, scaled core.PropID
	base            float64
	damping         float64
}

func (k *prApplyKernel) RunNodes(c *core.Ctx, nodes *core.Cursor) {
	for nodes.Next() {
		pr := k.base + k.damping*c.GetF64(k.nxt)
		c.SetF64(k.pr, pr)
		c.SetF64(k.nxt, 0)
		if d := c.OutDegree(); d > 0 {
			c.SetF64(k.scaled, pr/float64(d))
		} else {
			c.SetF64(k.scaled, 0)
		}
	}
}

// PageRankPull runs iters power iterations with the pull pattern and returns
// the PageRank vector.
func PageRankPull(c *core.Cluster, iters int, damping float64) ([]float64, Metrics, error) {
	return pageRankExact(c, iters, damping, true)
}

// PageRankPush runs iters power iterations with the push pattern.
func PageRankPush(c *core.Cluster, iters int, damping float64) ([]float64, Metrics, error) {
	return pageRankExact(c, iters, damping, false)
}

func pageRankExact(c *core.Cluster, iters int, damping float64, pull bool) ([]float64, Metrics, error) {
	r := &runner{c: c}
	defer r.dropProps()
	pr := r.propF64("pr")
	nxt := r.propF64("pr_nxt")
	scaled := r.propF64("pr_scaled")
	if r.err != nil {
		return nil, r.met, r.err
	}
	n := float64(c.NumNodes())
	c.FillF64(pr, 1/n)
	c.FillF64(nxt, 0)

	start := nowFn()
	// Seed scaled = pr/outDeg once; afterwards the fused apply kernel keeps
	// it current.
	r.run(core.JobSpec{
		Name: "pr-scale", Iter: core.IterNodes,
		Task: &scaleKernel{pr: pr, scaled: scaled},
	})
	for it := 0; it < iters && r.err == nil; it++ {
		if pull {
			r.run(core.JobSpec{
				Name: "pr-pull", Iter: core.IterInEdges,
				Task:      &sumPullKernel{src: scaled, acc: nxt},
				ReadProps: []core.PropID{scaled},
			})
		} else {
			r.run(core.JobSpec{
				Name: "pr-push", Iter: core.IterOutEdges,
				Task:       &pushKernel{src: scaled, dst: nxt, op: reduce.Sum},
				WriteProps: []core.WriteSpec{{Prop: nxt, Op: reduce.Sum}},
			})
		}
		r.run(core.JobSpec{
			Name: "pr-apply", Iter: core.IterNodes,
			Task: &prApplyKernel{pr: pr, nxt: nxt, scaled: scaled, base: (1 - damping) / n, damping: damping},
		})
		r.met.Iterations++
	}
	r.met.Total = nowFn().Sub(start)
	if r.err != nil {
		return nil, r.met, r.err
	}
	return c.GatherF64(pr), r.met, nil
}

// --- approximate PageRank ----------------------------------------------------

// prDeltaApplyKernel folds the received delta into pr and decides activity:
// a node whose delta reaches the threshold joins the next active frontier
// with its damped, degree-scaled delta ready to push.
type prDeltaApplyKernel struct {
	core.NoReads
	pr, deltaNxt, scaledDelta core.PropID
	damping                   float64
	threshold                 float64
}

func (k *prDeltaApplyKernel) RunNodes(c *core.Ctx, nodes *core.Cursor) {
	for nodes.Next() {
		d := c.GetF64(k.deltaNxt)
		c.SetF64(k.deltaNxt, 0)
		c.SetF64(k.pr, c.GetF64(k.pr)+d)
		if math.Abs(d) >= k.threshold {
			c.Activate(0)
			if od := c.OutDegree(); od > 0 {
				c.SetF64(k.scaledDelta, k.damping*d/float64(od))
			} else {
				c.SetF64(k.scaledDelta, 0)
			}
		}
	}
}

// PageRankApprox runs the paper's delta-propagation PageRank: nodes whose
// delta falls below threshold leave the active frontier, so computation and
// communication shrink every iteration ("this method performs a decreasing
// amount of computation and communication as the iteration continues"). Only
// the push form exists — "this approximation only works with the push-based
// implementation."
func PageRankApprox(c *core.Cluster, damping, threshold float64, maxIter int) ([]float64, Metrics, error) {
	r := &runner{c: c}
	defer r.dropProps()
	pr := r.propF64("apr")
	deltaNxt := r.propF64("apr_delta_nxt")
	scaledDelta := r.propF64("apr_scaled")
	if r.err != nil {
		return nil, r.met, r.err
	}
	n := float64(c.NumNodes())
	base := (1 - damping) / n
	c.FillF64(pr, base)
	c.FillF64(deltaNxt, 0)
	c.FillF64(scaledDelta, 0)
	// Every node starts active with delta = base.
	r.run(core.JobSpec{
		Name: "apr-seed", Iter: core.IterNodes,
		Task: &seedScaledDelta{scaledDelta: scaledDelta, damped: damping * base},
	})
	active := c.NewFrontier("apr_active")
	active.Fill(nil)

	start := nowFn()
	for it := 0; it < maxIter && r.err == nil; it++ {
		r.run(core.JobSpec{
			Name: "apr-push", Iter: core.IterOutEdges, Source: active,
			Task:       &pushKernel{src: scaledDelta, dst: deltaNxt, op: reduce.Sum}, // damped deltas of active nodes
			WriteProps: []core.WriteSpec{{Prop: deltaNxt, Op: reduce.Sum}},
		})
		apply := r.runStats(core.JobSpec{
			Name: "apr-apply", Iter: core.IterNodes,
			Task: &prDeltaApplyKernel{
				pr: pr, deltaNxt: deltaNxt, scaledDelta: scaledDelta,
				damping: damping, threshold: threshold,
			},
			Build: []*core.Frontier{active},
		})
		r.met.Iterations++
		if r.err != nil || apply.Frontiers[0].Count == 0 {
			break
		}
	}
	r.met.Total = nowFn().Sub(start)
	if r.err != nil {
		return nil, r.met, r.err
	}
	return c.GatherF64(pr), r.met, nil
}

// seedScaledDelta writes the first round's scaled delta, damped/outDeg.
type seedScaledDelta struct {
	core.NoReads
	scaledDelta core.PropID
	damped      float64
}

func (k *seedScaledDelta) RunNodes(c *core.Ctx, nodes *core.Cursor) {
	for nodes.Next() {
		if od := c.OutDegree(); od > 0 {
			c.SetF64(k.scaledDelta, k.damped/float64(od))
		}
	}
}
