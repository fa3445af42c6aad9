package algorithms

import (
	"math"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/reduce"
)

// The three PageRank variants of the paper's §5.2. All compute the power
// iteration
//
//	PR'(n) = (1-d)/N + d * Σ_{t∈inNbrs(n)} PR(t)/outDeg(t)
//
// but move the data differently: pull reads PR(t)/outDeg(t) from incoming
// neighbors (one-sided remote reads, plain local accumulation — no atomics)
// and finishes each node in its own row, so an iteration is one job; push
// writes n's contribution to each outgoing neighbor (SUM reductions, the
// only form conventional frameworks support: compare-and-swap loops where a
// machine's workers share the target column, plain adds on a one-worker
// machine, per-worker accumulators for remote targets) and needs an apply
// pass after the drain, where its sums are complete; approx propagates only
// PR deltas and deactivates converged vertices.

// restart says where PageRank's teleport term lands: on every node, or — for
// personalized PageRank — on the nodes whose sources word is non-zero.
type restart struct {
	sources  core.PropID
	personal bool
}

func (r restart) at(c *core.Ctx) bool { return !r.personal || c.GetI64(r.sources) != 0 }

// rankSeedKernel writes the first iteration's scaled = pr₀/outDeg, pr₀ being
// v where the restart term lands and 0 elsewhere.
type rankSeedKernel struct {
	core.NoReads
	restart
	scaled core.PropID
	v      float64
}

func (k *rankSeedKernel) RunNodes(c *core.Ctx, nodes *core.Cursor) {
	for nodes.Next() {
		var s float64
		if d := c.OutDegree(); d > 0 && k.at(c) {
			s = k.v / float64(d)
		}
		c.SetF64(k.scaled, s)
	}
}

// rankPullKernel is one whole iteration of PageRank-pull and personalized
// PageRank. The row head zeroes the node's raw sum (acc); the row sums the
// src (scaled) words its view holds in a register and hands every other ref
// to ReadRef; the fold stores s = acc + sum and writes the next iteration's
// scaled word, (restart + d·s)/outDeg, into dst — the other of two scaled
// columns, the paper's temporary copy, so the job never reads what it
// writes. ReadDone runs the same fold with the arriving word, so whichever
// update of a node runs last — the row's or a continuation's, mid-row (see
// core.RowTask on re-entrancy) or after it — leaves dst at the final
// pr/outDeg. The rank itself is never stored: the driver computes
// restart + d·acc once, on the gathered sums.
type rankPullKernel struct {
	restart
	src, dst, acc core.PropID
	base, damping float64
}

func (k *rankPullKernel) RunRows(c *core.Ctx, rows *core.Cursor) {
	src := c.F64(k.src)
	for rows.Next() {
		c.SetF64(k.acc, 0)
		var sum float64
		for _, ref := range rows.Row().Refs {
			if v, ok := src.At(ref); ok {
				sum += v
			} else {
				c.ReadRef(ref, k.src)
			}
		}
		k.fold(c, sum)
	}
}

func (k *rankPullKernel) ReadDone(c *core.Ctx, val uint64) { k.fold(c, core.F64Word(val)) }

// fold adds part to the node's raw sum and rewrites its next scaled word.
func (k *rankPullKernel) fold(c *core.Ctx, part float64) {
	s := c.GetF64(k.acc) + part
	c.SetF64(k.acc, s)
	var next float64
	if d := c.OutDegree(); d > 0 {
		var base float64
		if k.at(c) {
			base = k.base
		}
		next = (base + k.damping*s) / float64(d)
	}
	c.SetF64(k.dst, next)
}

// pullRank runs iters one-job iterations of PageRank-pull (sources nil) or
// of personalized PageRank restarting at sources, under column names
// prefixed by name.
func pullRank(c *core.Cluster, name string, iters int, damping float64, sources []graph.NodeID) ([]float64, Metrics, error) {
	r := &runner{c: c}
	defer r.dropProps()
	acc := r.propF64(name + "_sum")
	scaled := [2]core.PropID{r.propF64(name + "_scaled"), r.propF64(name + "_scaled_nxt")}
	n := c.NumNodes()
	// pr₀ and the restart term: uniform for PageRank, on the sources alone
	// for the personalized form.
	k := rankPullKernel{acc: acc, damping: damping, base: (1 - damping) / float64(n)}
	v0 := 1 / float64(n)
	if sources != nil {
		k.restart = restart{sources: r.propI64(name + "_src"), personal: true}
		k.base = (1 - damping) / float64(len(sources))
		v0 = 1 / float64(len(sources))
	}
	if r.err != nil {
		return nil, r.met, r.err
	}
	if k.personal {
		c.FillI64(k.sources, 0)
		for _, s := range sources {
			c.SetNodeI64(s, k.sources, 1)
		}
	}

	start := nowFn()
	r.run(core.JobSpec{
		Name: name + "-scale", Iter: core.IterNodes,
		Task: &rankSeedKernel{restart: k.restart, scaled: scaled[0], v: v0},
	})
	for it := 0; it < iters && r.err == nil; it++ {
		pull := k
		pull.src, pull.dst = scaled[it%2], scaled[1-it%2]
		r.run(core.JobSpec{
			Name: name + "-pull", Iter: core.IterInEdges,
			Task:      &pull,
			ReadProps: []core.PropID{pull.src},
		})
		r.met.Iterations++
	}
	r.met.Total = nowFn().Sub(start)
	if r.err != nil {
		return nil, r.met, r.err
	}
	var isSource []bool // nil: the restart term lands everywhere
	if k.personal {
		isSource = make([]bool, n)
		for _, s := range sources {
			isSource[s] = true
		}
	}
	var pr []float64
	if iters == 0 {
		pr = make([]float64, n)
		for u := range pr {
			if isSource == nil || isSource[u] {
				pr[u] = v0
			}
		}
		return pr, r.met, nil
	}
	// The rank, restart + d·sum, is computed once, on the gathered sums.
	pr = c.GatherF64(acc)
	for u, s := range pr {
		var base float64
		if isSource == nil || isSource[u] {
			base = k.base
		}
		pr[u] = base + damping*s
	}
	return pr, r.met, nil
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

// prApplyKernel finishes a push iteration and prepares the next in one pass:
// pr = (1-d)/N + d*nxt, scaled = pr/outDeg, nxt = 0. A push's sums are
// complete only after its drain, so this pass cannot ride in the push itself.
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

// PageRankPull runs iters power iterations with the pull pattern — one job
// each — and returns the PageRank vector.
func PageRankPull(c *core.Cluster, iters int, damping float64) ([]float64, Metrics, error) {
	return pullRank(c, "pr", iters, damping, nil)
}

// PageRankPush runs iters power iterations with the push pattern: a push,
// then the apply pass over the drained sums.
func PageRankPush(c *core.Cluster, iters int, damping float64) ([]float64, Metrics, error) {
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
		Task: &rankSeedKernel{scaled: scaled, v: 1 / n},
	})
	for it := 0; it < iters && r.err == nil; it++ {
		r.run(core.JobSpec{
			Name: "pr-push", Iter: core.IterOutEdges,
			Task:       &pushKernel{src: scaled, dst: nxt, op: reduce.Sum},
			WriteProps: []core.WriteSpec{{Prop: nxt, Op: reduce.Sum}},
		})
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
