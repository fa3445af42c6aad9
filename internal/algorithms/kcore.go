package algorithms

import (
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/reduce"
)

// KCore finds the biggest k-core number of the graph (Table 2: "Find
// Biggest K-core number") by iterative peeling over the undirected view:
// for k = 1, 2, ... repeatedly remove every surviving node whose remaining
// degree is below k, decrementing its neighbors' degrees, until no node is
// removed; if any node survives, the graph has a k-core. The largest such k
// is the answer, and each node's core number is the last k at which it
// survived.
//
// The peeling runs an enormous number of tiny parallel steps, which is why
// the paper singles it out: "for algorithms which require a lot of iteration
// steps while each step does a very small amount of work (e.g. KCore), the
// performance is totally governed by these [framework] overheads."

// The peeling state is three columns and three frontiers. The columns are a
// node's remaining degree, its alive flag and its core number; the frontiers
// are what a step iterates, so a step costs what it touches rather than O(N):
// alive sources the first mark pass of each k, dying is what a mark pass
// kills (and what the decrement pass iterates), and touched — the nodes whose
// degree the decrement pass changed, collected receiver-side by the write's
// ActivateInto — sources every later mark pass of the same k, since at a
// fixed k only a node whose degree just fell can newly drop below it.

// dyingMarkKernel kills an alive node whose degree fell below k: it joins the
// dying frontier and its core number is settled at k-1, the last k it
// survived.
type dyingMarkKernel struct {
	core.NoReads
	deg, alive, coreNum core.PropID
	k                   int64
}

func (kk *dyingMarkKernel) RunNodes(c *core.Ctx, nodes *core.Cursor) {
	for nodes.Next() {
		if c.GetI64(kk.alive) != 0 && c.GetI64(kk.deg) < kk.k {
			c.SetI64(kk.alive, 0)
			c.SetI64(kk.coreNum, kk.k-1)
			c.Activate(0)
		}
	}
}

// degDecKernel subtracts 1 from each neighbor's remaining degree; run from
// dying nodes over both orientations (undirected view).
type degDecKernel struct {
	core.NoReads
	deg core.PropID
}

func (kk *degDecKernel) RunRows(c *core.Ctx, rows *core.Cursor) {
	deg := c.Writer(kk.deg, reduce.Sum)
	for rows.Next() {
		deg.WriteRow(rows.Row().Refs, core.WordI64(-1))
	}
}

// KCore returns the maximum core number, each node's core number, and
// metrics. maxK caps the search (0 means unbounded).
func KCore(c *core.Cluster, maxK int64) (int64, []int64, Metrics, error) {
	r := &runner{c: c}
	defer r.dropProps()
	deg := r.propI64("kcore_deg")
	alive := r.propI64("kcore_alive")
	coreNum := r.propI64("kcore_num")
	if r.err != nil {
		return 0, nil, r.met, r.err
	}
	c.FillI64(alive, 1)
	// A node's core number is written when it dies. Only a capped search
	// leaves survivors, and theirs is the cap.
	c.FillI64(coreNum, max(maxK, 0))
	aliveSet, dying, touched := c.NewFrontier("kcore_alive"), c.NewFrontier("kcore_dying"), c.NewFrontier("kcore_touched")
	aliveSet.Fill(nil)
	start := nowFn()
	// Initialize remaining degree = in+out (undirected multigraph view).
	r.run(core.JobSpec{Name: "kcore-deg", Iter: core.IterNodes, Task: &degInitKernel{deg: deg}})

	best := int64(0)
	for k := int64(1); (maxK <= 0 || k <= maxK) && r.err == nil; k++ {
		// Inner loop: peel until stable at this k.
		for from := aliveSet; ; from = touched {
			mark := r.runStats(core.JobSpec{Name: "kcore-mark", Iter: core.IterNodes, Source: from,
				Task:  &dyingMarkKernel{deg: deg, alive: alive, coreNum: coreNum, k: k},
				Build: []*core.Frontier{dying}})
			if r.err != nil {
				break
			}
			r.met.Iterations++
			if mark.Frontiers[0].Count == 0 {
				break
			}
			aliveSet.Subtract(dying)
			r.run(core.JobSpec{Name: "kcore-dec", Iter: core.IterBothEdges, Source: dying,
				Task:       &degDecKernel{deg: deg},
				WriteProps: []core.WriteSpec{{Prop: deg, Op: reduce.Sum, ActivateInto: 1}},
				Build:      []*core.Frontier{touched}})
		}
		if r.err != nil || aliveSet.Count() == 0 {
			break
		}
		best = k
	}
	r.met.Total = nowFn().Sub(start)
	if r.err != nil {
		return 0, nil, r.met, r.err
	}
	return best, c.GatherI64(coreNum), r.met, nil
}

type degInitKernel struct {
	core.NoReads
	deg core.PropID
}

func (kk *degInitKernel) RunNodes(c *core.Ctx, nodes *core.Cursor) {
	for nodes.Next() {
		c.SetI64(kk.deg, c.InDegree()+c.OutDegree())
	}
}

// CoreNumberReference computes core numbers sequentially with the standard
// peeling algorithm over the undirected multigraph view — used by tests to
// validate the distributed implementation.
func CoreNumberReference(g *graph.Graph) (int64, []int64) {
	n := g.NumNodes()
	deg := make([]int64, n)
	for u := 0; u < n; u++ {
		deg[u] = g.TotalDegree(graph.NodeID(u))
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	coreNum := make([]int64, n)
	best := int64(0)
	remaining := n
	for k := int64(1); remaining > 0; k++ {
		for {
			removed := 0
			for u := 0; u < n; u++ {
				if alive[u] && deg[u] < k {
					alive[u] = false
					removed++
					remaining--
					for _, v := range g.Out.Neighbors(graph.NodeID(u)) {
						deg[v]--
					}
					for _, v := range g.In.Neighbors(graph.NodeID(u)) {
						deg[v]--
					}
				}
			}
			if removed == 0 {
				break
			}
		}
		if remaining == 0 {
			break
		}
		best = k
		for u := 0; u < n; u++ {
			if alive[u] {
				coreNum[u] = k
			}
		}
	}
	return best, coreNum
}
