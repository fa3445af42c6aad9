package algorithms

import (
	"math"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/reduce"
)

// The traversal algorithms (WCC, SSSP, hop distance) run on the frontier API:
// an explicit active-vertex set drives each superstep (JobSpec.Source), the
// kernel of the adopt phase collects the next frontier (Ctx.Activate), and a
// directionPolicy picks push or pull per superstep. The frontier size and
// degree sums come back piggybacked on the job's termination allreduce, so no
// per-superstep ReduceI64 collective remains on this path. Push, pull and the
// engine's sparse/dense frontier dispatch are schedules of these same
// kernels, never separate implementations.

// --- WCC ---------------------------------------------------------------------

// wccPullKernel is the pull form of min-label propagation: every node scans
// its neighbors (both orientations) and folds their labels into its own
// labelNxt locally — remote reads instead of remote reductions.
type wccPullKernel struct {
	label, labelNxt core.PropID
}

func (k *wccPullKernel) RunRows(c *core.Ctx, rows *core.Cursor) {
	label := c.I64(k.label)
	for rows.Next() {
		best := int64(math.MaxInt64)
		for _, ref := range rows.Row().Refs {
			if v, ok := label.At(ref); ok {
				best = min(best, v)
			} else {
				c.ReadRef(ref, k.label)
			}
		}
		if best < c.GetI64(k.labelNxt) {
			c.SetI64(k.labelNxt, best)
		}
	}
}

func (k *wccPullKernel) ReadDone(c *core.Ctx, val uint64) {
	if v := core.I64Word(val); v < c.GetI64(k.labelNxt) {
		c.SetI64(k.labelNxt, v)
	}
}

// wccAdoptKernel adopts an improved label and activates the node into the
// next frontier.
type wccAdoptKernel struct {
	core.NoReads
	label, labelNxt core.PropID
}

func (k *wccAdoptKernel) RunNodes(c *core.Ctx, nodes *core.Cursor) {
	for nodes.Next() {
		if nxt := c.GetI64(k.labelNxt); nxt < c.GetI64(k.label) {
			c.SetI64(k.label, nxt)
			c.Activate(0)
		}
	}
}

// WCC computes weakly connected components by iterative min-label propagation
// over both edge orientations (weak connectivity ignores edge direction),
// with an explicit frontier of just-improved nodes and per-superstep
// push/pull selection: push scatters frontier labels with MIN reductions,
// pull has every node gather neighbor labels with reads. "In WCC, a
// deactivated node can later be active again" — adopting a smaller label
// re-enters the frontier. Returns the component label per node (the minimum
// global id in the component).
func WCC(c *core.Cluster, maxIter int) ([]int64, Metrics, error) {
	r := &runner{c: c}
	defer r.dropProps()
	label := r.propI64("wcc")
	labelNxt := r.propI64("wcc_nxt")
	if r.err != nil {
		return nil, r.met, r.err
	}
	c.FillByNodeI64(label, func(v graph.NodeID) int64 { return int64(v) })
	c.FillByNodeI64(labelNxt, func(v graph.NodeID) int64 { return int64(v) })

	cur := c.NewFrontier("wcc_cur")
	cur.Fill(nil) // every node starts with its own label to propagate
	stats := cur.Stats()
	// Min-label pull has no early exit (every neighbor label must be folded
	// in), so a pull superstep pays its full 2E scan.
	policy := policyFor(c, alphaFullScan)
	pullEdges := 2 * c.NumEdges() // a pull superstep scans both orientations

	start := nowFn()
	for it := 0; it < maxIter && r.err == nil; it++ {
		if stats.Count == 0 {
			break
		}
		push, pull := wccSteps(label, labelNxt, cur)
		r.superstep(policy, stats.Count, stats.OutDeg+stats.InDeg, pullEdges, push, pull)
		// The adopt pass scans every node, unlike SSSP's: sourcing it from the
		// nodes the push touched (WriteSpec.ActivateInto) was measured slower
		// on scan-local and allocated more per round: a label push lowers most
		// words several times per iteration, and each successful lowering
		// appends a build-shard entry (EXPERIMENTS.md, "Activation with
		// accumulation ...").
		adopt := r.runStats(core.JobSpec{Name: "wcc-adopt", Iter: core.IterNodes,
			Task:  &wccAdoptKernel{label: label, labelNxt: labelNxt},
			Build: []*core.Frontier{cur}})
		r.met.Iterations++
		if r.err != nil {
			break
		}
		stats = adopt.Frontiers[0]
	}
	r.met.Total = nowFn().Sub(start)
	if r.err != nil {
		return nil, r.met, r.err
	}
	return c.GatherI64(label), r.met, nil
}

// wccSteps is one WCC superstep in both directions: push scatters the labels
// of cur's members with MIN reductions, pull has every node gather its
// neighbors' labels.
func wccSteps(label, labelNxt core.PropID, cur *core.Frontier) (push, pull core.JobSpec) {
	return core.JobSpec{Name: "wcc-push", Iter: core.IterBothEdges,
			Source:     cur,
			Task:       &pushKernel{src: label, dst: labelNxt, op: reduce.Min},
			WriteProps: []core.WriteSpec{{Prop: labelNxt, Op: reduce.Min}}},
		core.JobSpec{Name: "wcc-pull", Iter: core.IterBothEdges,
			Task:      &wccPullKernel{label: label, labelNxt: labelNxt},
			ReadProps: []core.PropID{label}}
}

// --- SSSP (Bellman-Ford) -----------------------------------------------------

// distRelaxKernel relaxes each out-edge: nbr.distNxt = min(nbr.distNxt,
// dist + weight). Only frontier (just-improved) nodes relax; the write spec's
// ActivateInto collects the nodes whose distNxt a relaxation lowered — the
// only ones the adopt pass has to look at.
type distRelaxKernel struct {
	core.NoReads
	dist, distNxt core.PropID
}

func (k *distRelaxKernel) RunRows(c *core.Ctx, rows *core.Cursor) {
	nxt := c.Writer(k.distNxt, reduce.Min)
	for rows.Next() {
		d, row := c.GetF64(k.dist), rows.Row()
		for i, ref := range row.Refs {
			nxt.WriteF64(ref, d+row.Weight(i))
		}
	}
}

// ssspPullKernel is the pull form of edge relaxation: every node scans its
// in-edges and folds dist(u)+w(u,v) into its own distNxt. The sum uses the
// same operands in the same order as the push kernel, so the two directions
// produce bit-identical floats. A node that lowers its distNxt activates
// itself for the adopt pass.
type ssspPullKernel struct {
	dist, distNxt core.PropID
}

func (k *ssspPullKernel) RunRows(c *core.Ctx, rows *core.Cursor) {
	dist := c.F64(k.dist)
	for rows.Next() {
		row := rows.Row()
		best := math.Inf(1)
		for i, ref := range row.Refs {
			w := row.Weight(i)
			d := math.Inf(1)
			if v, ok := dist.At(ref); ok {
				d = v + w
			} else {
				c.Aux = core.WordF64(w) // the continuation's half of the sum
				c.ReadRef(ref, k.dist)
			}
			if d < best {
				best = d
			}
		}
		k.lower(c, best)
	}
}

func (k *ssspPullKernel) ReadDone(c *core.Ctx, val uint64) {
	k.lower(c, core.F64Word(val)+core.F64Word(c.Aux))
}

// lower folds d into the current node's distNxt.
func (k *ssspPullKernel) lower(c *core.Ctx, d float64) {
	if d < c.GetF64(k.distNxt) {
		c.SetF64(k.distNxt, d)
		c.Activate(0)
	}
}

// ssspAdoptKernel adopts an improved distance and activates the node. It runs
// over the touched frontier: dist equals distNxt everywhere after an adopt
// pass, so the nodes to adopt are exactly those whose distNxt the relaxation
// in between lowered.
type ssspAdoptKernel struct {
	core.NoReads
	dist, distNxt core.PropID
}

func (k *ssspAdoptKernel) RunNodes(c *core.Ctx, nodes *core.Cursor) {
	for nodes.Next() {
		if nxt := c.GetF64(k.distNxt); nxt < c.GetF64(k.dist) {
			c.SetF64(k.dist, nxt)
			c.Activate(0)
		}
	}
}

// SSSP computes single-source shortest path distances with the iterative
// Bellman-Ford scheme the paper uses, driven by a frontier of just-improved
// nodes with per-round push/pull selection; unreachable nodes report +Inf.
// Edge weights come from the loaded graph ("we generated these values using
// a uniform random distribution"). A source outside the graph is an error.
func SSSP(c *core.Cluster, source graph.NodeID, maxIter int) ([]float64, Metrics, error) {
	if err := checkSources(c, source); err != nil {
		return nil, Metrics{}, err
	}
	r := &runner{c: c}
	defer r.dropProps()
	dist := r.propF64("sssp")
	distNxt := r.propF64("sssp_nxt")
	if r.err != nil {
		return nil, r.met, r.err
	}
	inf := math.Inf(1)
	c.FillF64(dist, inf)
	c.FillF64(distNxt, inf)
	c.SetNodeF64(source, dist, 0)
	c.SetNodeF64(source, distNxt, 0)

	cur, touched := c.NewFrontier("sssp_cur"), c.NewFrontier("sssp_touched")
	cur.Add(source)
	stats := cur.Stats()
	// Edge relaxation has no early exit in pull form (min over every
	// in-edge), so a pull superstep pays its full E scan.
	policy := policyFor(c, alphaFullScan)
	pullEdges := c.NumEdges() // a pull superstep scans every in-edge once

	start := nowFn()
	for it := 0; it < maxIter && r.err == nil; it++ {
		if stats.Count == 0 {
			break
		}
		push, pull := ssspSteps(dist, distNxt, cur, touched)
		r.superstep(policy, stats.Count, stats.OutDeg, pullEdges, push, pull)
		adopt := r.runStats(core.JobSpec{Name: "sssp-adopt", Iter: core.IterNodes, Source: touched,
			Task:  &ssspAdoptKernel{dist: dist, distNxt: distNxt},
			Build: []*core.Frontier{cur}})
		r.met.Iterations++
		if r.err != nil {
			break
		}
		stats = adopt.Frontiers[0]
	}
	r.met.Total = nowFn().Sub(start)
	if r.err != nil {
		return nil, r.met, r.err
	}
	return c.GatherF64(dist), r.met, nil
}

// ssspSteps is one SSSP superstep in both directions, each collecting the
// nodes whose distNxt it lowered into touched: push relaxes the out-edges of
// cur's members, pull has every node fold in its in-edges.
func ssspSteps(dist, distNxt core.PropID, cur, touched *core.Frontier) (push, pull core.JobSpec) {
	return core.JobSpec{Name: "sssp-relax", Iter: core.IterOutEdges,
			Source:     cur,
			Task:       &distRelaxKernel{dist: dist, distNxt: distNxt},
			WriteProps: []core.WriteSpec{{Prop: distNxt, Op: reduce.Min, ActivateInto: 1}},
			Build:      []*core.Frontier{touched}},
		core.JobSpec{Name: "sssp-pull", Iter: core.IterInEdges,
			Task:      &ssspPullKernel{dist: dist, distNxt: distNxt},
			ReadProps: []core.PropID{dist},
			Build:     []*core.Frontier{touched}}
}

// --- hop distance (BFS) -------------------------------------------------------

// hopPushKernel is the top-down BFS step: frontier nodes (all at the current
// level) push level+1 into each out-neighbor's dist with a MIN reduction.
// The write spec's ActivateInto makes the engine activate every node whose
// dist the reduction actually changed — exactly the unvisited nodes claimed
// this level — so the next frontier is a receiver-side by-product of the
// relaxation and no separate adopt pass runs.
type hopPushKernel struct {
	core.NoReads
	dist  core.PropID
	level int64
}

func (k *hopPushKernel) RunRows(c *core.Ctx, rows *core.Cursor) {
	dist, word := c.Writer(k.dist, reduce.Min), core.WordI64(k.level+1)
	for rows.Next() {
		dist.WriteRow(rows.Row().Refs, word)
	}
}

// hopPullKernel is the bottom-up BFS step (the direction-optimizing pull):
// each still-unvisited node scans its in-neighbors for one on the current
// level and claims level+1 for itself, activating into the next frontier.
// The scan stops at the first hit — the early exit that makes pull win on
// dense levels — whether the hit is a local or a mirrored in-neighbor.
// Claims are deterministic: only values that were exactly level at job start
// can match, and a mid-superstep self-claim writes level+1, which no reader
// can mistake for level.
type hopPullKernel struct {
	dist  core.PropID
	level int64
}

func (k *hopPullKernel) RunRows(c *core.Ctx, rows *core.Cursor) {
	dist := c.I64(k.dist)
next:
	for rows.Next() {
		for _, ref := range rows.Row().Refs {
			d, ok := dist.At(ref)
			if !ok {
				// On demand: the in-neighbor resolves asynchronously and cannot stop
				// the scan, but its continuation still claims the level. The read can
				// run queued continuations of this node, so the own-node check sits
				// next to it, never cached across it.
				if c.GetI64(k.dist) == k.level+1 {
					continue next // already claimed by an earlier in-neighbor's response
				}
				c.ReadRef(ref, k.dist)
				continue
			}
			if d == k.level {
				k.claim(c)
				continue next
			}
		}
	}
}

func (k *hopPullKernel) ReadDone(c *core.Ctx, val uint64) {
	if core.I64Word(val) == k.level {
		k.claim(c)
	}
}

// claim takes level+1 for the current node, once.
func (k *hopPullKernel) claim(c *core.Ctx) {
	if c.GetI64(k.dist) != k.level+1 {
		c.SetI64(k.dist, k.level+1)
		c.Activate(0)
	}
}

// hopUnreached marks not-yet-visited nodes during a traversal: MaxInt64 less
// headroom so level+1 cannot wrap.
const hopUnreached = int64(math.MaxInt64) - 1

// bfs runs one breadth-first traversal from root into dist with
// direction-optimizing search: top-down (push) supersteps while the frontier
// is small, bottom-up (pull) supersteps over the unvisited set once the
// frontier's out-edge work rivals the unvisited side's in-edge work. Each
// level is a single job — push builds the next frontier receiver-side
// (WriteSpec.ActivateInto), pull builds it via self-activation — and the
// unvisited set is maintained incrementally by subtracting each new frontier.
// Both directions assign identical levels, so the result is bit-identical to
// either fixed direction; unreached nodes keep hopUnreached. cur and unvis
// are scratch frontiers whose membership is overwritten, so a caller running
// many traversals (Closeness) creates them once.
func (r *runner) bfs(dist core.PropID, cur, unvis *core.Frontier, root graph.NodeID, maxIter int) {
	c := r.c
	c.FillI64(dist, hopUnreached)
	c.SetNodeI64(root, dist, 0)
	cur.Reset()
	cur.Add(root)
	unvis.Fill(func(v graph.NodeID) bool { return v != root })
	curStats, unvisStats := cur.Stats(), unvis.Stats()

	policy := policyFor(c, alphaEarlyExit)
	for level := int64(0); int(level) < maxIter && r.err == nil; level++ {
		if curStats.Count == 0 {
			break
		}
		push, pull := hopSteps(dist, level, cur, unvis, cur)
		st := r.superstep(policy, curStats.Count, curStats.OutDeg, unvisStats.InDeg, push, pull)
		r.met.Iterations++
		if r.err != nil {
			break
		}
		curStats = st.Frontiers[0]
		unvis.Subtract(cur)
		unvisStats = unvis.Stats()
	}
}

// hopSteps is one BFS level in both directions, each building the newly
// reached nodes into next: push scatters level+1 from cur's members (the nodes
// on level), pull has each member of unvis look for an in-neighbor on level.
func hopSteps(dist core.PropID, level int64, cur, unvis, next *core.Frontier) (push, pull core.JobSpec) {
	return core.JobSpec{Name: "hop-push", Iter: core.IterOutEdges,
			Source:     cur,
			Task:       &hopPushKernel{dist: dist, level: level},
			WriteProps: []core.WriteSpec{{Prop: dist, Op: reduce.Min, ActivateInto: 1}},
			Build:      []*core.Frontier{next}},
		core.JobSpec{Name: "hop-pull", Iter: core.IterInEdges,
			Source:    unvis,
			Task:      &hopPullKernel{dist: dist, level: level},
			ReadProps: []core.PropID{dist},
			Build:     []*core.Frontier{next}}
}

// HopDist computes breadth-first hop distances from root ("Breadth-first
// traversal from the root"); see runner.bfs. Unreachable nodes report
// math.MaxInt64; a root outside the graph is an error.
func HopDist(c *core.Cluster, root graph.NodeID, maxIter int) ([]int64, Metrics, error) {
	if err := checkSources(c, root); err != nil {
		return nil, Metrics{}, err
	}
	r := &runner{c: c}
	defer r.dropProps()
	dist := r.propI64("hop")
	if r.err != nil {
		return nil, r.met, r.err
	}
	start := nowFn()
	r.bfs(dist, c.NewFrontier("hop_cur"), c.NewFrontier("hop_unvis"), root, maxIter)
	r.met.Total = nowFn().Sub(start)
	if r.err != nil {
		return nil, r.met, r.err
	}
	out := c.GatherI64(dist)
	for i, v := range out {
		if v >= hopUnreached {
			out[i] = math.MaxInt64
		}
	}
	return out, r.met, nil
}
