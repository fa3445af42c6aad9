package algorithms

import (
	"fmt"
	"testing"

	"repro/internal/baseline/sa"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/reduce"
)

// Per-edge forms of the row kernels — one call per edge with per-ref ReadRef
// and Writer.Write, as the kernels were written before each became a loop over
// its row, an early exit being a true return. Test-only:
// TestRowDispatchMatchesPerEdge runs every algorithm through them (driven by
// perEdgeRows) and through the row kernels, and requires the same answers.

// edgeKernel is a per-edge kernel: edge runs for one edge of the current node,
// ref its neighbor and weight its weight, and reports whether the node is
// done.
type edgeKernel interface {
	core.Task
	edge(c *core.Ctx, ref int64, weight float64) (done bool)
}

// rowHead is implemented by an edgeKernel with work at the head of each row,
// before its first edge — a reset the row kernel makes before its loop, which
// must reach the nodes whose rows are empty too.
type rowHead interface {
	head(c *core.Ctx)
}

// perEdgeRows drives an edgeKernel by the row: its head, if it has one, then
// one edge call per ref, in row order, until one reports the node done.
type perEdgeRows struct{ edgeKernel }

func (d perEdgeRows) RunRows(c *core.Ctx, rows *core.Cursor) {
	h, _ := d.edgeKernel.(rowHead)
next:
	for rows.Next() {
		if h != nil {
			h.head(c)
		}
		row := rows.Row()
		for i, ref := range row.Refs {
			if d.edge(c, ref, row.Weight(i)) {
				continue next
			}
		}
	}
}

// rankPullEdge is rankPullKernel's iteration edge by edge: the head zeroes
// the raw sum and writes the empty row's next scaled word; every edge's word
// arrives through ReadDone and folds like a continuation.
type rankPullEdge struct{ k rankPullKernel }

func (e *rankPullEdge) head(c *core.Ctx) {
	c.SetF64(e.k.acc, 0)
	e.k.fold(c, 0)
}
func (e *rankPullEdge) edge(c *core.Ctx, ref int64, _ float64) bool {
	c.ReadRef(ref, e.k.src)
	return false
}
func (e *rankPullEdge) ReadDone(c *core.Ctx, val uint64) { e.k.fold(c, core.F64Word(val)) }

type evPullEdge struct {
	src, dst core.PropID
	scale    float64
}

func (k *evPullEdge) head(c *core.Ctx) { c.SetF64(k.dst, 0) }
func (k *evPullEdge) edge(c *core.Ctx, ref int64, _ float64) bool {
	c.ReadRef(ref, k.src)
	return false
}
func (k *evPullEdge) ReadDone(c *core.Ctx, val uint64) {
	c.SetF64(k.dst, c.GetF64(k.dst)+float64(core.F64Word(val)*k.scale))
}

type pushEdge struct {
	core.NoReads
	src, dst core.PropID
	op       reduce.Op
}

func (k *pushEdge) edge(c *core.Ctx, ref int64, _ float64) bool {
	c.Writer(k.dst, k.op).Write(ref, core.WordI64(c.GetI64(k.src)))
	return false
}

type wccPullEdge struct{ label, labelNxt core.PropID }

func (k *wccPullEdge) edge(c *core.Ctx, ref int64, _ float64) bool {
	c.ReadRef(ref, k.label)
	return false
}
func (k *wccPullEdge) ReadDone(c *core.Ctx, val uint64) {
	if v := core.I64Word(val); v < c.GetI64(k.labelNxt) {
		c.SetI64(k.labelNxt, v)
	}
}

type distRelaxEdge struct {
	core.NoReads
	dist, distNxt core.PropID
}

func (k *distRelaxEdge) edge(c *core.Ctx, ref int64, weight float64) bool {
	c.Writer(k.distNxt, reduce.Min).Write(ref, core.WordF64(c.GetF64(k.dist)+weight))
	return false
}

type ssspPullEdge struct{ dist, distNxt core.PropID }

func (k *ssspPullEdge) edge(c *core.Ctx, ref int64, weight float64) bool {
	c.Aux = core.WordF64(weight)
	c.ReadRef(ref, k.dist)
	return false
}
func (k *ssspPullEdge) ReadDone(c *core.Ctx, val uint64) {
	if d := core.F64Word(val) + core.F64Word(c.Aux); d < c.GetF64(k.distNxt) {
		c.SetF64(k.distNxt, d)
		c.Activate(0) // into the touched frontier, as the row kernel does
	}
}

type hopPushEdge struct {
	core.NoReads
	dist  core.PropID
	level int64
}

func (k *hopPushEdge) edge(c *core.Ctx, ref int64, _ float64) bool {
	c.Writer(k.dist, reduce.Min).Write(ref, core.WordI64(k.level+1))
	return false
}

// hopPullEdge stops at the edge after the one whose ReadDone — run at once
// for a local or mirrored in-neighbor — claimed the level.
type hopPullEdge struct {
	dist  core.PropID
	level int64
}

func (k *hopPullEdge) edge(c *core.Ctx, ref int64, _ float64) bool {
	if c.GetI64(k.dist) == k.level+1 {
		return true
	}
	c.ReadRef(ref, k.dist)
	return false
}
func (k *hopPullEdge) ReadDone(c *core.Ctx, val uint64) {
	if core.I64Word(val) == k.level && c.GetI64(k.dist) != k.level+1 {
		c.SetI64(k.dist, k.level+1)
		c.Activate(0)
	}
}

type degDecEdge struct {
	core.NoReads
	deg core.PropID
}

func (k *degDecEdge) edge(c *core.Ctx, ref int64, _ float64) bool {
	c.Writer(k.deg, reduce.Sum).Write(ref, core.WordI64(-1))
	return false
}

type misPushPriorityEdge struct {
	core.NoReads
	pri, nbrPri core.PropID
}

func (k *misPushPriorityEdge) edge(c *core.Ctx, ref int64, _ float64) bool {
	if ref != int64(c.Node) {
		c.Writer(k.nbrPri, reduce.Max).Write(ref, core.WordI64(c.GetI64(k.pri)))
	}
	return false
}

type misExcludeEdge struct {
	core.NoReads
	excluded core.PropID
}

func (k *misExcludeEdge) edge(c *core.Ctx, ref int64, _ float64) bool {
	c.Writer(k.excluded, reduce.Or).Write(ref, core.WordI64(1))
	return false
}

// perEdgeForm maps a row kernel to its per-edge copy behind perEdgeRows and
// passes node-iterator kernels through. A row kernel without a copy panics,
// so a newly converted kernel cannot dodge the equivalence test.
func perEdgeForm(task core.Task) core.Task {
	var edge edgeKernel
	switch k := task.(type) {
	case *rankPullKernel:
		edge = &rankPullEdge{k: *k}
	case *evPullKernel:
		edge = &evPullEdge{src: k.src, dst: k.dst, scale: k.scale}
	case *pushKernel:
		edge = &pushEdge{src: k.src, dst: k.dst, op: k.op}
	case *wccPullKernel:
		edge = &wccPullEdge{label: k.label, labelNxt: k.labelNxt}
	case *distRelaxKernel:
		edge = &distRelaxEdge{dist: k.dist, distNxt: k.distNxt}
	case *ssspPullKernel:
		edge = &ssspPullEdge{dist: k.dist, distNxt: k.distNxt}
	case *hopPushKernel:
		edge = &hopPushEdge{dist: k.dist, level: k.level}
	case *hopPullKernel:
		edge = &hopPullEdge{dist: k.dist, level: k.level}
	case *degDecKernel:
		edge = &degDecEdge{deg: k.deg}
	case *misPushPriority:
		edge = &misPushPriorityEdge{pri: k.pri, nbrPri: k.nbrPri}
	case *misExcludeMark:
		edge = &misExcludeEdge{excluded: k.excluded}
	default:
		if _, isRow := task.(core.RowTask); isRow {
			panic(fmt.Sprintf("rowform_test: no per-edge copy of row kernel %T", task))
		}
		return task
	}
	return perEdgeRows{edge}
}

// suiteResult is one pass of every algorithm with an edge-iterator kernel.
type suiteResult struct {
	wcc, hop, kcore         []int64
	kcoreBest               int64
	mis                     []bool
	sssp                    []float64
	prPull, prPush, prAprx  []float64
	eigenvector, personalPR []float64
}

const (
	rowPRIters  = 4
	rowAprxIter = 12
	rowAprxEps  = 1e-6
	rowMISSeed  = 17
)

func runSuite(t *testing.T, c *core.Cluster, root graph.NodeID, withKCore bool) suiteResult {
	t.Helper()
	n := c.NumNodes()
	var r suiteResult
	var err error
	must := func(name string) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	r.wcc, _, err = WCC(c, n)
	must("wcc")
	r.sssp, _, err = SSSP(c, root, n)
	must("sssp")
	r.hop, _, err = HopDist(c, root, n)
	must("hopdist")
	if withKCore {
		r.kcoreBest, r.kcore, _, err = KCore(c, 0)
		must("kcore")
	}
	r.mis, _, err = MIS(c, rowMISSeed, 0)
	must("mis")
	r.prPull, _, err = PageRankPull(c, rowPRIters, 0.85)
	must("pr-pull")
	r.prPush, _, err = PageRankPush(c, rowPRIters, 0.85)
	must("pr-push")
	r.prAprx, _, err = PageRankApprox(c, 0.85, rowAprxEps, rowAprxIter)
	must("pr-approx")
	r.eigenvector, _, err = Eigenvector(c, rowPRIters)
	must("eigenvector")
	r.personalPR, _, err = PersonalizedPageRank(c, []graph.NodeID{root}, rowPRIters, 0.85)
	must("personalized")
	return r
}

// rowCluster boots p machines over the chosen fabric.
func rowCluster(t *testing.T, g *graph.Graph, p int, useTCP bool, set core.Ablation) *core.Cluster {
	t.Helper()
	c, err := core.NewCluster(latticeConfig(t, p, useTCP, set))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	if err := c.Load(g); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRowDispatchMatchesPerEdge: every algorithm gives the same answer
// through its row kernels and through per-edge copies of them driven by
// perEdgeRows — bit for bit for the Min and integer kernels and, on one
// machine, for the pull-form float sums (one worker adds a node's neighbors
// in edge order either way); to 1e-12 where continuations or atomic SUMs
// arrive in a schedule-dependent order — and both match the standalone
// reference. Over a small-world RMAT and a grid, one to three machines in
// process and two over TCP, in the default configuration and with every
// traversal pinned to its pull schedule (the adaptive policy rarely picks it
// on graphs this small).
func TestRowDispatchMatchesPerEdge(t *testing.T) {
	rmat, err := graph.RMAT(11, 8, graph.TwitterLike(), 4242)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := graph.Grid(30, 30, 0, 99)
	if err != nil {
		t.Fatal(err)
	}
	const root = graph.NodeID(0)
	for _, tg := range []struct {
		name string
		g    *graph.Graph
	}{{"rmat11", rmat.WithUniformWeights(1, 10, 7)}, {"grid30", grid.WithUniformWeights(1, 10, 7)}} {
		g := tg.g
		var want suiteResult
		want.wcc, _ = sa.WCC(g, 1)
		want.sssp, _ = sa.SSSP(g, root, 1)
		want.hop, _ = sa.HopDist(g, root, 1)
		want.kcoreBest, want.kcore, _ = sa.KCore(g, 1)
		want.prPull = sa.PageRank(g, rowPRIters, 0.85, 1)
		want.prAprx, _ = sa.PageRankApprox(g, 0.85, rowAprxEps, rowAprxIter, 1)
		want.eigenvector = sa.Eigenvector(g, rowPRIters, 1)
		want.personalPR = PersonalizedPageRankReference(g, []graph.NodeID{root}, rowPRIters, 0.85)

		for _, fab := range []struct {
			p   int
			tcp bool
		}{{1, false}, {2, false}, {3, false}, {2, true}} {
			for _, v := range []struct {
				name string
				set  core.Ablation
			}{{"default", 0}, {"pin-pull", core.AblatePinPull}} {
				name := fmt.Sprintf("%s/p=%d,tcp=%v/%s", tg.name, fab.p, fab.tcp, v.name)
				t.Run(name, func(t *testing.T) {
					// k-core's hundreds of near-empty supersteps add nothing over
					// TCP that the in-process run of the same kernels does not show.
					withKCore := !fab.tcp
					row := runSuite(t, rowCluster(t, g, fab.p, fab.tcp, v.set), root, withKCore)
					kernelHook = perEdgeForm
					defer func() { kernelHook = nil }()
					edge := runSuite(t, rowCluster(t, g, fab.p, fab.tcp, v.set), root, withKCore)

					for _, form := range []struct {
						name string
						got  suiteResult
					}{{"row", row}, {"per-edge", edge}} {
						got := form.got
						assertEqualI64(t, form.name+" wcc", got.wcc, want.wcc)
						assertBitsF64(t, form.name+" sssp", got.sssp, want.sssp)
						assertEqualI64(t, form.name+" hopdist", got.hop, want.hop)
						if withKCore {
							if got.kcoreBest != want.kcoreBest {
								t.Fatalf("%s kcore max = %d, want %d", form.name, got.kcoreBest, want.kcoreBest)
							}
							assertEqualI64(t, form.name+" kcore", got.kcore, want.kcore)
						}
						if msg := VerifyMIS(g, got.mis); msg != "" {
							t.Fatalf("%s mis: %s", form.name, msg)
						}
						assertClose(t, form.name+" pr-pull", got.prPull, want.prPull, 1e-9)
						assertClose(t, form.name+" pr-push", got.prPush, want.prPull, 1e-9)
						assertClose(t, form.name+" pr-approx", got.prAprx, want.prAprx, 1e-9)
						assertClose(t, form.name+" eigenvector", got.eigenvector, want.eigenvector, 1e-9)
						assertClose(t, form.name+" personalized", got.personalPR, want.personalPR, 1e-9)
					}
					for i := range row.mis {
						if row.mis[i] != edge.mis[i] {
							t.Fatalf("mis[%d]: row %v, per-edge %v", i, row.mis[i], edge.mis[i])
						}
					}
					pullSums := assertBitsF64
					if fab.p > 1 {
						pullSums = func(t *testing.T, name string, got, want []float64) {
							t.Helper()
							assertClose(t, name, got, want, 1e-12)
						}
					}
					pullSums(t, "row vs per-edge pr-pull", row.prPull, edge.prPull)
					pullSums(t, "row vs per-edge eigenvector", row.eigenvector, edge.eigenvector)
					pullSums(t, "row vs per-edge personalized", row.personalPR, edge.personalPR)
					assertClose(t, "row vs per-edge pr-push", row.prPush, edge.prPush, 1e-12)
					assertClose(t, "row vs per-edge pr-approx", row.prAprx, edge.prAprx, 1e-12)
				})
			}
		}
	}
}
