package algorithms

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/baseline/sa"
	"repro/internal/core"
	"repro/internal/graph"
)

// stepPair is one traversal's push and pull superstep over a fixed state:
// the two JobSpecs the traversal hands runner.superstep, the edge work the
// direction rule charges each (the frontier's edges and pullEdges), and
// reset, which restores the columns a step writes so that every timed run
// starts from the same state.
type stepPair struct {
	name                 string
	push, pull           core.JobSpec
	pushEdges, pullEdges int64
	reset                func()
}

// wccStep is WCC's first superstep: every node's label is its own id and the
// whole graph is the frontier. Both directions scan both orientations (2E).
func wccStep(r *runner) stepPair {
	c := r.c
	label, labelNxt := r.propI64("wcc"), r.propI64("wcc_nxt")
	ids := func(v graph.NodeID) int64 { return int64(v) }
	c.FillByNodeI64(label, ids)
	all := c.NewFrontier("wcc_cur")
	all.Fill(nil)
	st := all.Stats()
	sp := stepPair{name: "wcc", pushEdges: st.OutDeg + st.InDeg, pullEdges: 2 * c.NumEdges(),
		reset: func() { c.FillByNodeI64(labelNxt, ids) }}
	sp.push, sp.pull = wccSteps(label, labelNxt, all)
	return sp
}

// ssspStep relaxes every edge from the converged distances of g's SSSP from
// root into a distNxt reset to +Inf: the whole graph is the frontier and
// every reached node is lowered at least once, in either direction. Both
// directions scan E edges.
func ssspStep(r *runner, g *graph.Graph, root graph.NodeID) stepPair {
	c := r.c
	want, _ := sa.SSSP(g, root, 1)
	dist, distNxt := r.propF64("sssp"), r.propF64("sssp_nxt")
	c.FillByNodeF64(dist, func(v graph.NodeID) float64 { return want[v] })
	all, touched := c.NewFrontier("sssp_cur"), c.NewFrontier("sssp_touched")
	all.Fill(nil)
	sp := stepPair{name: "sssp", pushEdges: all.Stats().OutDeg, pullEdges: c.NumEdges(),
		reset: func() { c.FillF64(distNxt, math.Inf(1)) }}
	sp.push, sp.pull = ssspSteps(dist, distNxt, all, touched)
	return sp
}

// bfsStep is the heaviest level L of a BFS from root, the one whose nodes
// have the most out-edges: push scatters level L+1 from the nodes on level L,
// pull scans the in-edges of the nodes past L for one on L and stops at the
// first. Unlike WCC's and SSSP's, a BFS pull's cost per charged edge (the
// unvisited side's in-degree) depends on how soon its scans hit the level,
// so a whole-graph frontier would say nothing about it; the heaviest level
// is the one the rule pulls first.
func bfsStep(r *runner, g *graph.Graph, root graph.NodeID) stepPair {
	c := r.c
	levels, _ := sa.HopDist(g, root, 1)
	work := map[int64]int64{}
	heavy := int64(0)
	for v, l := range levels {
		if l == math.MaxInt64 {
			continue
		}
		if work[l] += g.OutDegree(graph.NodeID(v)); work[l] > work[heavy] {
			heavy = l
		}
	}
	dist := r.propI64("hop")
	front, unvis, next := c.NewFrontier("hop_cur"), c.NewFrontier("hop_unvis"), c.NewFrontier("hop_next")
	front.Fill(func(v graph.NodeID) bool { return levels[v] == heavy })
	unvis.Fill(func(v graph.NodeID) bool { return levels[v] > heavy })
	sp := stepPair{name: fmt.Sprintf("bfs-level%d", heavy),
		pushEdges: front.Stats().OutDeg, pullEdges: unvis.Stats().InDeg,
		reset: func() {
			c.FillByNodeI64(dist, func(v graph.NodeID) int64 {
				if levels[v] > heavy {
					return hopUnreached
				}
				return levels[v]
			})
		}}
	// The newly reached nodes go into a frontier of their own, not into
	// front as in runner.bfs, so that every timed run scatters from the same
	// level.
	sp.push, sp.pull = hopSteps(dist, heavy, front, unvis, next)
	return sp
}

// BenchmarkDirectionStep prices the direction rule's α: it times one push
// and one pull superstep of each traversal's real kernels over the same
// state — WCC's min-label and SSSP's relaxation over a whole-graph frontier,
// BFS at its heaviest level — and reports nanoseconds per edge the rule
// charges each side, on RMAT(14,16) at Workers 1 and 4, one machine and two
// in process. Pull pays off once frontier edges > pullEdges × (pull ns/edge
// ÷ push ns/edge), so the push/pull ratio it reports is the α at which push
// and pull break even for that state.
func BenchmarkDirectionStep(b *testing.B) {
	g, err := graph.RMAT(14, 16, graph.TwitterLike(), 20151115)
	if err != nil {
		b.Fatal(err)
	}
	wg := g.WithUniformWeights(1, 100, 20151115)
	root := maxOutDegreeVertex(g)
	for _, p := range []int{1, 2} {
		for _, workers := range []int{1, 4} {
			for _, step := range []struct {
				g    *graph.Graph
				pair func(r *runner) stepPair
			}{
				{g, wccStep},
				{wg, func(r *runner) stepPair { return ssspStep(r, wg, root) }},
				{g, func(r *runner) stepPair { return bfsStep(r, g, root) }},
			} {
				cfg := core.DefaultConfig(p)
				cfg.Workers = workers
				c, err := core.NewCluster(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := c.Load(step.g); err != nil {
					b.Fatal(err)
				}
				r := &runner{c: c}
				sp := step.pair(r)
				if r.err != nil {
					b.Fatal(r.err)
				}
				b.Run(fmt.Sprintf("p=%d/workers=%d/%s", p, workers, sp.name), func(b *testing.B) {
					var pushT, pullT time.Duration
					timed := func(spec core.JobSpec) time.Duration {
						b.StopTimer()
						sp.reset()
						b.StartTimer()
						start := time.Now()
						if _, err := c.RunJob(spec); err != nil {
							b.Fatal(err)
						}
						return time.Since(start)
					}
					timed(sp.push) // warm-up: pools, mirrors, side slices
					timed(sp.pull)
					b.ResetTimer()
					for range b.N {
						pushT += timed(sp.push)
						pullT += timed(sp.pull)
					}
					pushNS := float64(pushT.Nanoseconds()) / float64(int64(b.N)*sp.pushEdges)
					pullNS := float64(pullT.Nanoseconds()) / float64(int64(b.N)*sp.pullEdges)
					b.ReportMetric(pushNS, "push-ns/edge")
					b.ReportMetric(pullNS, "pull-ns/edge")
					b.ReportMetric(pushNS/pullNS, "push/pull")
				})
				c.Shutdown()
			}
		}
	}
}
