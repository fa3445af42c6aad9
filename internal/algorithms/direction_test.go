package algorithms

import (
	"fmt"
	"testing"

	"repro/internal/baseline/sa"
	"repro/internal/core"
	"repro/internal/graph"
)

// TestDirectionRule drives the memoryless push/pull rule directly: push→pull
// only while the frontier grows and its edges exceed pullEdges/α, at both
// α the traversals use; pull→push only once the frontier shrinks below N/24;
// never a second pull phase; and each pin fixes the direction.
func TestDirectionRule(t *testing.T) {
	type step struct {
		size, edges, pullEdges int64
		want                   direction
	}
	const n = 2400 // N/24 = 100
	for _, tc := range []struct {
		name  string
		alpha float64
		pin   core.Ablation
		steps []step
	}{
		{"early-exit/pull-once-edges-exceed", alphaEarlyExit, 0, []step{
			{10, 100, 1000, dirPush},
			{20, 500, 1000, dirPush}, // edges = pullEdges/α is not enough
			{30, 501, 1000, dirPull},
		}},
		{"early-exit/no-pull-without-growth", alphaEarlyExit, 0, []step{
			{10, 100, 1000, dirPush},
			{10, 900, 1000, dirPush}, // same size: not growing
			{9, 900, 1000, dirPush},  // shrinking
			{12, 900, 1000, dirPull},
		}},
		{"full-scan/pull-once-edges-exceed", alphaFullScan, 0, []step{
			{10, 100, 2000, dirPush},
			{20, 500, 2000, dirPush}, // edges = pullEdges/α is not enough
			{30, 499, 2000, dirPush},
			{40, 501, 2000, dirPull},
		}},
		{"full-scan/first-step-pulls", alphaFullScan, 0, []step{
			// WCC's first step: the whole graph is the frontier and its edges
			// are exactly the pull scan; the first step grows from an empty
			// frontier.
			{n, 2000, 2000, dirPull},
		}},
		{"full-scan/quarter-scan-stays-push", alphaFullScan, 0, []step{
			{n, 500, 2000, dirPush},
		}},
		{"push-again-when-shrinking-and-small", alphaEarlyExit, 0, []step{
			{10, 100, 1000, dirPush},
			{60, 900, 1000, dirPull},
			{80, 900, 1000, dirPull},  // small but growing
			{300, 900, 1000, dirPull}, // growing
			{150, 900, 1000, dirPull}, // shrinking, but not below N/24
			{100, 900, 1000, dirPull}, // N/24 itself is not below it
			{99, 900, 1000, dirPush},
		}},
		{"one-pull-phase", alphaEarlyExit, 0, []step{
			{10, 100, 1000, dirPush},
			{200, 900, 1000, dirPull},
			{50, 100, 1000, dirPush},
			{400, 5000, 1000, dirPush}, // growing, edges far over: still push
			{800, 9000, 10, dirPush},
		}},
		{"pin-push", alphaEarlyExit, core.AblatePinPush, []step{
			{10, 100, 1000, dirPush},
			{200, 9000, 1, dirPush},
			{1, 0, 1000, dirPush},
		}},
		{"pin-pull", alphaFullScan, core.AblatePinPull, []step{
			{10, 0, 1000, dirPull},
			{200, 9000, 1, dirPull},
			{1, 0, 1000, dirPull},
		}},
		{"pin-both-pulls", alphaEarlyExit, core.AblatePinPush | core.AblatePinPull, []step{
			{10, 0, 1000, dirPull},
			{1, 0, 1000, dirPull},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := &directionPolicy{alpha: tc.alpha, nodes: n, pin: tc.pin}
			for i, s := range tc.steps {
				if got := p.choose(s.size, s.edges, s.pullEdges); got != s.want {
					t.Errorf("step %d (size %d, edges %d, pullEdges %d): %v, want %v", i, s.size, s.edges, s.pullEdges, got, s.want)
				}
			}
		})
	}
}

// maxOutDegreeVertex is the benchmark's traversal source: the node with the
// most out-edges (the lowest id on a tie).
func maxOutDegreeVertex(g *graph.Graph) graph.NodeID {
	best := graph.NodeID(0)
	for v := 1; v < g.NumNodes(); v++ {
		if g.OutDegree(graph.NodeID(v)) > g.OutDegree(best) {
			best = graph.NodeID(v)
		}
	}
	return best
}

// TestDirectionStepsByShape pins the push/pull step counts the rule gives
// each traversal on the graph shapes the benchmark runs, at p = 1 and 2 (the
// rule reads cluster-wide frontier sums, so the counts do not depend on p),
// with every output exact against SA. A small-world graph pulls its dense
// middle; a grid keeps SSSP and BFS all-push — their frontiers never come
// near the scan — while WCC, whose first frontier is the whole graph, pulls
// every step but its push tail.
func TestDirectionStepsByShape(t *testing.T) {
	rmat, err := graph.RMAT(13, 16, graph.TwitterLike(), 20151115)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := graph.Grid(128, 128, 0, 20151115)
	if err != nil {
		t.Fatal(err)
	}
	shortcuts, err := graph.Grid(64, 64, 32, 20151115)
	if err != nil {
		t.Fatal(err)
	}
	rmat, grid = rmat.WithUniformWeights(1, 100, 20151115), grid.WithUniformWeights(1, 100, 20151115)
	shortcuts = shortcuts.WithUniformWeights(1, 100, 20151115)
	type run func(t *testing.T, c *core.Cluster, g *graph.Graph, src graph.NodeID) (Metrics, error)
	wcc := func(t *testing.T, c *core.Cluster, g *graph.Graph, _ graph.NodeID) (Metrics, error) {
		got, met, err := WCC(c, 1<<20)
		if err == nil {
			want, _ := sa.WCC(g, 1)
			assertEqualI64(t, "wcc", got, want)
		}
		return met, err
	}
	sssp := func(t *testing.T, c *core.Cluster, g *graph.Graph, src graph.NodeID) (Metrics, error) {
		got, met, err := SSSP(c, src, 1<<20)
		if err == nil {
			want, _ := sa.SSSP(g, src, 1)
			assertBitsF64(t, "sssp", got, want)
		}
		return met, err
	}
	hop := func(t *testing.T, c *core.Cluster, g *graph.Graph, src graph.NodeID) (Metrics, error) {
		got, met, err := HopDist(c, src, 1<<20)
		if err == nil {
			want, _ := sa.HopDist(g, src, 1)
			assertEqualI64(t, "hopdist", got, want)
		}
		return met, err
	}
	for _, tc := range []struct {
		name       string
		g          *graph.Graph
		run        run
		push, pull int
	}{
		{"rmat/wcc", rmat, wcc, 2, 3},
		{"rmat/sssp", rmat, sssp, 4, 5},
		{"rmat/hopdist", rmat, hop, 2, 2},
		{"grid/sssp", grid, sssp, 264, 0},
		{"grid/hopdist", grid, hop, 253, 0},
		{"grid/wcc", grid, wcc, 36, 219},
		// Shortcuts widen the frontier but not enough: the rows that an α of
		// 8 would flip into pulling a sparse tail.
		{"grid-shortcuts/sssp", shortcuts, sssp, 61, 0},
		{"grid-shortcuts/hopdist", shortcuts, hop, 46, 0},
	} {
		for _, p := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/p=%d", tc.name, p), func(t *testing.T) {
				met, err := tc.run(t, boot(t, tc.g, p), tc.g, maxOutDegreeVertex(tc.g))
				if err != nil {
					t.Fatal(err)
				}
				if met.PushSteps != tc.push || met.PullSteps != tc.pull {
					t.Errorf("push/pull steps %d/%d, want %d/%d", met.PushSteps, met.PullSteps, tc.push, tc.pull)
				}
			})
		}
	}
}
