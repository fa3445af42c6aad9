package algorithms

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

func TestTriangleCountMatchesReference(t *testing.T) {
	g := testGraph(t)
	want := TriangleCountReference(g)
	if want == 0 {
		t.Fatal("test graph has no triads; pick a denser graph")
	}
	for _, p := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			c := boot(t, g, p)
			got, met, err := TriangleCount(c, g)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("triads = %d, want %d", got, want)
			}
			if met.Jobs != 1 {
				t.Errorf("jobs = %d", met.Jobs)
			}
			countResolved(t, c, g, want)
		})
	}
}

// countResolved counts again once a mirrored pull has built the load's remote
// sets, so that the kernel's remote neighbours arrive as replica refs, which
// IsRemote, RefGlobal and SplitRemoteRef must place as they placed the
// packed ones.
func countResolved(t *testing.T, c *core.Cluster, g *graph.Graph, want int64) {
	t.Helper()
	if _, _, err := PageRankPull(c, 1, 0.85); err != nil {
		t.Fatal(err)
	}
	if got, _, err := TriangleCount(c, g); err != nil || got != want {
		t.Errorf("triads over resolved rows = %d (%v), want %d", got, err, want)
	}
}

func TestTriangleCountChunkedRMI(t *testing.T) {
	// Tiny buffers force multi-chunk adjacency shipping.
	g := testGraph(t)
	want := TriangleCountReference(g)
	cfg := core.DefaultConfig(3)
	cfg.BufferSize = 256 // ~57 ids per chunk; max degree is far larger
	c, err := core.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if err := c.Load(g); err != nil {
		t.Fatal(err)
	}
	got, _, err := TriangleCount(c, g)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("triads = %d, want %d", got, want)
	}
	countResolved(t, c, g, want)
}

func TestTriangleCountKnownGraph(t *testing.T) {
	// Complete directed triangle 0→1→2→0 plus the closing chords 0→2, 1→0,
	// 2→1: every ordered pair is an edge, so every (u,v) edge closes with
	// exactly one w. 6 edges x 1 = 6 transitive triads.
	var edges []graph.Edge
	for u := 0; u < 3; u++ {
		for v := 0; v < 3; v++ {
			if u != v {
				edges = append(edges, graph.Edge{Src: graph.NodeID(u), Dst: graph.NodeID(v)})
			}
		}
	}
	g, err := graph.FromEdges(3, edges, false)
	if err != nil {
		t.Fatal(err)
	}
	if ref := TriangleCountReference(g); ref != 6 {
		t.Fatalf("reference = %d, want 6", ref)
	}
	c := boot(t, g, 2)
	got, _, err := TriangleCount(c, g)
	if err != nil {
		t.Fatal(err)
	}
	if got != 6 {
		t.Errorf("triads = %d, want 6", got)
	}
}

func TestTriangleCountRejectsMismatchedGraph(t *testing.T) {
	g := testGraph(t)
	other, err := graph.Uniform(10, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := boot(t, g, 2)
	if _, _, err := TriangleCount(c, other); err == nil {
		t.Error("mismatched graph accepted")
	}
}

func TestPersonalizedPageRankMatchesReference(t *testing.T) {
	g := testGraph(t)
	sources := []graph.NodeID{0, 7, 100}
	want := PersonalizedPageRankReference(g, sources, 8, 0.85)
	for _, p := range []int{1, 3} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			c := boot(t, g, p)
			got, met, err := PersonalizedPageRank(c, sources, 8, 0.85)
			if err != nil {
				t.Fatal(err)
			}
			if met.Iterations != 8 {
				t.Errorf("iterations = %d", met.Iterations)
			}
			assertClose(t, "ppr", got, want, 1e-12)
		})
	}
}

func TestPersonalizedPageRankConcentratesNearSources(t *testing.T) {
	// On a grid, mass must decay with hop distance from the source.
	g, err := graph.Grid(20, 20, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := boot(t, g, 2)
	src := graph.NodeID(0)
	ppr, _, err := PersonalizedPageRank(c, []graph.NodeID{src}, 30, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	hops, _, err := HopDist(c, src, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// Average rank at distance 1 must exceed average rank at distance 10.
	avgAt := func(d int64) float64 {
		var sum float64
		var n int
		for i, h := range hops {
			if h == d {
				sum += ppr[i]
				n++
			}
		}
		if n == 0 {
			t.Fatalf("no nodes at distance %d", d)
		}
		return sum / float64(n)
	}
	if near, far := avgAt(1), avgAt(10); near <= far {
		t.Errorf("rank at distance 1 (%g) not above distance 10 (%g)", near, far)
	}
	if ppr[src] <= 0 {
		t.Error("source has no rank")
	}
	// Total mass stays bounded by 1.
	var total float64
	for _, v := range ppr {
		total += v
	}
	if total > 1+1e-9 || math.IsNaN(total) {
		t.Errorf("total mass = %g", total)
	}
}

func TestPersonalizedPageRankValidation(t *testing.T) {
	g := testGraph(t)
	c := boot(t, g, 2)
	if _, _, err := PersonalizedPageRank(c, nil, 5, 0.85); err == nil {
		t.Error("empty source set accepted")
	}
	if _, _, err := PersonalizedPageRank(c, []graph.NodeID{graph.NodeID(g.NumNodes() + 1)}, 5, 0.85); err == nil {
		t.Error("out-of-range source accepted")
	}
}

func TestMISIsValidAndDeterministic(t *testing.T) {
	g := testGraph(t)
	var first []bool
	for _, p := range []int{1, 3} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			c := boot(t, g, p)
			inSet, met, err := MIS(c, 42, 0)
			if err != nil {
				t.Fatal(err)
			}
			if msg := VerifyMIS(g, inSet); msg != "" {
				t.Fatalf("invalid MIS: %s", msg)
			}
			if met.Iterations == 0 {
				t.Error("no rounds recorded")
			}
			size := 0
			for _, in := range inSet {
				if in {
					size++
				}
			}
			if size == 0 {
				t.Error("empty MIS on a non-empty graph")
			}
			if first == nil {
				first = inSet
			} else {
				for i := range inSet {
					if inSet[i] != first[i] {
						t.Fatalf("MIS differs across machine counts at node %d", i)
					}
				}
			}
		})
	}
}

func TestMISOnPathGraph(t *testing.T) {
	// Path 0-1-2-3-4 (undirected view): an MIS must alternate; verify via
	// the checker and require at least 2 members.
	var edges []graph.Edge
	for i := 0; i < 4; i++ {
		edges = append(edges, graph.Edge{Src: graph.NodeID(i), Dst: graph.NodeID(i + 1)})
	}
	g, err := graph.FromEdges(5, edges, false)
	if err != nil {
		t.Fatal(err)
	}
	c := boot(t, g, 2)
	inSet, _, err := MIS(c, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if msg := VerifyMIS(g, inSet); msg != "" {
		t.Fatalf("invalid MIS: %s", msg)
	}
	size := 0
	for _, in := range inSet {
		if in {
			size++
		}
	}
	if size < 2 {
		t.Errorf("path MIS size = %d, want >= 2", size)
	}
}

func TestMISWithSelfLoops(t *testing.T) {
	g, err := graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 0}, {Src: 0, Dst: 1}, {Src: 2, Dst: 2}}, false)
	if err != nil {
		t.Fatal(err)
	}
	c := boot(t, g, 2)
	inSet, _, err := MIS(c, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if msg := VerifyMIS(g, inSet); msg != "" {
		t.Fatalf("invalid MIS: %s", msg)
	}
	// Node 2 only has a self-loop: it must be in the set.
	if !inSet[2] {
		t.Error("self-loop-only vertex excluded")
	}
}

func TestClosenessMatchesReference(t *testing.T) {
	g := testGraph(t)
	want := ClosenessReference(g, 4, 99)
	for _, p := range []int{1, 3} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			c := boot(t, g, p)
			got, met, err := Closeness(c, 4, 99, 10000)
			if err != nil {
				t.Fatal(err)
			}
			assertClose(t, "closeness", got, want, 1e-9)
			if met.Iterations == 0 {
				t.Error("no iterations")
			}
		})
	}
}

func TestClosenessSampleClamp(t *testing.T) {
	g, err := graph.Grid(4, 4, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := boot(t, g, 2)
	// More samples than nodes clamps; center nodes beat corners.
	got, _, err := Closeness(c, 100, 5, 1000)
	if err != nil {
		t.Fatal(err)
	}
	corner, center := got[0], got[5] // (0,0) vs (1,1)
	if center <= corner {
		t.Errorf("center closeness %g not above corner %g", center, corner)
	}
}
