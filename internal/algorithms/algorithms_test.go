package algorithms

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/baseline/sa"
	"repro/internal/core"
	"repro/internal/graph"
)

func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := graph.RMAT(9, 8, graph.TwitterLike(), 4242)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func boot(t testing.TB, g *graph.Graph, p int) *core.Cluster {
	t.Helper()
	c, err := core.NewCluster(core.DefaultConfig(p))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	if err := c.Load(g); err != nil {
		t.Fatal(err)
	}
	return c
}

func assertClose(t *testing.T, name string, got, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		gi, wi := got[i], want[i]
		if math.IsInf(wi, 1) {
			if !math.IsInf(gi, 1) {
				t.Fatalf("%s[%d] = %g, want +Inf", name, i, gi)
			}
			continue
		}
		if d := math.Abs(gi - wi); d > tol {
			t.Fatalf("%s[%d] = %g, want %g (|diff| %g > %g)", name, i, gi, wi, d, tol)
		}
	}
}

func assertEqualI64(t *testing.T, name string, got, want []int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %d, want %d", name, i, got[i], want[i])
		}
	}
}

func TestPageRankPullMatchesSA(t *testing.T) {
	g := testGraph(t)
	want := sa.PageRank(g, 10, 0.85, 1)
	for _, p := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			c := boot(t, g, p)
			got, met, err := PageRankPull(c, 10, 0.85)
			if err != nil {
				t.Fatal(err)
			}
			// One seed job plus one job per iteration: the pull finishes
			// every node in its row.
			if met.Iterations != 10 || met.Jobs != 1+10 {
				t.Errorf("metrics: %d iters, %d jobs", met.Iterations, met.Jobs)
			}
			assertClose(t, "pr", got, want, 1e-10)
			if met.PerIteration() <= 0 {
				t.Error("PerIteration not positive")
			}
		})
	}
}

func TestPageRankPushMatchesPull(t *testing.T) {
	g := testGraph(t)
	want := sa.PageRank(g, 8, 0.85, 0)
	c := boot(t, g, 4)
	got, _, err := PageRankPush(c, 8, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	// Push accumulates in arbitrary order: float addition is not
	// associative, so allow a tiny tolerance.
	assertClose(t, "pr-push", got, want, 1e-9)
}

func TestPageRankSumsToOne(t *testing.T) {
	g := testGraph(t)
	c := boot(t, g, 3)
	got, _, err := PageRankPull(c, 30, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	// With dangling nodes PageRank mass leaks, so the sum is <= 1 but must
	// stay in (0, 1].
	var sum float64
	for _, v := range got {
		if v < 0 {
			t.Fatal("negative PageRank")
		}
		sum += v
	}
	if sum <= 0 || sum > 1+1e-9 {
		t.Errorf("PageRank sum = %g", sum)
	}
}

func TestPageRankApproxMatchesSA(t *testing.T) {
	g := testGraph(t)
	wantPR, wantIters := sa.PageRankApprox(g, 0.85, 1e-7, 100, 1)
	c := boot(t, g, 4)
	got, met, err := PageRankApprox(c, 0.85, 1e-7, 100)
	if err != nil {
		t.Fatal(err)
	}
	if met.Iterations != wantIters {
		t.Errorf("iterations = %d, want %d", met.Iterations, wantIters)
	}
	assertClose(t, "apr", got, wantPR, 1e-9)
	// Approximate PR approaches exact PR.
	exact := sa.PageRank(g, 60, 0.85, 1)
	assertClose(t, "apr-vs-exact", got, exact, 1e-4)
}

func TestApproxTrafficShrinksAcrossIterations(t *testing.T) {
	// The defining behaviour: "decreasing amount of computation and
	// communication as the iteration continues". Compare traffic of the
	// first iteration against a late one by running two prefixes. The
	// threshold sits where this graph's deltas (~1/n, decaying 0.85x per
	// iteration) start deactivating nodes inside ten iterations; a much
	// tighter one deactivates nothing that early and the ratio is 10x give
	// or take buffer packing.
	g := testGraph(t)
	run := func(iters int) int64 {
		c := boot(t, g, 4)
		_, met, err := PageRankApprox(c, 0.85, 1e-4, iters)
		if err != nil {
			t.Fatal(err)
		}
		return met.Traffic.DataBytesSent
	}
	one := run(1)
	ten := run(10)
	if ten >= 10*one {
		t.Errorf("traffic not shrinking: 1 iter = %d B, 10 iters = %d B", one, ten)
	}
}

func TestWCCMatchesSA(t *testing.T) {
	g := testGraph(t)
	want, _ := sa.WCC(g, 1)
	for _, p := range []int{1, 3} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			c := boot(t, g, p)
			got, met, err := WCC(c, 1000)
			if err != nil {
				t.Fatal(err)
			}
			assertEqualI64(t, "wcc", got, want)
			if met.Iterations == 0 {
				t.Error("no iterations recorded")
			}
		})
	}
}

func TestWCCOnDisconnectedGraph(t *testing.T) {
	// Two cliques plus isolated vertices.
	var edges []graph.Edge
	for u := 0; u < 5; u++ {
		for v := 0; v < 5; v++ {
			if u != v {
				edges = append(edges, graph.Edge{Src: graph.NodeID(u), Dst: graph.NodeID(v)})
				edges = append(edges, graph.Edge{Src: graph.NodeID(u + 10), Dst: graph.NodeID(v + 10)})
			}
		}
	}
	g, err := graph.FromEdges(20, edges, false)
	if err != nil {
		t.Fatal(err)
	}
	c := boot(t, g, 3)
	got, _, err := WCC(c, 100)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 5; u++ {
		if got[u] != 0 || got[u+10] != 10 {
			t.Fatalf("labels: %v", got)
		}
	}
	for u := 5; u < 10; u++ {
		if got[u] != int64(u) {
			t.Fatalf("isolated node %d has label %d", u, got[u])
		}
	}
}

func TestSSSPMatchesSA(t *testing.T) {
	g := testGraph(t).WithUniformWeights(1, 10, 7)
	src := graph.NodeID(0)
	want, _ := sa.SSSP(g, src, 1)
	for _, p := range []int{1, 4} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			c := boot(t, g, p)
			got, _, err := SSSP(c, src, 10000)
			if err != nil {
				t.Fatal(err)
			}
			assertClose(t, "sssp", got, want, 1e-9)
		})
	}
}

func TestHopDistMatchesSA(t *testing.T) {
	g := testGraph(t)
	root := graph.NodeID(1)
	want, _ := sa.HopDist(g, root, 1)
	c := boot(t, g, 4)
	got, met, err := HopDist(c, root, 10000)
	if err != nil {
		t.Fatal(err)
	}
	assertEqualI64(t, "hopdist", got, want)
	if met.Iterations == 0 {
		t.Error("no iterations")
	}
}

func TestEigenvectorMatchesSA(t *testing.T) {
	g := testGraph(t)
	want := sa.Eigenvector(g, 8, 1)
	c := boot(t, g, 4)
	got, met, err := Eigenvector(c, 8)
	if err != nil {
		t.Fatal(err)
	}
	// One job per iteration: the normalization rides in the next pull.
	if met.Iterations != 8 || met.Jobs != 8 {
		t.Errorf("metrics: %d iters, %d jobs", met.Iterations, met.Jobs)
	}
	assertClose(t, "ev", got, want, 1e-9)
	// Result must be L2-normalized.
	var norm float64
	for _, v := range got {
		norm += v * v
	}
	if math.Abs(norm-1) > 1e-9 {
		t.Errorf("||ev||² = %g, want 1", norm)
	}
}

// TestEigenvectorBitIdenticalAcrossRuns: Eigenvector's normalization is a
// float sum over machines (Cluster.ReduceMappedF64), which the collectives
// merge in machine order, so runs of it at p = 3 over TCP — each on its own
// cluster, with its own arrival order — return the same bits.
func TestEigenvectorBitIdenticalAcrossRuns(t *testing.T) {
	g, err := graph.RMAT(11, 8, graph.TwitterLike(), 4242)
	if err != nil {
		t.Fatal(err)
	}
	run := func() []float64 {
		c, err := core.NewCluster(latticeConfig(t, 3, true, 0))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Shutdown()
		if err := c.Load(g); err != nil {
			t.Fatal(err)
		}
		ev, _, err := Eigenvector(c, 8)
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}
	first := run()
	for i := 1; i < 4; i++ {
		assertBitsF64(t, fmt.Sprintf("run %d", i), run(), first)
	}
}

func TestKCoreMatchesReference(t *testing.T) {
	g, err := graph.RMAT(8, 6, graph.TwitterLike(), 99)
	if err != nil {
		t.Fatal(err)
	}
	wantBest, wantCore := CoreNumberReference(g)
	saBest, saCore, _ := sa.KCore(g, 1)
	if saBest != wantBest {
		t.Fatalf("sa kcore max = %d, reference = %d", saBest, wantBest)
	}
	assertEqualI64(t, "sa-core", saCore, wantCore)
	for _, p := range []int{1, 3} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			c := boot(t, g, p)
			gotBest, gotCore, met, err := KCore(c, 0)
			if err != nil {
				t.Fatal(err)
			}
			if gotBest != wantBest {
				t.Errorf("kcore max = %d, want %d", gotBest, wantBest)
			}
			assertEqualI64(t, "core", gotCore, wantCore)
			if met.Iterations < int(wantBest) {
				t.Errorf("suspiciously few iterations: %d", met.Iterations)
			}
		})
	}
}

func TestKCoreMaxKCap(t *testing.T) {
	g := testGraph(t)
	c := boot(t, g, 2)
	best, _, _, err := KCore(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	if best > 3 {
		t.Errorf("maxK cap ignored: best = %d", best)
	}
}

func TestPullFasterOrEqualTrafficThanPush(t *testing.T) {
	// Pull and push move the same payload per iteration (one value per
	// crossing edge), so data traffic should be comparable; this guards
	// against one variant accidentally duplicating messages.
	g := testGraph(t)
	cPull := boot(t, g, 4)
	_, metPull, err := PageRankPull(cPull, 3, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	cPush := boot(t, g, 4)
	_, metPush, err := PageRankPush(cPush, 3, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	// Pull sends request (8 B) + response (8 B) per mirrored remote address;
	// push sends 16 B per accumulated address and worker, so with several
	// workers pull can land well below push; only a collapse to near zero or a
	// blow-up past 2.5x would signal duplicated messages.
	ratio := float64(metPull.Traffic.DataBytesSent) / float64(metPush.Traffic.DataBytesSent)
	if ratio < 0.05 || ratio > 2.5 {
		t.Errorf("pull/push traffic ratio = %.2f (pull=%d push=%d)",
			ratio, metPull.Traffic.DataBytesSent, metPush.Traffic.DataBytesSent)
	}
}

func TestAlgorithmsOnGrid(t *testing.T) {
	// High-diameter graph: exercises many-iteration behaviour.
	g, err := graph.Grid(12, 12, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	wg := g.WithUniformWeights(1, 2, 5)
	c := boot(t, wg, 3)
	src := graph.NodeID(0)
	want, _ := sa.SSSP(wg, src, 1)
	got, met, err := SSSP(c, src, 10000)
	if err != nil {
		t.Fatal(err)
	}
	assertClose(t, "grid-sssp", got, want, 1e-9)
	if met.Iterations < 10 {
		t.Errorf("grid SSSP converged suspiciously fast: %d iterations", met.Iterations)
	}
}
