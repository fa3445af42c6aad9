package pgxd_test

import (
	"math"
	"testing"

	"repro/internal/baseline/sa"
	"repro/pgxd"
)

func bootTwitterLike(t *testing.T, p int) (*pgxd.Graph, *pgxd.Cluster) {
	t.Helper()
	g, err := pgxd.RMAT(9, 8, pgxd.TwitterLike(), 8)
	if err != nil {
		t.Fatal(err)
	}
	c, err := pgxd.NewCluster(pgxd.DefaultConfig(p))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	if err := c.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	return g, c
}

func TestQuickstartFlow(t *testing.T) {
	g, c := bootTwitterLike(t, 4)
	if c.NumNodes() != g.NumNodes() || c.NumEdges() != g.NumEdges() {
		t.Fatal("cluster size mismatch")
	}
	ranks, met, err := c.PageRankPull(5, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	if met.Iterations != 5 {
		t.Errorf("iterations = %d", met.Iterations)
	}
	want := sa.PageRank(g, 5, 0.85, 1)
	for u := range want {
		if math.Abs(ranks[u]-want[u]) > 1e-10 {
			t.Fatalf("node %d: %g vs %g", u, ranks[u], want[u])
		}
	}
}

func TestAllAlgorithmsThroughFacade(t *testing.T) {
	g, c := bootTwitterLike(t, 3)
	if _, _, err := c.PageRankPush(3, 0.85); err != nil {
		t.Errorf("push: %v", err)
	}
	if _, _, err := c.PageRankApprox(0.85, 1e-6, 50); err != nil {
		t.Errorf("approx: %v", err)
	}
	if _, _, err := c.WCC(1000); err != nil {
		t.Errorf("wcc: %v", err)
	}
	if _, _, err := c.HopDist(0, 1000); err != nil {
		t.Errorf("hopdist: %v", err)
	}
	if _, _, err := c.Eigenvector(3); err != nil {
		t.Errorf("ev: %v", err)
	}
	if best, _, _, err := c.KCore(4); err != nil || best < 1 {
		t.Errorf("kcore: best=%d err=%v", best, err)
	}
	_ = g
}

func TestSSSPThroughFacade(t *testing.T) {
	g, err := pgxd.RMAT(8, 8, pgxd.TwitterLike(), 3)
	if err != nil {
		t.Fatal(err)
	}
	g = g.WithUniformWeights(1, 10, 3)
	c, err := pgxd.NewCluster(pgxd.DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if err := c.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	dist, _, err := c.SSSP(0, 10000)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := sa.SSSP(g, 0, 1)
	for u := range want {
		if math.IsInf(want[u], 1) != math.IsInf(dist[u], 1) {
			t.Fatalf("node %d reachability mismatch", u)
		}
	}
}

// customDegreeTask counts each node's in-degree via the custom-kernel API.
type customDegreeTask struct {
	pgxd.NoReads
	counter pgxd.PropID
}

func (k *customDegreeTask) RunRows(c *pgxd.Ctx, rows *pgxd.Cursor) {
	wr := c.Writer(k.counter, pgxd.Sum)
	for rows.Next() {
		for _, ref := range rows.Row().Refs {
			wr.WriteI64(ref, 1)
		}
	}
}

func TestCustomKernelThroughFacade(t *testing.T) {
	g, c := bootTwitterLike(t, 3)
	counter, err := c.AddPropI64("indeg")
	if err != nil {
		t.Fatal(err)
	}
	stats, err := c.RunJob(pgxd.JobSpec{
		Name:       "count-in-degree",
		Iter:       pgxd.IterOutEdges,
		Task:       &customDegreeTask{counter: counter},
		WriteProps: []pgxd.WriteSpec{{Prop: counter, Op: pgxd.Sum}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Duration <= 0 {
		t.Error("no duration recorded")
	}
	got := c.Core().GatherI64(counter)
	for u := 0; u < g.NumNodes(); u++ {
		if got[u] != g.InDegree(pgxd.NodeID(u)) {
			t.Fatalf("node %d: %d vs %d", u, got[u], g.InDegree(pgxd.NodeID(u)))
		}
	}
}

func TestTCPFabricFacade(t *testing.T) {
	cfg := pgxd.DefaultConfig(2)
	fabric, err := pgxd.NewTCPFabric(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fabric = fabric
	c, err := pgxd.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		c.Shutdown()
		fabric.Close()
	}()
	g, err := pgxd.Uniform(500, 4000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.LoadGraph(g); err != nil {
		t.Fatal(err)
	}
	ranks, _, err := c.PageRankPull(3, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	want := sa.PageRank(g, 3, 0.85, 1)
	for u := range want {
		if math.Abs(ranks[u]-want[u]) > 1e-10 {
			t.Fatalf("node %d: %g vs %g", u, ranks[u], want[u])
		}
	}
}

func TestGeneratorsExposed(t *testing.T) {
	if _, err := pgxd.Grid(5, 5, 2, 1); err != nil {
		t.Error(err)
	}
	if _, err := pgxd.PreferentialAttachment(100, 3, 1); err != nil {
		t.Error(err)
	}
	if _, err := pgxd.Uniform(10, 50, 1); err != nil {
		t.Error(err)
	}
	if _, err := pgxd.FromEdges(3, []pgxd.Edge{{Src: 0, Dst: 1}}, false); err != nil {
		t.Error(err)
	}
	if _, err := pgxd.RMAT(5, 4, pgxd.WebLike(), 1); err != nil {
		t.Error(err)
	}
}

func TestExtensionsThroughFacade(t *testing.T) {
	g, c := bootTwitterLike(t, 3)
	triads, _, err := c.TriangleCount()
	if err != nil {
		t.Fatal(err)
	}
	if triads <= 0 {
		t.Errorf("triads = %d", triads)
	}
	ppr, _, err := c.PersonalizedPageRank([]pgxd.NodeID{0}, 5, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	if ppr[0] <= 0 {
		t.Error("source has no personalized rank")
	}
	_ = g
}

func TestMISAndClosenessThroughFacade(t *testing.T) {
	g, c := bootTwitterLike(t, 2)
	inSet, _, err := c.MIS(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	members := 0
	for _, in := range inSet {
		if in {
			members++
		}
	}
	if members == 0 {
		t.Error("empty MIS")
	}
	cl, _, err := c.Closeness(3, 5, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if len(cl) != g.NumNodes() {
		t.Errorf("closeness length %d", len(cl))
	}
}
