package partition

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func skewedGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := graph.RMAT(11, 8, graph.TwitterLike(), 99)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestComputeVertexBalanced(t *testing.T) {
	g := skewedGraph(t)
	l, err := Compute(g, 4, VertexBalanced)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	for m := 0; m < 4; m++ {
		got := l.NumLocal(m)
		if got < n/4-1 || got > n/4+1 {
			t.Errorf("machine %d owns %d vertices, want ~%d", m, got, n/4)
		}
	}
}

func TestComputeEdgeBalancedBeatsVertexOnSkew(t *testing.T) {
	g := skewedGraph(t)
	for _, p := range []int{2, 4, 8} {
		lv, err := Compute(g, p, VertexBalanced)
		if err != nil {
			t.Fatal(err)
		}
		le, err := Compute(g, p, EdgeBalanced)
		if err != nil {
			t.Fatal(err)
		}
		iv, ie := lv.EdgeImbalance(g), le.EdgeImbalance(g)
		if ie > iv {
			t.Errorf("p=%d: edge partitioning imbalance %.3f worse than vertex %.3f", p, ie, iv)
		}
		if ie > 1.5 {
			t.Errorf("p=%d: edge partitioning imbalance %.3f, want <= 1.5", p, ie)
		}
	}
}

func TestComputeErrors(t *testing.T) {
	g := skewedGraph(t)
	if _, err := Compute(g, 0, EdgeBalanced); err == nil {
		t.Error("accepted 0 machines")
	}
	if _, err := Compute(g, 2, Strategy(99)); err == nil {
		t.Error("accepted unknown strategy")
	}
}

func TestComputeEdgelessFallsBack(t *testing.T) {
	g, err := graph.FromEdges(100, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	l, err := Compute(g, 4, EdgeBalanced)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 4; m++ {
		if l.NumLocal(m) != 25 {
			t.Errorf("machine %d owns %d, want 25", m, l.NumLocal(m))
		}
	}
}

// Property: every vertex is owned by exactly one machine, Owner/LocalOffset/
// GlobalOf are mutually consistent, and the starts pass Validate — for both
// strategies and for SkewedLayout, none of which clamps its cuts.
func TestLayoutOwnershipProperty(t *testing.T) {
	g := skewedGraph(t)
	f := func(pRaw, kind, skewRaw uint8) bool {
		p := int(pRaw%16) + 1
		var l Layout
		var err error
		switch kind % 3 {
		case 0:
			l, err = Compute(g, p, VertexBalanced)
		case 1:
			l, err = Compute(g, p, EdgeBalanced)
		default:
			l, err = SkewedLayout(g, p, (float64(skewRaw)+1)/257)
		}
		if err != nil || l.Validate(int64(g.NumNodes())) != nil {
			return false
		}
		// Spot-check ownership across the range including boundaries.
		for _, v := range boundaryProbes(l, g.NumNodes()) {
			m := l.Owner(v)
			lo, hi := l.Range(m)
			if v < lo || v >= hi {
				return false
			}
			if l.GlobalOf(m, l.LocalOffset(v)) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func boundaryProbes(l Layout, n int) []graph.NodeID {
	var probes []graph.NodeID
	for _, s := range l.Starts {
		for d := -1; d <= 1; d++ {
			v := int(s) + d
			if v >= 0 && v < n {
				probes = append(probes, graph.NodeID(v))
			}
		}
	}
	probes = append(probes, 0, graph.NodeID(n/2), graph.NodeID(n-1))
	return probes
}

func TestSelectGhostsByThreshold(t *testing.T) {
	g := skewedGraph(t)
	gs := SelectGhosts(g, 100)
	if len(gs.Nodes) == 0 {
		t.Fatal("no ghosts on a skewed graph at threshold 100")
	}
	for _, v := range gs.Nodes {
		if g.InDegree(v) <= 100 && g.OutDegree(v) <= 100 {
			t.Errorf("node %d ghosted but both degrees <= 100", v)
		}
	}
	// Every over-threshold node is present.
	want := graph.NodesAboveDegree(g, 100)
	if len(gs.Nodes) != want {
		t.Errorf("ghost count %d, want %d", len(gs.Nodes), want)
	}
	for i, v := range gs.Nodes {
		if i > 0 && v <= gs.Nodes[i-1] {
			t.Fatal("ghost nodes not strictly ascending")
		}
	}
}

func TestSelectTopGhosts(t *testing.T) {
	g := skewedGraph(t)
	for _, k := range []int{0, 1, 5, 50, 500} {
		gs := SelectTopGhosts(g, k)
		if len(gs.Nodes) > k {
			t.Errorf("k=%d: got %d ghosts", k, len(gs.Nodes))
		}
		if k > 0 && k <= g.NumNodes() && len(gs.Nodes) != k {
			t.Errorf("k=%d: got %d ghosts, want %d on a graph with no isolated top nodes", k, len(gs.Nodes), k)
		}
	}
	// The top-1 ghost must have the max degree in the graph.
	gs := SelectTopGhosts(g, 1)
	stats := graph.ComputeDegreeStats(g)
	v := gs.Nodes[0]
	d := g.InDegree(v)
	if od := g.OutDegree(v); od > d {
		d = od
	}
	if d != stats.MaxInDegree && d != stats.MaxOutDegree {
		t.Errorf("top ghost degree %d is neither maxIn %d nor maxOut %d", d, stats.MaxInDegree, stats.MaxOutDegree)
	}
}

func TestNodeChunks(t *testing.T) {
	chunks := NodeChunks(10, 3)
	if len(chunks) != 4 {
		t.Fatalf("got %d chunks, want 4", len(chunks))
	}
	covered := 0
	for i, c := range chunks {
		if c.Len() == 0 {
			t.Errorf("chunk %d empty", i)
		}
		covered += c.Len()
	}
	if covered != 10 {
		t.Errorf("covered %d nodes, want 10", covered)
	}
	if NodeChunks(0, 3) != nil {
		t.Error("expected nil for n=0")
	}
	// chunkSize < 1 clamps to 1.
	if got := len(NodeChunks(5, 0)); got != 5 {
		t.Errorf("chunkSize 0: got %d chunks, want 5", got)
	}
}

// Property: edge chunks cover [0,n) exactly once, are never empty, and no
// chunk with more than one node exceeds the target.
func TestEdgeChunksProperty(t *testing.T) {
	f := func(degrees []uint8, targetRaw uint16) bool {
		n := len(degrees)
		if n == 0 {
			return EdgeChunks([]int64{0}, 10) == nil
		}
		rows := make([]int64, n+1)
		for i, d := range degrees {
			rows[i+1] = rows[i] + int64(d)
		}
		target := int64(targetRaw%500) + 1
		chunks := EdgeChunks(rows, target)
		var next uint32
		for _, c := range chunks {
			if c.Begin != next || c.End <= c.Begin {
				return false
			}
			if c.Len() > 1 && ChunkEdgeWeight(rows, c) > target {
				return false
			}
			next = c.End
		}
		return int(next) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEdgeChunksBalanceBeatsNodeChunksOnSkew(t *testing.T) {
	g := skewedGraph(t)
	rows := g.Out.Rows
	m := g.NumEdges()
	nChunks := 64
	target := m / int64(nChunks)
	ec := EdgeChunks(rows, target)
	nc := NodeChunks(g.NumNodes(), g.NumNodes()/nChunks)
	maxE := MaxChunkEdgeWeight(rows, ec)
	maxN := MaxChunkEdgeWeight(rows, nc)
	if maxE >= maxN {
		t.Errorf("edge chunk max weight %d not better than node chunk %d", maxE, maxN)
	}
}

func TestStrategyString(t *testing.T) {
	if VertexBalanced.String() != "vertex" || EdgeBalanced.String() != "edge" {
		t.Error("Strategy.String mismatch")
	}
	if Strategy(9).String() == "" {
		t.Error("unknown strategy should still render")
	}
}

// degreeSums returns per-machine in+out degree totals under l.
func degreeSums(g *graph.Graph, l Layout) []int64 {
	out := make([]int64, l.NumMachines)
	for m := 0; m < l.NumMachines; m++ {
		lo, hi := l.Range(m)
		for u := lo; u < hi; u++ {
			out[m] += g.TotalDegree(u)
		}
	}
	return out
}

func TestSkewedLayoutShiftsDegreeMass(t *testing.T) {
	g := skewedGraph(t)
	l, err := SkewedLayout(g, 4, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	deg := degreeSums(g, l)
	var total int64
	for _, d := range deg {
		total += d
	}
	share := float64(deg[0]) / float64(total)
	// Boundary granularity is one hub vertex, so allow slack around 0.7.
	if share < 0.6 || share > 0.85 {
		t.Errorf("machine 0 degree share %.3f, want ~0.7", share)
	}
	if l.EdgeImbalance(g) < 1.5 {
		t.Errorf("skewed layout imbalance %.3f, want clearly imbalanced (>= 1.5)", l.EdgeImbalance(g))
	}
}

func TestSkewedLayoutErrors(t *testing.T) {
	g := skewedGraph(t)
	if _, err := SkewedLayout(g, 0, 0.5); err == nil {
		t.Error("accepted 0 machines")
	}
	for _, s := range []float64{0, 1, -0.3, 1.5} {
		if _, err := SkewedLayout(g, 4, s); err == nil {
			t.Errorf("accepted skew %v", s)
		}
	}
}
