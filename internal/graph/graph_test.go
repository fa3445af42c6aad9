package graph

import (
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func mustBuild(t *testing.T, n int, edges []Edge, weighted bool) *Graph {
	t.Helper()
	g, err := FromEdges(n, edges, weighted)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return g
}

func TestBuilderSmall(t *testing.T) {
	g := mustBuild(t, 4, []Edge{{0, 1, 0}, {0, 2, 0}, {1, 2, 0}, {3, 0, 0}, {2, 2, 0}}, false)
	if g.NumNodes() != 4 {
		t.Errorf("NumNodes = %d, want 4", g.NumNodes())
	}
	if g.NumEdges() != 5 {
		t.Errorf("NumEdges = %d, want 5", g.NumEdges())
	}
	if got := g.Out.Neighbors(0); len(got) != 2 {
		t.Errorf("out-neighbors of 0 = %v, want 2 entries", got)
	}
	if got := g.In.Neighbors(2); len(got) != 3 {
		t.Errorf("in-neighbors of 2 = %v, want 3 entries", got)
	}
	if g.OutDegree(3) != 1 || g.InDegree(3) != 0 {
		t.Errorf("degrees of 3: out=%d in=%d, want 1/0", g.OutDegree(3), g.InDegree(3))
	}
	if g.TotalDegree(2) != 1+3 {
		t.Errorf("TotalDegree(2) = %d, want 4", g.TotalDegree(2))
	}
}

func TestBuilderEmpty(t *testing.T) {
	if _, err := FromEdges(0, nil, false); err != ErrEmptyGraph {
		t.Errorf("FromEdges(0) err = %v, want ErrEmptyGraph", err)
	}
	// Zero edges but positive nodes is a valid graph.
	g := mustBuild(t, 3, nil, false)
	if g.NumEdges() != 0 {
		t.Errorf("NumEdges = %d, want 0", g.NumEdges())
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	if _, err := FromEdges(2, []Edge{{0, 5, 0}}, false); err == nil {
		t.Error("expected error for out-of-range dst")
	}
	if _, err := FromEdges(2, []Edge{{7, 0, 0}}, false); err == nil {
		t.Error("expected error for out-of-range src")
	}
}

func sortEdges(es []Edge) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].Src != es[j].Src {
			return es[i].Src < es[j].Src
		}
		if es[i].Dst != es[j].Dst {
			return es[i].Dst < es[j].Dst
		}
		return es[i].Weight < es[j].Weight
	})
}

// Property: building a CSR and reading back its edge list yields a
// permutation of the input edges.
func TestEdgeListRoundTripProperty(t *testing.T) {
	f := func(raw []uint16, nRaw uint8) bool {
		n := int(nRaw%200) + 1
		var edges []Edge
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, Edge{
				Src:    NodeID(int(raw[i]) % n),
				Dst:    NodeID(int(raw[i+1]) % n),
				Weight: float64(i),
			})
		}
		g, err := FromEdges(n, edges, true)
		if err != nil {
			return false
		}
		back := g.EdgeList()
		if len(back) != len(edges) {
			return false
		}
		sortEdges(edges)
		sortEdges(back)
		for i := range edges {
			if edges[i] != back[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the In CSR is the exact transpose of the Out CSR.
func TestTransposeProperty(t *testing.T) {
	f := func(raw []uint16, nRaw uint8) bool {
		n := int(nRaw%100) + 1
		var edges []Edge
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, Edge{Src: NodeID(int(raw[i]) % n), Dst: NodeID(int(raw[i+1]) % n)})
		}
		g, err := FromEdges(n, edges, false)
		if err != nil {
			return false
		}
		// Collect (src,dst) pairs from Out and (dst,src) pairs from In.
		var fromOut, fromIn []Edge
		for u := 0; u < n; u++ {
			for _, v := range g.Out.Neighbors(NodeID(u)) {
				fromOut = append(fromOut, Edge{Src: NodeID(u), Dst: v})
			}
			for _, v := range g.In.Neighbors(NodeID(u)) {
				fromIn = append(fromIn, Edge{Src: v, Dst: NodeID(u)})
			}
		}
		sortEdges(fromOut)
		sortEdges(fromIn)
		if len(fromOut) != len(fromIn) {
			return false
		}
		for i := range fromOut {
			if fromOut[i] != fromIn[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := mustBuild(t, 3, []Edge{{0, 1, 0}, {1, 2, 0}}, false)
	g.Out.Cols[0] = 99
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted out-of-range neighbor")
	}
	g = mustBuild(t, 3, []Edge{{0, 1, 0}, {1, 2, 0}}, false)
	g.Out.Rows[1] = 5
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted non-monotone rows")
	}
}

func TestSliceRange(t *testing.T) {
	for _, tc := range []struct{ length, parts int }{{10, 3}, {0, 4}, {7, 7}, {5, 8}, {100, 1}} {
		covered := 0
		prevHi := 0
		for i := 0; i < tc.parts; i++ {
			lo, hi := sliceRange(tc.length, tc.parts, i)
			if lo != prevHi {
				t.Errorf("sliceRange(%d,%d,%d) lo=%d, want %d", tc.length, tc.parts, i, lo, prevHi)
			}
			if hi < lo {
				t.Errorf("sliceRange(%d,%d,%d) hi<lo", tc.length, tc.parts, i)
			}
			covered += hi - lo
			prevHi = hi
		}
		if covered != tc.length || prevHi != tc.length {
			t.Errorf("sliceRange(%d,%d) covered %d ending at %d", tc.length, tc.parts, covered, prevHi)
		}
	}
}

func TestRMATDeterministicAndSized(t *testing.T) {
	g1, err := RMAT(10, 8, TwitterLike(), 42)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := RMAT(10, 8, TwitterLike(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if g1.NumNodes() != 1024 || g1.NumEdges() != 1024*8 {
		t.Errorf("size = %d/%d, want 1024/8192", g1.NumNodes(), g1.NumEdges())
	}
	for i := range g1.Out.Cols {
		if g1.Out.Cols[i] != g2.Out.Cols[i] {
			t.Fatalf("RMAT not deterministic at edge %d", i)
		}
	}
	g3, err := RMAT(10, 8, TwitterLike(), 43)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range g1.Out.Cols {
		if g1.Out.Cols[i] != g3.Out.Cols[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical RMAT graphs")
	}
}

func TestRMATRejectsBadParams(t *testing.T) {
	for _, c := range []struct {
		name      string
		scale, ef int
		p         RMATParams
	}{
		{"scale 0", 0, 8, TwitterLike()},
		{"edge factor 0", 10, 0, TwitterLike()},
		{"params summing past 1", 10, 8, RMATParams{A: 0.5, B: 0.3, C: 0.3}},
	} {
		if _, err := RMAT(c.scale, c.ef, c.p, 1); err == nil {
			t.Errorf("RMAT accepted %s", c.name)
		}
		if _, err := RMATStream(c.scale, c.ef, c.p, 1); err == nil {
			t.Errorf("RMATStream accepted %s", c.name)
		}
	}
	// 2^30 * 2^34 wraps int to 0 edges. Only the stream constructor, which
	// allocates nothing, is handed it.
	if s, err := RMATStream(30, 1<<34, TwitterLike(), 1); err == nil {
		t.Errorf("RMATStream(30, 2^34) accepted an overflowing edge count: %d edges", s.NumEdges())
	}
}

func TestUniformRejectsNegativeEdges(t *testing.T) {
	if _, err := Uniform(10, -1, 1); err == nil {
		t.Error("accepted edge count -1")
	}
	if _, err := UniformStream(10, -1, 1); err == nil {
		t.Error("UniformStream accepted edge count -1")
	}
	if g, err := Uniform(10, 0, 1); err != nil || g.NumEdges() != 0 {
		t.Errorf("Uniform(10, 0) = %v, %v; want an edgeless graph", g, err)
	}
}

// TestGeneratorsRejectOversizedIDSpace: a grid of more than 2^32 cells and a
// uniform graph of more than 2^32 nodes are refused, as RMAT bounds its scale,
// before anything is allocated: their ids would wrap NodeID.
func TestGeneratorsRejectOversizedIDSpace(t *testing.T) {
	if _, err := Grid(1<<16, 1<<16+1, 0, 1); err == nil || !strings.Contains(err.Error(), "32-bit id space") {
		t.Errorf("Grid(2^16, 2^16+1): err = %v, want the id-space error", err)
	}
	if _, err := Uniform(1<<32+1, 0, 1); err == nil || !strings.Contains(err.Error(), "32-bit id space") {
		t.Errorf("Uniform(2^32+1, 0): err = %v, want the id-space error", err)
	}
	if _, err := UniformStream(1<<32+1, 0, 1); err == nil || !strings.Contains(err.Error(), "32-bit id space") {
		t.Errorf("UniformStream(2^32+1, 0): err = %v, want the id-space error", err)
	}
}

func TestRMATIsSkewedUniformIsNot(t *testing.T) {
	rmat, err := RMAT(12, 16, TwitterLike(), 7)
	if err != nil {
		t.Fatal(err)
	}
	uni, err := Uniform(1<<12, 16<<12, 7)
	if err != nil {
		t.Fatal(err)
	}
	sr := ComputeDegreeStats(rmat)
	su := ComputeDegreeStats(uni)
	if sr.Gini <= su.Gini {
		t.Errorf("RMAT gini %.3f should exceed uniform gini %.3f", sr.Gini, su.Gini)
	}
	if sr.Gini < 0.5 {
		t.Errorf("Twitter-like RMAT gini %.3f, want >= 0.5 (heavy skew)", sr.Gini)
	}
	if su.Gini > 0.35 {
		t.Errorf("uniform gini %.3f, want <= 0.35", su.Gini)
	}
	if sr.P99Share < 2*su.P99Share {
		t.Errorf("RMAT top-1%% share %.3f not clearly above uniform %.3f", sr.P99Share, su.P99Share)
	}
}

func TestUniformShape(t *testing.T) {
	g, err := Uniform(1000, 35000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 1000 || g.NumEdges() != 35000 {
		t.Fatalf("size = %d/%d", g.NumNodes(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGridShape(t *testing.T) {
	g, err := Grid(20, 30, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 600 {
		t.Fatalf("NumNodes = %d, want 600", g.NumNodes())
	}
	// Mesh edges: 2*(rows*(cols-1) + cols*(rows-1)) + 2*shortcuts.
	want := int64(2*(20*29+30*19) + 2*10)
	if g.NumEdges() != want {
		t.Errorf("NumEdges = %d, want %d", g.NumEdges(), want)
	}
	// Grid should have much higher effective diameter than RMAT of equal size.
	rmat, err := RMAT(10, 4, TwitterLike(), 5)
	if err != nil {
		t.Fatal(err)
	}
	dg := EffectiveDiameterSample(g, 5, 1)
	dr := EffectiveDiameterSample(rmat, 5, 1)
	if dg <= dr {
		t.Errorf("grid diameter %.0f should exceed RMAT diameter %.0f", dg, dr)
	}
}

func TestPreferentialAttachment(t *testing.T) {
	g, err := PreferentialAttachment(2000, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != int64((2000-1)*4) {
		t.Errorf("NumEdges = %d, want %d", g.NumEdges(), (2000-1)*4)
	}
	s := ComputeDegreeStats(g)
	if s.Gini < 0.3 {
		t.Errorf("preferential attachment gini %.3f, want >= 0.3", s.Gini)
	}
	if _, err := PreferentialAttachment(10, 0, 1); err == nil {
		t.Error("accepted k=0")
	}
}

func TestWithUniformWeights(t *testing.T) {
	g, err := Uniform(100, 1000, 9)
	if err != nil {
		t.Fatal(err)
	}
	wg := g.WithUniformWeights(1, 10, 9)
	if !wg.Weighted() {
		t.Fatal("weighted graph reports unweighted")
	}
	if err := wg.Validate(); err != nil {
		t.Fatal(err)
	}
	if wg.NumEdges() != g.NumEdges() {
		t.Fatalf("edge count changed: %d vs %d", wg.NumEdges(), g.NumEdges())
	}
	for u := 0; u < wg.NumNodes(); u++ {
		for _, w := range wg.Out.EdgeWeights(NodeID(u)) {
			if w < 1 || w >= 10 {
				t.Fatalf("weight %g out of [1,10)", w)
			}
		}
	}
	// In-orientation weights must match out-orientation per edge: check total.
	var sumOut, sumIn float64
	for _, w := range wg.Out.Weights {
		sumOut += w
	}
	for _, w := range wg.In.Weights {
		sumIn += w
	}
	if diff := sumOut - sumIn; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("weight sums differ: out=%g in=%g", sumOut, sumIn)
	}
}
