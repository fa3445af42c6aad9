package algorithms

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"repro/internal/graph"
)

// TestCatalogColsMatchRegistered: the column count each catalog entry
// declares to admission is the peak the run really registers (the runner
// measures it into Metrics.PropCols), so the two cannot drift apart again.
func TestCatalogColsMatchRegistered(t *testing.T) {
	g := testGraph(t).WithUniformWeights(1, 10, 3)
	c := boot(t, g, 2)
	for _, spec := range Catalog() {
		_, met, err := spec.Run(c, Params{Iterations: 2, Damping: 0.85, Threshold: 1e-7, Graph: g})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if spec.Cols != met.PropCols {
			t.Errorf("%s: Spec.Cols = %d, the run registered %d columns at its peak", spec.Name, spec.Cols, met.PropCols)
		}
	}
}

func TestResultTop(t *testing.T) {
	r := Result{F64: []float64{0.5, math.Inf(1), 2, math.NaN(), 1}}
	if got := r.Top(2, false); len(got) != 2 || got[0] != (Vertex{2, 2}) || got[1] != (Vertex{4, 1}) {
		t.Errorf("descending top 2 = %v", got)
	}
	if got := r.Top(9, true); len(got) != 3 || got[0] != (Vertex{0, 0.5}) {
		t.Errorf("ascending top = %v, want the 3 finite values smallest first", got)
	}
	ints := Result{I64: []int64{3, math.MaxInt64, 1}}
	if got := ints.Top(5, true); len(got) != 2 || got[0] != (Vertex{2, 1}) || got[1] != (Vertex{0, 3}) {
		t.Errorf("int top = %v, want unreached (MaxInt64) skipped", got)
	}
	if got := (Result{}).Top(3, false); len(got) != 0 {
		t.Errorf("empty result top = %v", got)
	}
}

// TestResultTopTies pins Top's tie rule — equal values rank by node id,
// smallest first — on two real results whose top k cuts through a tie: WCC's
// component labels (each label held by every node of its component) and
// HopDist's levels (every node of a level at one distance), on one machine
// and on three, and holds Top to a full sort by (value, node id) on a result
// with many ties.
func TestResultTopTies(t *testing.T) {
	// Components {0,1,2}, {3,4} and {5,6,7,8}: labels 0, 3 and 5. A star from
	// 0 reaches 1..4 at hop 1 and 5..8 at hop 2; 9 is unreached.
	b := graph.NewBuilder(9)
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 2}, {3, 4}, {5, 6}, {6, 7}, {8, 7}} {
		b.AddEdge(e[0], e[1])
	}
	comps, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	b = graph.NewBuilder(10)
	for _, e := range [][2]graph.NodeID{{0, 4}, {0, 2}, {0, 3}, {0, 1}, {4, 5}, {3, 8}, {2, 6}, {1, 7}} {
		b.AddEdge(e[0], e[1])
	}
	star, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	nodes := func(vs []Vertex) []uint32 {
		var out []uint32
		for _, v := range vs {
			out = append(out, v.Node)
		}
		return out
	}
	for _, p := range []int{1, 3} {
		labels, _, err := WCC(boot(t, comps, p), 100)
		if err != nil {
			t.Fatal(err)
		}
		wcc := Result{I64: labels}
		if got, want := nodes(wcc.Top(3, false)), []uint32{5, 6, 7}; !slices.Equal(got, want) {
			t.Errorf("p=%d: WCC top 3 = %v, want %v (label 5, smallest ids first)", p, got, want)
		}
		if got, want := nodes(wcc.Top(6, false)), []uint32{5, 6, 7, 8, 3, 4}; !slices.Equal(got, want) {
			t.Errorf("p=%d: WCC top 6 = %v, want %v", p, got, want)
		}
		dist, _, err := HopDist(boot(t, star, p), 0, 100)
		if err != nil {
			t.Fatal(err)
		}
		hop := Result{I64: dist}
		if got, want := nodes(hop.Top(3, true)), []uint32{0, 1, 2}; !slices.Equal(got, want) {
			t.Errorf("p=%d: HopDist top 3 = %v, want %v (the root, then hop 1 by id)", p, got, want)
		}
		if got, want := nodes(hop.Top(7, true)), []uint32{0, 1, 2, 3, 4, 5, 6}; !slices.Equal(got, want) {
			t.Errorf("p=%d: HopDist top 7 = %v, want %v", p, got, want)
		}
		if got := hop.Top(20, true); len(got) != 9 {
			t.Errorf("p=%d: HopDist top 20 = %v, want the 9 reached nodes", p, got)
		}
	}

	vals := make([]float64, 500)
	for i := range vals {
		vals[i] = float64((i * 7919) % 13)
	}
	vals[17] = math.Inf(1)
	for _, ascending := range []bool{false, true} {
		var want []Vertex
		for n, v := range vals {
			if !math.IsInf(v, 0) {
				want = append(want, Vertex{uint32(n), v})
			}
		}
		slices.SortFunc(want, func(a, b Vertex) int {
			if c := cmp.Compare(a.Value, b.Value); c != 0 {
				if ascending {
					return c
				}
				return -c
			}
			return cmp.Compare(a.Node, b.Node)
		})
		for _, k := range []int{1, 2, 38, 39, 40, 499, 600} {
			if got := (Result{F64: vals}).Top(k, ascending); !slices.Equal(got, want[:min(k, len(want))]) {
				t.Errorf("ascending=%v k=%d: Top differs from the full sort by (value, node id)", ascending, k)
			}
		}
	}
}
