package algorithms

import (
	"math"
	"testing"
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
