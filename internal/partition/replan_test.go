package partition

import (
	"testing"

	"repro/internal/graph"
)

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

func TestReplanWithoutTelemetryMatchesEdgeBalance(t *testing.T) {
	g := skewedGraph(t)
	skewed, err := SkewedLayout(g, 4, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Replan(g, skewed, Telemetry{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Compute(g, 4, EdgeBalanced)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m <= 4; m++ {
		if plan.Layout.Starts[m] != want.Starts[m] {
			t.Fatalf("start[%d] = %d, want %d (no-telemetry replan should be the plain edge cut)",
				m, plan.Layout.Starts[m], want.Starts[m])
		}
	}
}

func TestReplanFixesMeasuredSkew(t *testing.T) {
	g := skewedGraph(t)
	skewed, err := SkewedLayout(g, 4, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	before := skewed.EdgeImbalance(g)
	// Synthetic telemetry: task time proportional to degree mass (uniform
	// per-edge cost), which is what a homogeneous cluster measures.
	deg := degreeSums(g, skewed)
	task := make([]int64, 4)
	for m, d := range deg {
		task[m] = d * 100 // 100ns per unit of degree
	}
	wait := []int64{0, 900, 1000, 950} // machine 0 never waits, it is the straggler
	plan, err := Replan(g, skewed, Telemetry{TaskNanos: task, BarrierWaitNanos: wait})
	if err != nil {
		t.Fatal(err)
	}
	after := plan.Layout.EdgeImbalance(g)
	if after >= before {
		t.Errorf("replan imbalance %.3f did not improve on %.3f", after, before)
	}
	if after > 1.5 {
		t.Errorf("replan imbalance %.3f, want <= 1.5", after)
	}
	if plan.PredictedImbalance > 1.5 {
		t.Errorf("predicted imbalance %.3f, want near 1", plan.PredictedImbalance)
	}
	if plan.MeasuredWaitSkew <= 1 {
		t.Errorf("measured wait skew %.3f, want > 1", plan.MeasuredWaitSkew)
	}
}

func TestReplanShiftsWorkOffSlowMachine(t *testing.T) {
	g := skewedGraph(t)
	base, err := Compute(g, 4, EdgeBalanced)
	if err != nil {
		t.Fatal(err)
	}
	deg := degreeSums(g, base)
	// Machine 2 is 3x slower per edge (e.g. its partition is remote-write
	// heavy); everyone else is uniform.
	task := make([]int64, 4)
	for m, d := range deg {
		task[m] = d * 100
	}
	task[2] = deg[2] * 300
	plan, err := Replan(g, base, Telemetry{TaskNanos: task})
	if err != nil {
		t.Fatal(err)
	}
	newDeg := degreeSums(g, plan.Layout)
	if newDeg[2] >= deg[2] {
		t.Errorf("slow machine kept degree mass %d (had %d), want less", newDeg[2], deg[2])
	}
	// Its predicted cost rate stays 3x, so its share should be roughly a
	// third of a uniform machine's.
	if float64(newDeg[2]) > 0.6*float64(newDeg[1]) {
		t.Errorf("slow machine degree %d vs peer %d, want well under", newDeg[2], newDeg[1])
	}
}

func TestReplanErrors(t *testing.T) {
	g := skewedGraph(t)
	if _, err := Replan(g, Layout{}, Telemetry{}); err == nil {
		t.Error("accepted empty layout")
	}
	wrong := Layout{NumMachines: 2, Starts: []uint32{0, 5, 10}}
	if _, err := Replan(g, wrong, Telemetry{}); err == nil {
		t.Error("accepted layout not covering the graph")
	}
}
