package partition

import (
	"fmt"

	"repro/internal/graph"
)

// Online repartitioning: after a job (or a batch of jobs) on one graph, the
// engine feeds what it measured — per-machine task-phase times and
// barrier-wait skew — into Replan, which re-cuts vertex ownership
// for the next run of the same graph. The static degree-prefix walk assumes
// every edge costs the same everywhere; measured per-edge cost differs per
// machine (remote-write-heavy partitions, hub placement), and
// Replan folds that back into the pivots.

// Telemetry is the measured evidence Replan acts on. All fields are
// per-machine cumulative values over one or more jobs on the same loaded
// graph; zero or missing entries are tolerated and fall
// back to neutral assumptions.
type Telemetry struct {
	// TaskNanos[m] is machine m's task-phase wall time: dispatch to local
	// workers joined. It excludes barrier waits, so it is a direct load
	// measurement.
	TaskNanos []int64
	// BarrierWaitNanos[m] is machine m's cumulative barrier wait — the idle
	// time load imbalance manifests as. Diagnostic: Replan reports the skew
	// but rebalances from TaskNanos.
	BarrierWaitNanos []int64
}

// Plan is Replan's output: a new ownership layout for Cluster.LoadPlan, and
// the diagnostics that justify it.
type Plan struct {
	Layout Layout
	// CostRates[m] is the measured per-degree cost (ns per in+out degree)
	// the cut equalized against; machines without evidence carry the mean.
	CostRates []float64
	// PredictedImbalance is max/mean of predicted per-machine cost under the
	// new layout — the figure of merit the re-cut optimized (1.0 is ideal).
	PredictedImbalance float64
	// MeasuredWaitSkew is max/mean of Telemetry.BarrierWaitNanos (0 when no
	// barrier telemetry was supplied) — how unbalanced the measured run was.
	MeasuredWaitSkew float64
}

// Replan re-cuts ownership of g from measured telemetry. Each machine's
// per-degree cost rate is gamma_m = TaskNanos[m] / degreeSum_m under the
// current layout; the new pivots give machine m a degree share proportional
// to 1/gamma_m, so predicted cost gamma_m * share_m equalizes. With uniform
// rates (or no telemetry) this degenerates to the plain edge-balanced cut —
// which is already the right correction for a skewed layout on homogeneous
// machines; measured rates additionally shift work away from machines whose
// partitions are expensive per edge.
//
// Task times reflect each machine running its own partition: a machine's
// rows run nowhere else.
func Replan(g *graph.Graph, cur Layout, t Telemetry) (Plan, error) {
	p := cur.NumMachines
	if p < 1 {
		return Plan{}, fmt.Errorf("partition: replan needs a layout with machines, got %d", p)
	}
	n := g.NumNodes()
	if n == 0 {
		return Plan{}, graph.ErrEmptyGraph
	}
	if int(cur.Starts[p]) != n {
		return Plan{}, fmt.Errorf("partition: layout covers %d nodes, graph has %d", cur.Starts[p], n)
	}

	// Measured per-degree cost under the current cut; machines without
	// evidence (no telemetry, or an empty partition) get the mean rate.
	deg := make([]int64, p)
	for m := 0; m < p; m++ {
		lo, hi := cur.Range(m)
		for u := lo; u < hi; u++ {
			deg[m] += g.TotalDegree(u)
		}
	}
	rates := make([]float64, p)
	var rateSum float64
	var rateCnt int
	for m := 0; m < p; m++ {
		if m < len(t.TaskNanos) && t.TaskNanos[m] > 0 && deg[m] > 0 {
			rates[m] = float64(t.TaskNanos[m]) / float64(deg[m])
			rateSum += rates[m]
			rateCnt++
		}
	}
	meanRate := 1.0
	if rateCnt > 0 {
		meanRate = rateSum / float64(rateCnt)
	}
	weights := make([]float64, p)
	for m := 0; m < p; m++ {
		if rates[m] <= 0 {
			rates[m] = meanRate
		}
		weights[m] = 1 / rates[m]
	}

	layout, err := layoutFromWeights(g, weights)
	if err != nil {
		return Plan{}, err
	}

	// Predicted per-machine cost under the new cut, with the measured rates.
	var maxCost, totCost float64
	for m := 0; m < p; m++ {
		lo, hi := layout.Range(m)
		var d int64
		for u := lo; u < hi; u++ {
			d += g.TotalDegree(u)
		}
		cost := rates[m] * float64(d)
		totCost += cost
		if cost > maxCost {
			maxCost = cost
		}
	}
	plan := Plan{Layout: layout, CostRates: rates, PredictedImbalance: 1}
	if totCost > 0 {
		plan.PredictedImbalance = maxCost / (totCost / float64(p))
	}
	plan.MeasuredWaitSkew = maxOverMean(t.BarrierWaitNanos)
	return plan, nil
}

// SkewedLayout deliberately mis-cuts the degree-prefix walk: machine 0 takes
// the skew fraction (in (0,1)) of the total in+out degree and the remaining
// machines split the rest evenly. This is the adversarial input for the
// repartitioning experiments — a partition the static edge-balanced cut would
// never produce.
func SkewedLayout(g *graph.Graph, p int, skew float64) (Layout, error) {
	if p < 1 {
		return Layout{}, fmt.Errorf("partition: machine count %d must be >= 1", p)
	}
	if skew <= 0 || skew >= 1 {
		return Layout{}, fmt.Errorf("partition: skew %v must be in (0, 1)", skew)
	}
	weights := make([]float64, p)
	weights[0] = skew
	for m := 1; m < p; m++ {
		weights[m] = (1 - skew) / float64(p-1)
	}
	return layoutFromWeights(g, weights)
}

// layoutFromWeights runs the degree-prefix walk with a non-uniform target:
// machine m's cut lands where the cumulative degree crosses its cumulative
// weight share. Uniform weights reproduce Compute(EdgeBalanced) exactly.
func layoutFromWeights(g *graph.Graph, weights []float64) (Layout, error) {
	p := len(weights)
	n := g.NumNodes()
	if n == 0 {
		return Layout{}, graph.ErrEmptyGraph
	}
	var wsum float64
	for _, w := range weights {
		if w < 0 {
			return Layout{}, fmt.Errorf("partition: negative weight %v", w)
		}
		wsum += w
	}
	starts := make([]uint32, p+1)
	starts[p] = uint32(n)
	var total int64
	for u := 0; u < n; u++ {
		total += g.TotalDegree(graph.NodeID(u))
	}
	if total == 0 || wsum == 0 {
		for m := 1; m < p; m++ {
			starts[m] = uint32(m * n / p)
		}
		return Layout{NumMachines: p, Starts: starts}, nil
	}
	// cum is the cumulative weight share of machines [0, next): machine
	// next-1's cut lands where the degree prefix crosses cum*total.
	cum := weights[0] / wsum
	var acc int64
	next := 1
	for u := 0; u < n && next < p; u++ {
		acc += g.TotalDegree(graph.NodeID(u))
		for next < p && float64(acc) >= cum*float64(total) {
			starts[next] = uint32(u + 1)
			cum += weights[next] / wsum
			next++
		}
	}
	for ; next < p; next++ {
		starts[next] = uint32(n)
	}
	for m := 1; m <= p; m++ {
		if starts[m] < starts[m-1] {
			starts[m] = starts[m-1]
		}
	}
	return Layout{NumMachines: p, Starts: starts}, nil
}

// maxOverMean returns max/mean of a non-negative vector (0 when empty or
// all-zero) — the skew figure used for barrier-wait telemetry.
func maxOverMean(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	var max, tot int64
	for _, x := range v {
		tot += x
		if x > max {
			max = x
		}
	}
	if tot == 0 {
		return 0
	}
	return float64(max) / (float64(tot) / float64(len(v)))
}
