package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/partition"
)

// BalanceSkew is the deliberately unfair ownership share machine 0 gets in
// the skewed cells: 85% of the total degree mass, the straggler shape
// TestClusterReplanImprovesSkew pins down.
const BalanceSkew = 0.85

// balanceRuns is how many fresh-cluster runs each cell's median is taken over.
const balanceRuns = 5

// BalanceRow is one cell of the load-balancing experiment: one algorithm on
// one layout.
type BalanceRow struct {
	Algo string `json:"algo"` // "bfs", "sssp", "wcc", "pr-push"
	// Layout is "skewed" (machine 0 owns BalanceSkew of the degree mass),
	// "replanned" (the layout Cluster.Replan derived from the skewed run's
	// telemetry), or "balanced" (the default degree-balanced cut).
	Layout string `json:"layout"`

	// Seconds is the median of balanceRuns runs; the row's other figures come
	// from that run.
	Seconds float64 `json:"seconds"`

	// WaitP99MS[m] is machine m's barrier-wait p99 in milliseconds; WaitSkew
	// is max/mean of the per-machine barrier-wait totals (1.0 = every
	// machine idles equally long, the balanced ideal).
	WaitP99MS []float64 `json:"wait_p99_ms"`
	WaitSkew  float64   `json:"wait_skew"`

	// Identical reports bit-identity of the per-node results versus the
	// skewed run of the same algorithm. A cut must never change results on
	// order-independent (Min-reduction) kernels; pr-push sums floats in
	// arrival order, so its rows are speedup-only.
	Identical bool `json:"identical_vs_skewed"`

	// SpeedupVsSkewed is skewedSeconds/Seconds, filled on the replanned and
	// balanced rows.
	SpeedupVsSkewed float64 `json:"speedup_vs_skewed,omitempty"`
}

// BalanceReplanInfo records what Cluster.Replan derived from the skewed
// measurement run — the layer-2 diagnostics of the JSON artifact.
type BalanceReplanInfo struct {
	ImbalanceBefore    float64   `json:"edge_imbalance_before"`
	ImbalanceAfter     float64   `json:"edge_imbalance_after"`
	PredictedImbalance float64   `json:"predicted_imbalance"`
	MeasuredWaitSkew   float64   `json:"measured_wait_skew"`
	CostRates          []float64 `json:"cost_rates_ns_per_degree"`
}

// BalanceReport is the JSON artifact (BENCH_balance.json) of the sweep.
type BalanceReport struct {
	Dataset  string            `json:"dataset"`
	Scale    int               `json:"scale"`
	Machines int               `json:"machines"`
	Skew     float64           `json:"skew"`
	Runs     int               `json:"runs_per_cell"`
	Replan   BalanceReplanInfo `json:"replan"`
	Rows     []BalanceRow      `json:"rows"`
}

// ExpBalance measures the engine's answer to a skewed cut on a deliberately
// skewed partition of TWT': machine 0 owns BalanceSkew of the degree mass and
// everyone else waits at the barrier. Three layouts per algorithm: live with
// it (skewed), fix ownership for the next run (Cluster.Replan from the
// measured telemetry, applied via LoadPlan), and the default degree-balanced
// cut the replanned one should approach.
func ExpBalance(ds *Datasets, scale, machines, prIters int, prog Progress) (*Table, *BalanceReport, error) {
	if machines < 2 {
		return nil, nil, fmt.Errorf("balance: need >= 2 machines to cut across (have %d)", machines)
	}
	g, err := ds.Get(DSTwitter, scale)
	if err != nil {
		return nil, nil, err
	}
	wg, err := ds.Weighted(DSTwitter, scale)
	if err != nil {
		return nil, nil, err
	}
	skewed, err := partition.SkewedLayout(g, machines, BalanceSkew)
	if err != nil {
		return nil, nil, err
	}

	rep := &BalanceReport{Dataset: DSTwitter, Scale: scale, Machines: machines, Skew: BalanceSkew, Runs: balanceRuns}
	t := &Table{Title: fmt.Sprintf("Load balancing on a %.0f%%-skewed cut (%d machines, scale %d, median of %d)",
		100*BalanceSkew, machines, scale, balanceRuns)}
	t.Header = []string{"algo", "layout", "time", "wait-skew", "wait-p99", "identical", "speedup"}

	prog.log("balance: telemetry pass for Replan (skewed cut)")
	plan, err := measureReplan(g, machines, skewed, prIters)
	if err != nil {
		return nil, nil, err
	}
	rep.Replan = BalanceReplanInfo{
		ImbalanceBefore:    skewed.EdgeImbalance(g),
		ImbalanceAfter:     plan.Layout.EdgeImbalance(g),
		PredictedImbalance: plan.PredictedImbalance,
		MeasuredWaitSkew:   plan.MeasuredWaitSkew,
		CostRates:          plan.CostRates,
	}

	for _, algo := range []string{"bfs", "sssp", "wcc", "pr-push"} {
		ag := g
		if algo == "sssp" {
			ag = wg
		}
		balanced, err := partition.Compute(ag, machines, core.DefaultConfig(machines).Partitioning)
		if err != nil {
			return nil, nil, err
		}
		var baseBits []uint64
		var baseSecs float64
		for _, l := range []struct {
			name   string
			layout partition.Layout
		}{{"skewed", skewed}, {"replanned", plan.Layout}, {"balanced", balanced}} {
			prog.log("balance: %s %s", algo, l.name)
			row, bits, err := medianCell(ag, machines, l.layout, algo, prIters)
			if err != nil {
				return nil, nil, fmt.Errorf("balance: %s %s: %w", algo, l.name, err)
			}
			row.Layout = l.name
			speedup := ""
			if baseBits == nil {
				baseBits, baseSecs = bits, row.Seconds
				row.Identical = true
			} else {
				row.Identical = equalBits(baseBits, bits)
				row.SpeedupVsSkewed = baseSecs / row.Seconds
				speedup = fmt.Sprintf("%.2fx", row.SpeedupVsSkewed)
			}
			rep.Rows = append(rep.Rows, row)
			t.AddRow(row.Algo, row.Layout, fmtSecs(row.Seconds),
				fmt.Sprintf("%.2f", row.WaitSkew), fmtWaitP99(row.WaitP99MS),
				fmt.Sprintf("%v", row.Identical), speedup)
		}
	}

	t.Notes = append(t.Notes,
		fmt.Sprintf("skewed cut: machine 0 owns %.0f%% of the degree mass (edge imbalance %.2f)",
			100*BalanceSkew, rep.Replan.ImbalanceBefore),
		fmt.Sprintf("replanned cut: from the skewed run's telemetry (edge imbalance %.2f -> %.2f)",
			rep.Replan.ImbalanceBefore, rep.Replan.ImbalanceAfter),
		"wait-skew = max/mean of per-machine barrier-wait totals; 1.0 is perfectly balanced",
		"identical = per-node results bit-identical to the skewed run; pr-push sums floats in arrival order, so its rows are speedup-only",
		"the simulated machines share this box's cores: the straggler's work runs on the same silicon under any cut, so wait-skew is the hardware-independent column")
	return t, rep, nil
}

// measureReplan runs one PageRank-push pass on the skewed layout with full
// instrumentation and asks the cluster for a repartitioning plan.
func measureReplan(g *graph.Graph, machines int, skewed partition.Layout, prIters int) (partition.Plan, error) {
	cfg := core.DefaultConfig(machines)
	cfg.Obs = obs.NewRegistry()
	c, err := core.NewCluster(cfg)
	if err != nil {
		return partition.Plan{}, err
	}
	defer c.Shutdown()
	if err := c.LoadPlan(g, skewed); err != nil {
		return partition.Plan{}, err
	}
	if _, _, err := algorithms.PageRankPush(c, prIters, 0.85); err != nil {
		return partition.Plan{}, err
	}
	return c.Replan(g)
}

// medianCell runs one (layout, algo) cell balanceRuns times on fresh clusters
// and keeps the median-time run's row. The returned bits are the per-node
// results for the identity check (identical across runs by construction on
// the Min kernels; for pr-push the last run's).
func medianCell(g *graph.Graph, machines int, layout partition.Layout, algo string, prIters int) (BalanceRow, []uint64, error) {
	rows := make([]BalanceRow, balanceRuns)
	var bits []uint64
	for i := range rows {
		var err error
		if rows[i], bits, err = runBalanceCell(g, machines, layout, algo, prIters); err != nil {
			return BalanceRow{}, nil, err
		}
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].Seconds < rows[b].Seconds })
	return rows[balanceRuns/2], bits, nil
}

// runBalanceCell boots a fresh instrumented cluster on an explicit layout,
// runs one algorithm, and returns the row plus per-node result bits. Cells
// run over the TCP fabric: a cut decides which refs cross the wire, and the
// in-process fabric's free sends would understate what a remote ref costs.
func runBalanceCell(g *graph.Graph, machines int, layout partition.Layout, algo string, prIters int) (BalanceRow, []uint64, error) {
	cfg := core.DefaultConfig(machines)
	reg := obs.NewRegistry()
	cfg.Obs = reg
	fabric, err := core.NewTCPFabric(cfg)
	if err != nil {
		return BalanceRow{}, nil, err
	}
	defer fabric.Close()
	cfg.Fabric = fabric
	c, err := core.NewCluster(cfg)
	if err != nil {
		return BalanceRow{}, nil, err
	}
	defer c.Shutdown()
	if err := c.LoadPlan(g, layout); err != nil {
		return BalanceRow{}, nil, err
	}

	var bits []uint64
	var met algorithms.Metrics
	switch algo {
	case "bfs":
		var vals []int64
		vals, met, err = algorithms.HopDist(c, 0, c.NumNodes())
		bits = i64Bits(vals)
	case "sssp":
		var vals []float64
		vals, met, err = algorithms.SSSP(c, 0, c.NumNodes())
		bits = f64Bits(vals)
	case "wcc":
		var vals []int64
		vals, met, err = algorithms.WCC(c, 100000)
		bits = i64Bits(vals)
	case "pr-push":
		var vals []float64
		vals, met, err = algorithms.PageRankPush(c, prIters, 0.85)
		bits = f64Bits(vals)
	default:
		return BalanceRow{}, nil, fmt.Errorf("bench: unknown balance algo %q", algo)
	}
	if err != nil {
		return BalanceRow{}, nil, err
	}

	row := BalanceRow{Algo: algo, Seconds: met.Total.Seconds()}
	waits := make([]int64, machines)
	row.WaitP99MS = make([]float64, machines)
	for m := 0; m < machines; m++ {
		h := reg.MachineHistogram(m, obs.HistBarrier)
		waits[m] = h.SumNS
		row.WaitP99MS[m] = float64(h.Quantile(0.99)) / 1e6
	}
	row.WaitSkew = maxOverMeanI64(waits)
	return row, bits, nil
}

func f64Bits(vals []float64) []uint64 {
	out := make([]uint64, len(vals))
	for i, v := range vals {
		out[i] = math.Float64bits(v)
	}
	return out
}

// maxOverMeanI64 is the skew figure of merit: max/mean of a non-negative
// vector, 0 when empty or all-zero.
func maxOverMeanI64(v []int64) float64 {
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
	return float64(max) * float64(len(v)) / float64(tot)
}

func fmtWaitP99(ms []float64) string {
	lo, hi := math.Inf(1), 0.0
	for _, v := range ms {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if math.IsInf(lo, 1) {
		return "-"
	}
	return fmt.Sprintf("%.1f..%.1fms", lo, hi)
}

// WriteJSON writes the report to path (the BENCH_balance.json artifact).
func (r *BalanceReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
