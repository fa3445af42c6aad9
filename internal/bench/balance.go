package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"

	"repro/internal/algorithms"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/partition"
)

// BalanceSkew is the deliberately unfair ownership share machine 0 gets in
// the skewed cells: 85% of the total degree mass, the same straggler shape
// the steal tests pin down.
const BalanceSkew = 0.85

// BalanceRow is one cell of the load-balancing ablation: one algorithm on
// one layout under one balancing strategy.
type BalanceRow struct {
	Algo string `json:"algo"` // "bfs", "sssp", "wcc", "pr-push"
	// Layout is "skewed" (machine 0 owns BalanceSkew of the degree mass),
	// "replanned" (the layout Cluster.Replan derived from the skewed run's
	// telemetry), or "balanced" (the default degree-balanced cut, the
	// no-regression check).
	Layout  string `json:"layout"`
	Variant string `json:"variant"` // "no-steal" or "steal"

	Seconds float64 `json:"seconds"` // best of two runs

	// WaitP99MS[m] is machine m's barrier-wait p99 in milliseconds; WaitSkew
	// is max/mean of the per-machine barrier-wait totals (1.0 = every
	// machine idles equally long, the balanced ideal).
	WaitP99MS []float64 `json:"wait_p99_ms"`
	WaitSkew  float64   `json:"wait_skew"`

	StealRequests int64 `json:"steal_requests,omitempty"`
	StolenNodes   int64 `json:"stolen_nodes,omitempty"`
	StolenEdges   int64 `json:"stolen_edges,omitempty"`

	// Identical reports bit-identity of the per-node results versus the
	// skewed no-steal run of the same algorithm. Stealing must never change
	// results on order-independent (Min-reduction) kernels; pr-push sums
	// floats in arrival order, so its rows are speedup-only.
	Identical bool `json:"identical_vs_no_steal"`

	// SpeedupVsNoSteal is skewedNoStealSeconds/Seconds, filled on steal and
	// replanned rows of the skewed cells.
	SpeedupVsNoSteal float64 `json:"speedup_vs_no_steal,omitempty"`
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
	Replan   BalanceReplanInfo `json:"replan"`
	Rows     []BalanceRow      `json:"rows"`
}

// ExpBalance ablates the traffic-matrix-driven load balancer on a
// deliberately skewed partition of TWT': machine 0 owns BalanceSkew of the
// degree mass and everyone else waits at the barrier. Three strategies per
// algorithm: live with it (no-steal), flatten it within each superstep
// (cross-machine chunk stealing), or fix ownership for the next run
// (Cluster.Replan from the measured telemetry, applied via LoadPlan). A
// balanced-layout pair per algorithm checks stealing costs nothing when
// there is nothing to steal.
func ExpBalance(ds *Datasets, scale, machines, prIters int, prog Progress) (*Table, *BalanceReport, error) {
	if machines < 2 {
		return nil, nil, fmt.Errorf("balance: need >= 2 machines to steal across (have %d)", machines)
	}
	// The experiment models a cluster in one process; give it at least one
	// scheduling context per machine. Under GOMAXPROCS=1 the victim's copier
	// only runs after its workers yield the sole P, so every steal request
	// is served post-drain and the balancer never gets to act.
	if runtime.GOMAXPROCS(0) < machines {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(machines))
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

	rep := &BalanceReport{Dataset: DSTwitter, Scale: scale, Machines: machines, Skew: BalanceSkew}
	t := &Table{Title: fmt.Sprintf("Load balancing on a %.0f%%-skewed cut (%d machines, scale %d)",
		100*BalanceSkew, machines, scale)}
	t.Header = []string{"algo", "layout", "variant", "time", "wait-skew", "wait-p99", "stolen", "identical", "speedup"}

	// Measurement pass for layer 2: one steal-off run on the skewed layout
	// feeds Replan. Stealing must be off here — stolen chunks are billed to
	// the thief's task phase, which hides exactly the skew the plan is meant
	// to fix (see partition.Replan).
	prog.log("balance: telemetry pass for Replan (steal off, skewed cut)")
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

	type variant struct {
		name   string
		layout partition.Layout
		lname  string
		steal  bool
	}
	variants := []variant{
		{"no-steal", skewed, "skewed", false},
		{"steal", skewed, "skewed", true},
		{"no-steal", plan.Layout, "replanned", false},
	}

	for _, algo := range []string{"bfs", "sssp", "wcc", "pr-push"} {
		ag := g
		if algo == "sssp" {
			ag = wg
		}
		var baseBits []uint64
		var baseSecs float64
		start := len(rep.Rows)
		for _, v := range variants {
			prog.log("balance: %s %s/%s", algo, v.lname, v.name)
			row, bits, err := bestOfTwo(ag, machines, v.layout, v.steal, algo, prIters)
			if err != nil {
				return nil, nil, fmt.Errorf("balance: %s %s/%s: %w", algo, v.lname, v.name, err)
			}
			row.Layout = v.lname
			row.Variant = v.name
			if baseBits == nil {
				baseBits, baseSecs = bits, row.Seconds
				row.Identical = true
			} else {
				row.Identical = equalBits(baseBits, bits)
				row.SpeedupVsNoSteal = baseSecs / row.Seconds
			}
			rep.Rows = append(rep.Rows, row)
		}
		// The no-regression pair: the default degree-balanced cut, where the
		// steal machinery should find nothing to do and cost (close to)
		// nothing.
		balanced, err := partition.Compute(ag, machines, core.DefaultConfig(machines).Partitioning)
		if err != nil {
			return nil, nil, err
		}
		for _, steal := range []bool{false, true} {
			name := "no-steal"
			if steal {
				name = "steal"
			}
			prog.log("balance: %s balanced/%s", algo, name)
			row, bits, err := bestOfTwo(ag, machines, balanced, steal, algo, prIters)
			if err != nil {
				return nil, nil, fmt.Errorf("balance: %s balanced/%s: %w", algo, name, err)
			}
			row.Layout = "balanced"
			row.Variant = name
			row.Identical = equalBits(baseBits, bits)
			rep.Rows = append(rep.Rows, row)
		}
		for _, r := range rep.Rows[start:] {
			speedup := ""
			if r.SpeedupVsNoSteal > 0 {
				speedup = fmt.Sprintf("%.2fx", r.SpeedupVsNoSteal)
			}
			stolen := ""
			if r.StealRequests > 0 || r.StolenNodes > 0 {
				stolen = fmt.Sprintf("%dn/%de", r.StolenNodes, r.StolenEdges)
			}
			t.AddRow(r.Algo, r.Layout, r.Variant, fmtSecs(r.Seconds),
				fmt.Sprintf("%.2f", r.WaitSkew), fmtWaitP99(r.WaitP99MS),
				stolen, fmt.Sprintf("%v", r.Identical), speedup)
		}
	}

	t.Notes = append(t.Notes,
		fmt.Sprintf("skewed cut: machine 0 owns %.0f%% of the degree mass (edge imbalance %.2f)",
			100*BalanceSkew, rep.Replan.ImbalanceBefore),
		fmt.Sprintf("replanned cut: from the steal-off run's telemetry (edge imbalance %.2f -> %.2f)",
			rep.Replan.ImbalanceBefore, rep.Replan.ImbalanceAfter),
		"wait-skew = max/mean of per-machine barrier-wait totals; 1.0 is perfectly balanced",
		"identical = per-node results bit-identical to the skewed no-steal run; pr-push sums floats in arrival order, so its steal rows are speedup-only",
		"wall-clock speedup from stealing needs real parallel hardware: on one core the straggler's work runs somewhere either way, but wait-skew and the stolen column still show the balancer working")
	return t, rep, nil
}

// measureReplan runs one steal-off PageRank-push pass on the skewed layout
// with full instrumentation and asks the cluster for a repartitioning plan.
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

// bestOfTwo runs one (layout, steal, algo) cell twice on fresh clusters and
// keeps the faster run's row. The returned bits are the per-node results for
// the identity check (identical across trials by construction on the Min
// kernels; for pr-push the last trial's).
func bestOfTwo(g *graph.Graph, machines int, layout partition.Layout, steal bool, algo string, prIters int) (BalanceRow, []uint64, error) {
	var best BalanceRow
	var bits []uint64
	for trial := 0; trial < 2; trial++ {
		row, b, err := runBalanceCell(g, machines, layout, steal, algo, prIters)
		if err != nil {
			return BalanceRow{}, nil, err
		}
		if trial == 0 || row.Seconds < best.Seconds {
			best = row
		}
		bits = b
	}
	return best, bits, nil
}

// runBalanceCell boots a fresh instrumented cluster on an explicit layout,
// runs one algorithm, and returns the row plus per-node result bits. Cells
// run over the TCP fabric: cross-machine balancing is about the wire, and
// the in-process fabric's free sends would understate the cost of moving a
// chunk relative to owning it.
func runBalanceCell(g *graph.Graph, machines int, layout partition.Layout, steal bool, algo string, prIters int) (BalanceRow, []uint64, error) {
	cfg := core.DefaultConfig(machines)
	cfg.EnableWorkStealing = steal
	// Fine-grained chunks: the straggler's cursor drains gradually, so
	// thieves find unclaimed work throughout the task phase instead of only
	// at its start.
	cfg.ChunkTargetEdges = 256
	reg := obs.NewRegistry()
	cfg.Obs = reg
	cfg.ReqBuffers = 2*cfg.Workers*cfg.NumMachines + 4
	cfg.RespBuffers = 2*cfg.Copiers*cfg.NumMachines + 4
	fabric, err := comm.NewTCPFabricOpts(machines,
		machines*(cfg.ReqBuffers+cfg.Workers*machines)+64, cfg.BufferSize, comm.TCPOptions{})
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
	ctrs := reg.LifetimeCounters()
	row.StealRequests = ctrs["steal_requests"]
	row.StolenNodes = ctrs["stolen_nodes"]
	row.StolenEdges = ctrs["stolen_edges"]
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
