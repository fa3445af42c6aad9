package bench

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/algorithms"
	"repro/internal/baseline/gas"
	"repro/internal/baseline/sa"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/partition"
)

// --- Figure 4: uniform random vs skewed graph -------------------------------

// Fig4Opts parameterizes the communication-isolation experiment: exact
// PageRank on a uniform random graph (inherently balanced, maximally
// communicating) versus the skewed TWT' instance.
type Fig4Opts struct {
	Scale         int
	MachineCounts []int
	Workers       int
	Copiers       int
	PRIters       int
	Progress      Progress
}

// DefaultFig4Opts returns laptop-scale defaults.
func DefaultFig4Opts() Fig4Opts {
	return Fig4Opts{Scale: DefaultScale, MachineCounts: []int{1, 2, 4}, Workers: 4, Copiers: 2, PRIters: 5}
}

// ExpFig4 runs PageRank (exact) per system on UNI' and TWT' and reports
// relative performance normalized to GL on the smallest machine count, the
// paper's Figure 4 layout.
func ExpFig4(ds *Datasets, opts Fig4Opts) (*Table, error) {
	t := &Table{Title: "Figure 4: PageRank(exact) on uniform vs skewed graph (relative perf, GL@min = 1.0)"}
	t.Header = []string{"graph", "series"}
	for _, p := range opts.MachineCounts {
		t.Header = append(t.Header, fmt.Sprintf("p=%d", p))
	}
	for _, dsName := range []string{DSUniform, DSTwitter} {
		g, err := ds.Get(dsName, opts.Scale)
		if err != nil {
			return nil, err
		}
		cfgFor := func(p int) CellConfig {
			cfg := DefaultCellConfig(p)
			cfg.Workers, cfg.Copiers, cfg.PRIters = opts.Workers, opts.Copiers, opts.PRIters
			return cfg
		}
		var base float64
		series := []struct {
			label string
			run   func(p int) (CellResult, error)
		}{
			{"GL push", func(p int) (CellResult, error) { return runGL(AlgoPRPush, g, cfgFor(p)) }},
			{"PGX push", func(p int) (CellResult, error) { return runPGX(AlgoPRPush, g, cfgFor(p)) }},
			{"PGX pull", func(p int) (CellResult, error) { return runPGX(AlgoPRPull, g, cfgFor(p)) }},
		}
		for si, sr := range series {
			opts.Progress.log("fig4: %s %s", dsName, sr.label)
			row := []string{dsName, sr.label}
			for pi, p := range opts.MachineCounts {
				res, err := sr.run(p)
				if err != nil {
					return nil, err
				}
				if si == 0 && pi == 0 {
					base = res.Seconds
				}
				row = append(row, fmtRel(base/res.Seconds))
			}
			t.AddRow(row...)
		}
	}
	t.Notes = append(t.Notes,
		"UNI': (P-1)/P of edges cross partitions regardless of layout — communication-bound",
		"PGX advantage on UNI' isolates communication efficiency; the larger TWT' gap adds load balance")
	return t, nil
}

// --- Figure 5a: edge iteration rate vs threads -------------------------------

// edgeIterKernel reads every edge's neighbor ref through the engine's chunk
// cursor with no data movement — the framework-overhead microbenchmark.
// Like SA's loop it sums the refs; the chunk's sum lands in Ctx.Aux, the
// kernel's scratch, so the loop is not dead code.
type edgeIterKernel struct {
	core.NoReads
}

func (k *edgeIterKernel) RunRows(c *core.Ctx, rows *core.Cursor) {
	var acc int64
	for rows.Next() {
		for _, ref := range rows.Row().Refs {
			acc += ref
		}
	}
	c.Aux += uint64(acc)
}

// timedRuns is how many timed runs a row of Figure 5a, 6a, 6b, 6c or 7 takes
// the median of, after one untimed warm-up run: a single run of a few
// milliseconds is mostly noise (two runs of one fig6a row at scale 11 read
// 1.81 and 0.68 relative runtime for the same code).
const timedRuns = 5

// median runs run once untimed and then timedRuns times, and returns the
// timed result whose key — its duration — is the median.
func median[T any](run func() (T, error), key func(T) time.Duration) (T, error) {
	warm, err := run()
	if err != nil {
		return warm, err
	}
	res := make([]T, timedRuns)
	for i := range res {
		if res[i], err = run(); err != nil {
			return res[i], err
		}
	}
	slices.SortFunc(res, func(a, b T) int { return cmp.Compare(key(a), key(b)) })
	return res[timedRuns/2], nil
}

// timedRunsNote is the notes line of a table whose rows median.
var timedRunsNote = fmt.Sprintf("each time is the median of %d timed runs after one warm-up on the loaded cluster", timedRuns)

// elapsed returns a duration as is: median's key for a bare timing.
func elapsed(d time.Duration) time.Duration { return d }

// ExpFig5a measures edge-iteration throughput (millions of edges per
// second, single machine) versus thread count for the SA loop, the PGX.D
// engine, and the GAS engine.
func ExpFig5a(ds *Datasets, scale int, threadCounts []int, prog Progress) (*Table, error) {
	g, err := ds.Get(DSTwitter, scale)
	if err != nil {
		return nil, err
	}
	t := &Table{Title: "Figure 5a: edge iteration rate, single machine (million edges/second)"}
	t.Header = []string{"threads", "SA(OpenMP-style)", "PGX.D", "GL(GAS)"}
	edges := float64(g.NumEdges())
	for _, th := range threadCounts {
		prog.log("fig5a: threads=%d", th)
		// SA: raw CSR loop.
		saTime, _ := median(func() (time.Duration, error) {
			start := time.Now()
			sa.EdgeIterationRate(g, sa.Threads(th))
			return time.Since(start), nil
		}, elapsed)
		saRate := edges / saTime.Seconds() / 1e6

		// PGX.D: one machine, th workers, a row kernel that only reads refs.
		cfg := core.DefaultConfig(1)
		cfg.Workers = th
		c, err := core.NewCluster(cfg)
		if err != nil {
			return nil, err
		}
		if err := c.Load(g); err != nil {
			c.Shutdown()
			return nil, err
		}
		pgxTime, err := median(func() (time.Duration, error) {
			stats, err := c.RunJob(core.JobSpec{Name: "edge-iter", Iter: core.IterOutEdges, Task: &edgeIterKernel{}})
			return stats.Duration, err
		}, elapsed)
		c.Shutdown()
		if err != nil {
			return nil, err
		}
		pgxRate := edges / pgxTime.Seconds() / 1e6

		// GAS: one machine, th threads.
		_, gst, err := gas.EdgeIteration(g, th)
		if err != nil {
			return nil, err
		}
		gasRate := edges / gst.Duration.Seconds() / 1e6

		t.AddRow(fmt.Sprint(th), fmt.Sprintf("%.1f", saRate), fmt.Sprintf("%.1f", pgxRate), fmt.Sprintf("%.1f", gasRate))
	}
	t.Notes = append(t.Notes, "expected shape: SA fastest, PGX.D close behind, GAS well below (paper Fig 5a)",
		fmt.Sprintf("SA and PGX.D: the median of %d timed runs after one warm-up, PGX.D's on the loaded cluster; GAS: one run", timedRuns))
	return t, nil
}

// --- Figure 5b: barrier latency ----------------------------------------------

// ExpFig5b measures the engine's distributed barrier latency versus machine
// count.
func ExpFig5b(machineCounts []int, rounds int, prog Progress) (*Table, error) {
	t := &Table{Title: "Figure 5b: barrier latency vs machines"}
	t.Header = []string{"machines", "barrier latency"}
	for _, p := range machineCounts {
		prog.log("fig5b: p=%d", p)
		c, err := core.NewCluster(core.DefaultConfig(p))
		if err != nil {
			return nil, err
		}
		// The barrier needs a loaded graph only for the engine's Load
		// invariants, not for the measurement; a tiny instance suffices.
		g, err := dummyGraph()
		if err != nil {
			c.Shutdown()
			return nil, err
		}
		if err := c.Load(g); err != nil {
			c.Shutdown()
			return nil, err
		}
		// Warm up, then measure.
		for i := 0; i < 10; i++ {
			if err := c.Barrier(); err != nil {
				c.Shutdown()
				return nil, err
			}
		}
		start := time.Now()
		for i := 0; i < rounds; i++ {
			if err := c.Barrier(); err != nil {
				c.Shutdown()
				return nil, err
			}
		}
		per := time.Since(start) / time.Duration(rounds)
		c.Shutdown()
		t.AddRow(fmt.Sprint(p), per.String())
	}
	t.Notes = append(t.Notes, "latency grows with machine count but stays far below per-step compute times (paper Fig 5b)")
	return t, nil
}

func dummyGraph() (*graph.Graph, error) {
	return graph.Uniform(64, 256, 1)
}

// pagerankPull is the job Figures 6 and 7 time: three PageRank-pull iterations
// on a fresh cluster of cfg over g cut by strat, with the replica cap ghosts
// (nil: every referenced address), run once to warm up and then timedRuns
// times on the loaded cluster. It returns the metrics of the median run and the
// cut.
func pagerankPull(cfg core.Config, g *graph.Graph, strat partition.Strategy, ghosts *partition.GhostSet) (algorithms.Metrics, partition.Layout, error) {
	layout, err := partition.Compute(g, cfg.NumMachines, strat)
	if err != nil {
		return algorithms.Metrics{}, layout, err
	}
	c, err := core.NewCluster(cfg)
	if err != nil {
		return algorithms.Metrics{}, layout, err
	}
	defer c.Shutdown()
	if err := c.LoadPlan(g, layout, ghosts); err != nil {
		return algorithms.Metrics{}, layout, err
	}
	met, err := median(func() (algorithms.Metrics, error) {
		_, met, err := algorithms.PageRankPull(c, 3, 0.85)
		return met, err
	}, func(m algorithms.Metrics) time.Duration { return m.Total })
	return met, layout, err
}

// --- Figure 6a: ghost node sweep ----------------------------------------------

// ExpFig6a sweeps the ghost count — how many of the highest-degree vertices a
// machine's remote sets may replicate (the load's ghost set,
// partition.SelectTopGhosts) — and reports runtime and data traffic of
// PageRank-pull on TWT', both relative to the first row, the paper's Figure
// 6a. A count of 0 is the empty set, the run without replicas; the last row,
// "all", is the uncapped default.
func ExpFig6a(ds *Datasets, scale int, machines int, ghostCounts []int, prog Progress) (*Table, error) {
	g, err := ds.Get(DSTwitter, scale)
	if err != nil {
		return nil, err
	}
	t := &Table{Title: "Figure 6a: ghost-node effect on runtime and traffic (PR-pull on TWT')"}
	t.Header = []string{"ghosts", "runtime", "traffic", "rel runtime", "rel traffic"}
	var baseTime, baseTraffic float64
	for i := 0; i <= len(ghostCounts); i++ {
		label, ghosts := "all", (*partition.GhostSet)(nil) // past the counts: the uncapped default
		if i < len(ghostCounts) {
			label, ghosts = fmt.Sprint(ghostCounts[i]), partition.SelectTopGhosts(g, ghostCounts[i])
		}
		prog.log("fig6a: ghosts=%s", label)
		met, _, err := pagerankPull(core.DefaultConfig(machines), g, partition.EdgeBalanced, ghosts)
		if err != nil {
			return nil, err
		}
		secs := met.Total.Seconds()
		traffic := float64(met.Traffic.DataBytesSent)
		if i == 0 {
			baseTime, baseTraffic = secs, traffic
		}
		t.AddRow(label, fmtSecs(secs), fmtBytes(int64(traffic)),
			fmt.Sprintf("%.2f", secs/baseTime), fmt.Sprintf("%.2f", traffic/baseTraffic))
	}
	t.Notes = append(t.Notes,
		"a ghost is a remote-set entry: mirrored once per iteration instead of read once per referencing edge",
		"traffic falls steeply with the first few hundred ghosts (skewed degree distribution); paper: runtime ~75% at ~500 ghosts",
		timedRunsNote)
	return t, nil
}

// --- Figure 6b: edge vs vertex partitioning -----------------------------------

// ExpFig6b compares edge partitioning against vertex partitioning for
// PageRank-pull on TWT' across machine counts (ghosting enabled for both,
// as in the paper).
func ExpFig6b(ds *Datasets, scale int, machineCounts []int, prog Progress) (*Table, error) {
	g, err := ds.Get(DSTwitter, scale)
	if err != nil {
		return nil, err
	}
	t := &Table{Title: "Figure 6b: edge vs vertex partitioning (PR-pull on TWT')"}
	t.Header = []string{"machines", "vertex part.", "edge part.", "edge speedup", "imbal. vertex", "imbal. edge"}
	for _, p := range machineCounts {
		prog.log("fig6b: p=%d", p)
		times := make(map[partition.Strategy]float64)
		imbal := make(map[partition.Strategy]float64)
		for _, strat := range []partition.Strategy{partition.VertexBalanced, partition.EdgeBalanced} {
			met, layout, err := pagerankPull(core.DefaultConfig(p), g, strat, nil)
			if err != nil {
				return nil, err
			}
			times[strat], imbal[strat] = met.Total.Seconds(), layout.EdgeImbalance(g)
		}
		t.AddRow(fmt.Sprint(p), fmtSecs(times[partition.VertexBalanced]), fmtSecs(times[partition.EdgeBalanced]),
			fmtRel(times[partition.VertexBalanced]/times[partition.EdgeBalanced]),
			fmt.Sprintf("%.2f", imbal[partition.VertexBalanced]), fmt.Sprintf("%.2f", imbal[partition.EdgeBalanced]))
	}
	t.Notes = append(t.Notes,
		"the edge-partitioning benefit grows with machine count (paper Fig 6b)",
		"imbal. = max/mean per-machine edge weight (1.00 is perfect); structural, so it holds even when wall time is CPU-bound",
		timedRunsNote)
	return t, nil
}

// --- Figure 6c: load-balancing breakdown ---------------------------------------

// ExpFig6c decomposes PageRank-pull runtime into the paper's Figure 6c
// components under three configurations: ghosting only (vertex partitioning
// + node chunking), plus edge partitioning, plus edge chunking.
func ExpFig6c(ds *Datasets, scale int, machines int, prog Progress) (*Table, error) {
	g, err := ds.Get(DSTwitter, scale)
	if err != nil {
		return nil, err
	}
	t := &Table{Title: "Figure 6c: execution-time breakdown of load-balancing techniques (PR-pull on TWT')"}
	t.Header = []string{"config", "total", "fully parallel", "intra-machine imbal.", "inter-machine imbal.", "sync"}
	configs := []struct {
		label string
		strat partition.Strategy
		nodes bool
	}{
		{"ghost only (vertex part., node chunks)", partition.VertexBalanced, true},
		{"+ edge partitioning", partition.EdgeBalanced, true},
		{"+ edge chunking", partition.EdgeBalanced, false},
	}
	for _, cc := range configs {
		prog.log("fig6c: %s", cc.label)
		cfg := core.DefaultConfig(machines)
		if cc.nodes {
			cfg.Ablate = core.AblateEdgeChunking
		}
		met, _, err := pagerankPull(cfg, g, cc.strat, nil)
		if err != nil {
			return nil, err
		}
		total := met.Total.Seconds()
		pct := func(d time.Duration) string {
			return fmt.Sprintf("%.0f%%", 100*d.Seconds()/total)
		}
		b := met.Breakdown
		t.AddRow(cc.label, fmtSecs(total), pct(b.FullyParallel), pct(b.IntraMachine), pct(b.InterMachine), pct(b.Sync))
	}
	t.Notes = append(t.Notes,
		"edge partitioning alone moves imbalance from machines to cores; edge chunking removes it (paper Fig 6c)",
		timedRunsNote+"; the breakdown is that run's")
	return t, nil
}

// --- Figure 7: worker/copier grid ----------------------------------------------

// ExpFig7 sweeps worker and copier counts for PageRank-pull, reporting
// relative performance with the best cell as 1.00 — the paper's Figure 7
// heat map.
func ExpFig7(ds *Datasets, scale, machines int, workerCounts, copierCounts []int, prog Progress) (*Table, error) {
	g, err := ds.Get(DSTwitter, scale)
	if err != nil {
		return nil, err
	}
	secs := make(map[[2]int]float64)
	best := 0.0
	for _, w := range workerCounts {
		for _, cp := range copierCounts {
			prog.log("fig7: workers=%d copiers=%d", w, cp)
			cfg := core.DefaultConfig(machines)
			cfg.Workers, cfg.Copiers = w, cp
			met, _, err := pagerankPull(cfg, g, partition.EdgeBalanced, nil)
			if err != nil {
				return nil, err
			}
			s := met.Total.Seconds()
			secs[[2]int{w, cp}] = s
			if best == 0 || s < best {
				best = s
			}
		}
	}
	t := &Table{Title: "Figure 7: relative performance across worker/copier counts (best = 1.00)"}
	t.Header = []string{"workers \\ copiers"}
	for _, cp := range copierCounts {
		t.Header = append(t.Header, fmt.Sprint(cp))
	}
	for _, w := range workerCounts {
		row := []string{fmt.Sprint(w)}
		for _, cp := range copierCounts {
			row = append(row, fmt.Sprintf("%.2f", best/secs[[2]int{w, cp}]))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes, "performance collapses when either thread kind is under-provisioned (paper Fig 7)", timedRunsNote)
	return t, nil
}
