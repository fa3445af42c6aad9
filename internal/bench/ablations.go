package bench

import (
	"fmt"
	"time"

	"repro/internal/algorithms"
	"repro/internal/core"
)

// ExpAblations quantifies the engine design choices DESIGN.md calls out,
// beyond the paper's own figures: data pulling vs pushing (the atomic-
// reduction saving of §5.2), replicas — mirrored reads, accumulated writes —
// vs the on-demand protocol (§3.3), and the bare per-step overhead (barrier
// vs empty job, the cost that governs k-core per §5.3.1).
func ExpAblations(ds *Datasets, scale, machines int, prog Progress) (*Table, error) {
	g, err := ds.Get(DSTwitter, scale)
	if err != nil {
		return nil, err
	}
	t := &Table{Title: "Ablations: engine design choices (PR on TWT')"}
	t.Header = []string{"ablation", "variant A", "variant B", "A/B"}

	runPR := func(cfg core.Config, pull bool) (time.Duration, error) {
		c, err := core.NewCluster(cfg)
		if err != nil {
			return 0, err
		}
		defer c.Shutdown()
		if err := c.Load(g); err != nil {
			return 0, err
		}
		var met algorithms.Metrics
		if pull {
			_, met, err = algorithms.PageRankPull(c, 3, 0.85)
		} else {
			_, met, err = algorithms.PageRankPush(c, 3, 0.85)
		}
		return met.Total, err
	}

	// 1. Pull vs push.
	prog.log("ablations: pull vs push")
	pullT, err := runPR(core.DefaultConfig(machines), true)
	if err != nil {
		return nil, err
	}
	pushT, err := runPR(core.DefaultConfig(machines), false)
	if err != nil {
		return nil, err
	}
	t.AddRow("data pulling vs pushing",
		fmt.Sprintf("pull %s", fmtSecs(pullT.Seconds())),
		fmt.Sprintf("push %s", fmtSecs(pushT.Seconds())),
		fmt.Sprintf("%.2f", pullT.Seconds()/pushT.Seconds()))

	// 2, 3. Replicas on vs off: the per-load remote sets resolve a dense
	// push's remote writes once per worker (accumulators) and a dense pull's
	// remote reads once per superstep (mirrors); without them every remote ref
	// is a buffered record.
	cfgOnDemand := core.DefaultConfig(machines)
	cfgOnDemand.Ablate = core.AblateRemoteSets
	for _, row := range []struct {
		name string
		pull bool
		with time.Duration
	}{{"accumulated vs on-demand remote writes (push)", false, pushT}, {"mirrored vs on-demand remote reads (pull)", true, pullT}} {
		prog.log("ablations: %s", row.name)
		onDemandT, err := runPR(cfgOnDemand, row.pull)
		if err != nil {
			return nil, err
		}
		t.AddRow(row.name,
			fmt.Sprintf("replicated %s", fmtSecs(row.with.Seconds())),
			fmt.Sprintf("on demand %s", fmtSecs(onDemandT.Seconds())),
			fmt.Sprintf("%.2f", row.with.Seconds()/onDemandT.Seconds()))
	}

	// 4. Direction switching: adaptive BFS vs fixed push (both on the
	// frontier machinery; only the per-superstep heuristic differs).
	prog.log("ablations: direction switching")
	runBFS := func(cfg core.Config) (time.Duration, error) {
		c, err := core.NewCluster(cfg)
		if err != nil {
			return 0, err
		}
		defer c.Shutdown()
		if err := c.Load(g); err != nil {
			return 0, err
		}
		_, met, err := algorithms.HopDist(c, 0, c.NumNodes())
		return met.Total, err
	}
	adaptT, err := runBFS(core.DefaultConfig(machines))
	if err != nil {
		return nil, err
	}
	cfgFixed := core.DefaultConfig(machines)
	cfgFixed.Ablate = core.AblatePinPush
	fixedT, err := runBFS(cfgFixed)
	if err != nil {
		return nil, err
	}
	t.AddRow("direction switching vs fixed push (BFS)",
		fmt.Sprintf("adaptive %s", fmtSecs(adaptT.Seconds())),
		fmt.Sprintf("push %s", fmtSecs(fixedT.Seconds())),
		fmt.Sprintf("%.2f", adaptT.Seconds()/fixedT.Seconds()))

	// 5. Sparse frontier: frontier-driven BFS vs the engine's dense-filter
	// fallback (every chunk scanned, one membership-bit test per node, no
	// empty-machine skip) — both fixed push, so only the iteration machinery
	// differs.
	prog.log("ablations: sparse frontier")
	cfgDense := core.DefaultConfig(machines)
	cfgDense.Ablate = core.AblateSparseFrontier | core.AblatePinPush
	denseT, err := runBFS(cfgDense)
	if err != nil {
		return nil, err
	}
	t.AddRow("sparse frontier vs dense filter scan (BFS)",
		fmt.Sprintf("frontier %s", fmtSecs(fixedT.Seconds())),
		fmt.Sprintf("dense %s", fmtSecs(denseT.Seconds())),
		fmt.Sprintf("%.2f", fixedT.Seconds()/denseT.Seconds()))

	// 6. Per-step overhead: barrier vs full (empty) job.
	prog.log("ablations: per-step overhead")
	c, err := core.NewCluster(core.DefaultConfig(machines))
	if err != nil {
		return nil, err
	}
	defer c.Shutdown()
	if err := c.Load(g); err != nil {
		return nil, err
	}
	const rounds = 50
	start := time.Now()
	for i := 0; i < rounds; i++ {
		if err := c.Barrier(); err != nil {
			return nil, err
		}
	}
	barrierT := time.Since(start) / rounds
	task := &edgeIterKernel{}
	start = time.Now()
	for i := 0; i < rounds; i++ {
		if _, err := c.RunJob(core.JobSpec{Name: "empty", Iter: core.IterNodes, Task: task}); err != nil {
			return nil, err
		}
	}
	jobT := time.Since(start) / rounds
	t.AddRow("per-step overhead",
		fmt.Sprintf("barrier %s", fmtSecs(barrierT.Seconds())),
		fmt.Sprintf("empty job %s", fmtSecs(jobT.Seconds())),
		fmt.Sprintf("%.2f", barrierT.Seconds()/jobT.Seconds()))

	t.Notes = append(t.Notes,
		"pull avoids atomic reductions; its advantage grows with contention (real cores)",
		"the empty-job overhead is what accumulates over k-core's thousands of steps (paper §5.3.1)")
	return t, nil
}
