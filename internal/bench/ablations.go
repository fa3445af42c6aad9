package bench

import (
	"fmt"
	"time"

	"repro/internal/algorithms"
	"repro/internal/core"
)

// ExpAblations quantifies the engine design choices DESIGN.md calls out,
// beyond the paper's own figures: data pulling vs pushing (the atomic-
// reduction saving of §5.2), ghost privatization vs shared atomic ghosts
// (§3.3), and the bare per-step overhead (barrier vs empty job, the cost
// that governs k-core per §5.3.1).
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

	// 2. Ghost privatization on vs off (push reduces into ghosts).
	prog.log("ablations: ghost privatization")
	cfgPriv := core.DefaultConfig(machines)
	cfgPriv.GhostCount = 256
	privT, err := runPR(cfgPriv, false)
	if err != nil {
		return nil, err
	}
	cfgShared := cfgPriv
	cfgShared.Ablate = core.AblateGhostPrivatization
	sharedT, err := runPR(cfgShared, false)
	if err != nil {
		return nil, err
	}
	t.AddRow("ghost privatization vs shared atomics",
		fmt.Sprintf("private %s", fmtSecs(privT.Seconds())),
		fmt.Sprintf("shared %s", fmtSecs(sharedT.Seconds())),
		fmt.Sprintf("%.2f", privT.Seconds()/sharedT.Seconds()))

	// 3. Read combining on vs off (pull with ghosting disabled, so every
	// cross-partition read goes remote — the duplicate-heavy case).
	prog.log("ablations: read combining")
	cfgComb := core.DefaultConfig(machines)
	cfgComb.GhostThreshold = core.GhostDisabled
	combT, err := runPR(cfgComb, true)
	if err != nil {
		return nil, err
	}
	cfgNoComb := cfgComb
	cfgNoComb.Ablate = core.AblateReadCombining
	noCombT, err := runPR(cfgNoComb, true)
	if err != nil {
		return nil, err
	}
	t.AddRow("read combining vs raw protocol",
		fmt.Sprintf("combined %s", fmtSecs(combT.Seconds())),
		fmt.Sprintf("raw %s", fmtSecs(noCombT.Seconds())),
		fmt.Sprintf("%.2f", combT.Seconds()/noCombT.Seconds()))

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

	// 6. Write combining: WCC's min-label pushes produce duplicate
	// (prop, op, offset) records whenever several frontier nodes share a
	// remote neighbor — the case the sender-side combiner folds in place.
	prog.log("ablations: write combining")
	runWCC := func(cfg core.Config) (time.Duration, error) {
		c, err := core.NewCluster(cfg)
		if err != nil {
			return 0, err
		}
		defer c.Shutdown()
		if err := c.Load(g); err != nil {
			return 0, err
		}
		_, met, err := algorithms.WCC(c, 100000)
		return met.Total, err
	}
	combWT, err := runWCC(core.DefaultConfig(machines))
	if err != nil {
		return nil, err
	}
	cfgNoW := core.DefaultConfig(machines)
	cfgNoW.Ablate = core.AblateWriteCombining
	noCombWT, err := runWCC(cfgNoW)
	if err != nil {
		return nil, err
	}
	t.AddRow("write combining vs raw write records (WCC)",
		fmt.Sprintf("combined %s", fmtSecs(combWT.Seconds())),
		fmt.Sprintf("raw %s", fmtSecs(noCombWT.Seconds())),
		fmt.Sprintf("%.2f", combWT.Seconds()/noCombWT.Seconds()))

	// 7. Per-step overhead: barrier vs full (empty) job.
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
