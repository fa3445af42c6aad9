package bench

import (
	"fmt"
	"time"

	"repro/internal/algorithms"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/pgxd"
)

// ExpFaults smoke-tests the failure model end to end: PageRank runs over a
// fault-injecting fabric that fails, drops, delays, or kills traffic, and
// each scenario asserts the fail-soft contract — injected faults surface as
// errors from the public API (never panics), every pooled buffer comes
// back, and after clearing the fault the same cluster runs the job clean.
func ExpFaults(ds *Datasets, scale, machines int, prog Progress) (*Table, error) {
	if machines < 2 {
		machines = 2
	}
	g, err := ds.Get(DSTwitter, scale)
	if err != nil {
		return nil, err
	}
	t := &Table{Title: fmt.Sprintf("Faults: fail-soft smoke (PR pull on TWT', %d machines)", machines)}
	t.Header = []string{"scenario", "outcome", "recovery", "injector"}

	scenario := func(name string, plan comm.FaultPlan, wantErr, recoverable bool) error {
		prog.log("faults: %s", name)
		cfg := core.DefaultConfig(machines)
		cfg.RequestTimeout = 1500 * time.Millisecond
		cfg.CollectiveTimeout = 1500 * time.Millisecond
		inj := pgxd.NewFaultFabric(cfg, nil, plan)
		cfg.Fabric = inj
		c, err := core.NewCluster(cfg)
		if err != nil {
			return err
		}
		defer func() {
			c.Shutdown()
			inj.Close()
		}()
		if err := c.Load(g); err != nil {
			return err
		}
		_, _, runErr := algorithms.PageRankPull(c, 2, 0.85)

		outcome := "ok"
		if runErr != nil {
			outcome = "error surfaced"
		}
		if wantErr && runErr == nil {
			return fmt.Errorf("%s: fault injected but job succeeded", name)
		}
		if !wantErr && runErr != nil {
			return fmt.Errorf("%s: job failed under a tolerable fault: %w", name, runErr)
		}
		if !c.PoolsQuiescent() {
			return fmt.Errorf("%s: pooled buffers leaked after fault", name)
		}

		recovery := "n/a"
		if wantErr && recoverable {
			inj.ClearRules()
			start := time.Now()
			if _, _, err := algorithms.PageRankPull(c, 2, 0.85); err != nil {
				return fmt.Errorf("%s: clean rerun after recovery failed: %w", name, err)
			}
			recovery = fmt.Sprintf("clean rerun %s", fmtSecs(time.Since(start).Seconds()))
		} else if wantErr {
			recovery = "machine dead"
		}
		st := inj.Stats()
		t.AddRow(name, outcome, recovery,
			fmt.Sprintf("drop=%d delay=%d trunc=%d fail=%d kill=%d",
				st.Dropped, st.Delayed, st.Truncated, st.Failed, st.Kills))
		return nil
	}

	steps := []struct {
		name        string
		plan        comm.FaultPlan
		wantErr     bool
		recoverable bool
	}{
		{"baseline (no faults)", comm.FaultPlan{Seed: 1}, false, false},
		{"hard-fail one read request", comm.FaultPlan{Seed: 2, Rules: []comm.FaultRule{
			{Src: comm.AnyMachine, Dst: comm.AnyMachine, Type: int(comm.MsgReadReq), Kind: comm.FaultFail, After: 1, Limit: 1},
		}}, true, true},
		{"drop one read response", comm.FaultPlan{Seed: 3, Rules: []comm.FaultRule{
			{Src: comm.AnyMachine, Dst: comm.AnyMachine, Type: int(comm.MsgReadResp), Kind: comm.FaultDrop, After: 1, Limit: 1},
		}}, true, true},
		{"delay every 16th response 1ms", comm.FaultPlan{Seed: 4, Rules: []comm.FaultRule{
			{Src: comm.AnyMachine, Dst: comm.AnyMachine, Type: int(comm.MsgReadResp), Kind: comm.FaultDelay, Every: 16, Delay: time.Millisecond},
		}}, false, false},
		{"kill machine 1 mid-job", comm.FaultPlan{Seed: 5, Rules: []comm.FaultRule{
			{Src: 1, Dst: comm.AnyMachine, Type: comm.AnyType, Kind: comm.FaultKill, After: 20},
		}}, true, false},
	}
	for _, s := range steps {
		if err := scenario(s.name, s.plan, s.wantErr, s.recoverable); err != nil {
			return nil, err
		}
	}
	t.Notes = append(t.Notes,
		"errors return through Cluster.RunJob / the pgxd API; no scenario panics or leaks buffers",
		"drop and kill scenarios resolve via the request/collective timeouts (1.5s here)")
	return t, nil
}
