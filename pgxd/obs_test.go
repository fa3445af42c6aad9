package pgxd_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/pgxd"
)

// TestObservabilityThroughFacade runs PageRank with the registry attached
// and checks the public JobReport surface: per-superstep spans, nonzero
// traffic matrix, and sane phase accounting.
func TestObservabilityThroughFacade(t *testing.T) {
	g, err := pgxd.RMAT(8, 8, pgxd.TwitterLike(), 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pgxd.DefaultConfig(3)
	cfg.Obs = pgxd.NewObsRegistry()
	c, err := pgxd.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	if err := c.LoadGraph(g); err != nil {
		t.Fatal(err)
	}

	const iters = 3
	if _, _, err := c.PageRankPull(iters, 0.85); err != nil {
		t.Fatal(err)
	}

	reg := c.Observability()
	if reg == nil {
		t.Fatal("Observability() returned nil despite attached registry")
	}
	if got := reg.JobsObserved(); got < iters {
		t.Fatalf("JobsObserved = %d, want >= %d (one job per superstep)", got, iters)
	}
	reports := reg.RecentReports()
	if len(reports) < iters {
		t.Fatalf("RecentReports kept %d reports, want >= %d", len(reports), iters)
	}

	rep := c.LastJobReport()
	if rep == nil {
		t.Fatal("LastJobReport is nil")
	}
	if rep.Machines != 3 {
		t.Errorf("report covers %d machines, want 3", rep.Machines)
	}
	if len(rep.Spans) == 0 {
		t.Error("final superstep recorded no spans")
	}
	// Each superstep must show the full lifecycle: a job span per machine,
	// barrier waits, and a task phase.
	if got := rep.SpanCount(pgxd.SpanJob); got != 3 {
		t.Errorf("job spans = %d, want one per machine", got)
	}
	if rep.SpanCount(pgxd.SpanBarrier) == 0 {
		t.Error("no barrier spans recorded")
	}
	if rep.SpanCount(pgxd.SpanTaskPhase) == 0 {
		t.Error("no task-phase spans recorded")
	}
	if rep.TotalBytes() == 0 {
		t.Error("traffic matrix is all zero on three machines")
	}
	// Every machine pulls from every other at some point
	// in the run: summed over all supersteps, the off-diagonal of the
	// traffic matrix must be fully populated.
	var sum [3][3]int64
	for _, r := range reports {
		for src := range r.TrafficBytes {
			for dst := range r.TrafficBytes[src] {
				sum[src][dst] += r.TrafficBytes[src][dst]
			}
		}
	}
	for src := 0; src < 3; src++ {
		for dst := 0; dst < 3; dst++ {
			if src != dst && sum[src][dst] == 0 {
				t.Errorf("run-total traffic[%d][%d] = 0, want > 0", src, dst)
			}
		}
	}
	if rep.Line() == "" || rep.TrafficMatrixString() == "" {
		t.Error("formatted report surfaces are empty")
	}
	if c.LastAbortDump() != nil {
		t.Error("clean run left an abort dump behind")
	}
}

// TestFlightRecorderOnAbort injects a wire fault through the public fault
// fabric and checks the flight recorder dumps counters and span tails for
// the aborted job, while the recovery run starts from clean per-job state.
func TestFlightRecorderOnAbort(t *testing.T) {
	g, err := pgxd.RMAT(8, 8, pgxd.TwitterLike(), 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pgxd.DefaultConfig(3)
	cfg.Timeout = time.Second
	cfg.Obs = pgxd.NewObsRegistry()
	inj := pgxd.NewFaultFabric(cfg, nil, pgxd.FaultPlan{Seed: 11, Rules: []pgxd.FaultRule{
		{Src: pgxd.AnyMachine, Dst: pgxd.AnyMachine, Type: int(pgxd.MsgReadReq), Kind: pgxd.FaultFail, Limit: 1},
	}})
	cfg.Fabric = inj
	c, err := pgxd.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Shutdown()
		inj.Close()
	})
	if err := c.LoadGraph(g); err != nil {
		t.Fatal(err)
	}

	_, _, runErr := c.PageRankPull(3, 0.85)
	if !errors.Is(runErr, pgxd.ErrJobAborted) {
		t.Fatalf("expected ErrJobAborted, got %v", runErr)
	}

	dump := c.LastAbortDump()
	if dump == nil {
		t.Fatal("abort produced no flight-recorder dump")
	}
	if dump.Err == "" {
		t.Error("dump has no error string")
	}
	if len(dump.Spans) == 0 {
		t.Error("flight recorder retained no spans")
	}
	if dump.Summary() == "" {
		t.Error("dump summary is empty")
	}
	if got := c.Observability().AbortsObserved(); got != 1 {
		t.Errorf("AbortsObserved = %d, want 1", got)
	}

	// Recovery: clear the fault, rerun, and the new last report must belong
	// to the clean run (not the aborted one).
	inj.ClearRules()
	if _, _, err := c.PageRankPull(3, 0.85); err != nil {
		t.Fatalf("clean rerun failed: %v", err)
	}
	rep := c.LastJobReport()
	if rep == nil {
		t.Fatal("no job report after recovery run")
	}
	if rep.Job <= dump.Job {
		t.Errorf("last report job %d does not postdate aborted job %d", rep.Job, dump.Job)
	}
}

// TestSendErrorsCountedOnce: a send the fault fabric refuses is counted once,
// in the refusing endpoint's transport ledger, and the flight recorder reads
// that same ledger — so after TestFlightRecorderOnAbort's injected failure the
// cluster's transport snapshot and the abort dump agree on every fabric.
func TestSendErrorsCountedOnce(t *testing.T) {
	g, err := pgxd.RMAT(8, 8, pgxd.TwitterLike(), 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, fabric := range []string{"inproc", "tcp"} {
		t.Run(fabric, func(t *testing.T) {
			cfg := pgxd.DefaultConfig(3)
			cfg.Timeout = time.Second
			cfg.Obs = pgxd.NewObsRegistry()
			var inner comm.Fabric // nil: a fresh in-process fabric
			if fabric == "tcp" {
				if inner, err = pgxd.NewTCPFabric(cfg); err != nil {
					t.Fatal(err)
				}
			}
			inj := pgxd.NewFaultFabric(cfg, inner, pgxd.FaultPlan{Seed: 11, Rules: []pgxd.FaultRule{
				{Src: pgxd.AnyMachine, Dst: pgxd.AnyMachine, Type: int(pgxd.MsgReadReq), Kind: pgxd.FaultFail, Limit: 1},
			}})
			cfg.Fabric = inj
			c, err := pgxd.NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				c.Shutdown()
				inj.Close()
			})
			if err := c.LoadGraph(g); err != nil {
				t.Fatal(err)
			}
			if _, _, err := c.PageRankPull(3, 0.85); !errors.Is(err, pgxd.ErrJobAborted) {
				t.Fatalf("expected ErrJobAborted, got %v", err)
			}
			dump := c.LastAbortDump()
			if dump == nil {
				t.Fatal("abort produced no flight-recorder dump")
			}
			snap := c.Core().TrafficSnapshot().SendErrors
			if snap < 1 || snap != dump.Counters["send_errors"] {
				t.Errorf("transport snapshot counts %d send errors, the abort dump %d; want the same count, at least 1",
					snap, dump.Counters["send_errors"])
			}
		})
	}
}
