package pgxd_test

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/baseline/sa"
	"repro/pgxd"
)

// TestFaultInjectionThroughFacade drives the public failure-model surface:
// NewFaultFabric wraps the engine's transport, an injected wire fault surfaces
// from PageRankPull as an ErrJobAborted-wrapped error (no panic), and after
// ClearRules the same cluster produces reference-exact results.
func TestFaultInjectionThroughFacade(t *testing.T) {
	g, err := pgxd.RMAT(8, 8, pgxd.TwitterLike(), 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pgxd.DefaultConfig(3)
	cfg.Timeout = time.Second
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
	if runErr == nil {
		t.Fatal("PageRankPull succeeded despite injected fault")
	}
	if !errors.Is(runErr, pgxd.ErrJobAborted) {
		t.Fatalf("error %v does not wrap pgxd.ErrJobAborted", runErr)
	}
	// Limit is per (src,dst) stream, so several streams may each fail one
	// frame before the abort wins the race; at least one must have fired.
	if st := inj.Stats(); st.Failed == 0 {
		t.Error("no send failure was actually injected")
	}

	inj.ClearRules()
	ranks, _, err := c.PageRankPull(3, 0.85)
	if err != nil {
		t.Fatalf("clean rerun failed: %v", err)
	}
	want := sa.PageRank(g, 3, 0.85, 1)
	for u := range want {
		if math.Abs(ranks[u]-want[u]) > 1e-10 {
			t.Fatalf("node %d after recovery: %g vs %g", u, ranks[u], want[u])
		}
	}
}
