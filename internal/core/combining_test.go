package core

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/graph"
)

// combiningConfig builds a cluster config with ghosting disabled and the
// remote sets ablated, so every cross-partition neighbor read is requested,
// and every remote reduction buffered, on demand over the wire — the
// duplicate-heavy workload read and write combining exist for (a mirrored pull
// fetches, and an accumulated push ships, each distinct address once and
// leaves nothing to combine).
func combiningConfig(p int, disable bool) Config {
	cfg := DefaultConfig(p)
	cfg.BufferSize = 8 << 10 // small windows: exercises flush + dedup reset
	cfg.GhostThreshold = GhostDisabled
	cfg.Ablate = AblateRemoteSets
	if disable {
		cfg.Ablate |= AblateReadCombining
	}
	return cfg
}

// runDuplicateHeavyPull runs the pull-sum kernel (every node reads all its
// in-neighbors, so hubs of a skewed graph are read over and over) and
// returns the gathered result plus the job's traffic delta.
func runDuplicateHeavyPull(t *testing.T, g *graph.Graph, cfg Config) ([]float64, comm.Snapshot) {
	t.Helper()
	c := bootCluster(t, g, cfg)
	src, _ := c.AddPropF64("src")
	dst, _ := c.AddPropF64("dst")
	c.FillByNodeF64(src, func(v graph.NodeID) float64 { return float64(v) })
	c.FillF64(dst, 0)
	stats, err := c.RunJob(JobSpec{
		Name:      "pull-sum",
		Iter:      IterInEdges,
		Task:      &pullSumTask{src: src, dst: dst},
		ReadProps: []PropID{src},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !c.PoolsQuiescent() {
		t.Fatal("pools not quiescent after job: sides or buffers leaked")
	}
	return c.GatherF64(dst), stats.Traffic
}

// TestReadCombiningMatchesReference: on a skewed graph with ghosting off,
// combining must (a) produce bit-identical results to the uncombined
// protocol, (b) record dedup hits, and (c) shrink READ_REQ and READ_RESP
// wire bytes. Runs over both fabrics; TCP is where the byte savings are a
// real wire effect.
func TestReadCombiningMatchesReference(t *testing.T) {
	g := testGraph(t) // RMAT TwitterLike: heavy hubs, many duplicate reads
	vals := make([]float64, g.NumNodes())
	for u := range vals {
		vals[u] = float64(u)
	}
	want := refPullSum(g, vals)

	const p = 3
	fabrics := []struct {
		name string
		make func(t *testing.T, cfg *Config)
	}{
		{"inproc", func(t *testing.T, cfg *Config) {}},
		{"tcp", func(t *testing.T, cfg *Config) {
			f, err := comm.NewTCPFabric(cfg.NumMachines,
				cfg.NumMachines*(cfg.ReqBuffers+cfg.Workers*cfg.NumMachines)+64, cfg.BufferSize)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { f.Close() })
			cfg.Fabric = f
		}},
	}
	for _, fc := range fabrics {
		t.Run(fc.name, func(t *testing.T) {
			var traffic [2]comm.Snapshot
			for i, disable := range []bool{false, true} {
				cfg := combiningConfig(p, disable)
				cfg.ReqBuffers = 2*cfg.Workers*cfg.NumMachines + 4
				fc.make(t, &cfg)
				got, tr := runDuplicateHeavyPull(t, g, cfg)
				for u := range want {
					if got[u] != want[u] {
						t.Fatalf("disable=%v node %d: got %v, want %v", disable, u, got[u], want[u])
					}
				}
				traffic[i] = tr
			}
			on, off := traffic[0], traffic[1]
			if on.DedupHits == 0 {
				t.Error("combining on: no dedup hits on a skewed pull workload")
			}
			if off.DedupHits != 0 {
				t.Errorf("combining off still recorded %d dedup hits", off.DedupHits)
			}
			if on.ReadReqBytes >= off.ReadReqBytes {
				t.Errorf("READ_REQ bytes not reduced: on=%d off=%d", on.ReadReqBytes, off.ReadReqBytes)
			}
			if on.ReadRespBytes >= off.ReadRespBytes {
				t.Errorf("READ_RESP bytes not reduced: on=%d off=%d", on.ReadRespBytes, off.ReadRespBytes)
			}
			saved := off.ReadReqBytes + off.ReadRespBytes - on.ReadReqBytes - on.ReadRespBytes
			t.Logf("%s: hit rate %.1f%%, saved %d bytes (req %d->%d, resp %d->%d)",
				fc.name, 100*on.DedupHitRate(), saved,
				off.ReadReqBytes, on.ReadReqBytes, off.ReadRespBytes, on.ReadRespBytes)
		})
	}
}

// TestReadCombiningSideFanOut: a tiny deterministic graph where one hub is
// read by every other node — the strongest possible duplication. Each
// reader must still observe the hub's value exactly once per in-edge.
func TestReadCombiningSideFanOut(t *testing.T) {
	// Star graph: node 0 -> every other node, so pulling over in-edges makes
	// every node read node 0's value.
	const n = 64
	edges := make([]graph.Edge, 0, n-1)
	for v := 1; v < n; v++ {
		edges = append(edges, graph.Edge{Src: 0, Dst: graph.NodeID(v)})
	}
	g, err := graph.FromEdges(n, edges, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := combiningConfig(2, false)
	c := bootCluster(t, g, cfg)
	s, _ := c.AddPropF64("s")
	d, _ := c.AddPropF64("d")
	c.FillByNodeF64(s, func(v graph.NodeID) float64 { return float64(v) + 1 })
	c.FillF64(d, 0)
	if _, err := c.RunJob(JobSpec{
		Name:      "star-pull",
		Iter:      IterInEdges,
		Task:      &pullSumTask{src: s, dst: d},
		ReadProps: []PropID{s},
	}); err != nil {
		t.Fatal(err)
	}
	got := c.GatherF64(d)
	for v := 1; v < n; v++ {
		if got[v] != 1 { // hub value = 0 + 1
			t.Fatalf("node %d pulled %v, want 1", v, got[v])
		}
	}
	if got[0] != 0 {
		t.Fatalf("hub has no in-edges but pulled %v", got[0])
	}
	if !c.PoolsQuiescent() {
		t.Fatal("pools not quiescent")
	}
}
