package algorithms

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/baseline/sa"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/partition"
)

type ablationSet struct {
	name    string
	set     core.Ablation
	ghosts  func(g *graph.Graph) *partition.GhostSet // the load's replica cap; nil replicates every referenced address
	workers int                                      // Config.Workers: 0 keeps the default
}

// noGhosts is the empty ghost set's row: a load that replicates nothing, so
// every remote ref goes on demand.
func noGhosts(*graph.Graph) *partition.GhostSet { return &partition.GhostSet{} }

// ablationLattice is what the identity test walks: the production
// configuration, every Ablation member alone, a load without replicas (the
// empty ghost set), all of them at once, the production configuration with
// replicas capped at the eight highest-degree vertices, so that set members
// and on-demand refs meet in the same rows, and the production configuration
// on one worker per machine, where local reductions and own-node stores are
// plain (single-writer columns).
func ablationLattice() []ablationSet {
	sets := []ablationSet{
		{name: "none"},
		{name: "edge-chunking", set: core.AblateEdgeChunking},
		{name: "pin-push", set: core.AblatePinPush},
		{name: "pin-pull", set: core.AblatePinPull},
		{name: "remote-sets", ghosts: noGhosts},
	}
	all := core.Ablation(0)
	for _, as := range sets {
		all |= as.set
	}
	top8 := func(g *graph.Graph) *partition.GhostSet { return partition.SelectTopGhosts(g, 8) }
	return append(sets, ablationSet{name: "all", set: all, ghosts: noGhosts}, ablationSet{name: "ghost-count-8", ghosts: top8},
		ablationSet{name: "one-worker", workers: 1})
}

// loadGhosts loads g into c cut edge-balanced, as Load does, under the replica
// cap ghosts (nil: every referenced address), through LoadPlan.
func loadGhosts(c *core.Cluster, g *graph.Graph, ghosts *partition.GhostSet) error {
	layout, err := partition.Compute(g, c.Machines(), partition.EdgeBalanced)
	if err != nil {
		return err
	}
	return c.LoadPlan(g, layout, ghosts)
}

// latticeConfig is the identity suites' engine configuration: p machines
// with small buffers (so batches flush and pools cycle on test-sized graphs),
// one ablation set, and a loopback-TCP fabric when asked.
func latticeConfig(t *testing.T, p int, useTCP bool, set core.Ablation) core.Config {
	t.Helper()
	cfg := core.DefaultConfig(p)
	cfg.BufferSize = 8 << 10
	cfg.Timeout = 10 * time.Second
	cfg.Ablate = set
	if useTCP {
		f, err := core.NewTCPFabric(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Fabric = f
		t.Cleanup(func() { f.Close() }) //nolint:errcheck // registered ahead of the cluster's Shutdown, so it runs after it
	}
	return cfg
}

// ablatedCluster boots a p-machine cluster with one lattice row over the
// requested transport. delayFaults additionally wraps the fabric in an
// injector that delays every 7th frame — a tolerated fault that perturbs
// message timing, so exact results also demonstrate the algorithms are
// deterministic under reordering.
func ablatedCluster(t *testing.T, g *graph.Graph, p int, useTCP, delayFaults bool, as ablationSet) *core.Cluster {
	t.Helper()
	cfg := latticeConfig(t, p, useTCP, as.set)
	if as.workers > 0 {
		cfg.Workers = as.workers
	}
	if delayFaults {
		if cfg.Fabric == nil {
			cfg.Fabric = core.NewInProcFabric(cfg)
		}
		cfg.Fabric = comm.NewFaultInjector(cfg.Fabric, comm.FaultPlan{
			Seed: 7,
			Rules: []comm.FaultRule{{
				Src: comm.AnyMachine, Dst: comm.AnyMachine, Type: comm.AnyType,
				Kind: comm.FaultDelay, Every: 7, Delay: 200 * time.Microsecond,
			}},
		})
	}
	c, err := core.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	var ghosts *partition.GhostSet
	if as.ghosts != nil {
		ghosts = as.ghosts(g)
	}
	if err := loadGhosts(c, g, ghosts); err != nil {
		t.Fatal(err)
	}
	return c
}

// eachTransport runs body over in-proc, TCP, and TCP-with-delay-faults.
func eachTransport(t *testing.T, body func(t *testing.T, useTCP, faults bool)) {
	t.Run("inproc", func(t *testing.T) { body(t, false, false) })
	t.Run("tcp", func(t *testing.T) { body(t, true, false) })
	t.Run("tcp-faults", func(t *testing.T) { body(t, true, true) })
}

// assertBitsF64 requires exact bit equality — SSSP relaxes with the same
// operands in the same order in every schedule and in the reference, so its
// floats are bit-identical, not merely close.
func assertBitsF64(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %x, want %x", name, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestAblationLatticeMatchesSA: every lattice row — the production
// configuration, each member alone (sparse frontier reaches the engine's
// dense-filter dispatch, the direction pins reach both schedules of every
// traversal), all at once, capped replicas and one worker per machine (plain
// local reductions) — on two, three and four
// machines yields exactly the standalone reference for WCC, SSSP, hop
// distance, k-core and sampled closeness, and PageRank-push to float tolerance
// (push sums arrive in any order). On a small-world RMAT and a high-diameter
// grid, over both fabrics, and with injected frame delays perturbing delivery
// order.
func TestAblationLatticeMatchesSA(t *testing.T) {
	rmat := testGraph(t).WithUniformWeights(1, 10, 7)
	grid, err := graph.Grid(20, 20, 8, 99)
	if err != nil {
		t.Fatal(err)
	}
	grid = grid.WithUniformWeights(1, 10, 7)
	const (
		root    = graph.NodeID(0)
		prIters = 4
		samples = 3
		seed    = 99
	)
	for _, tg := range []struct {
		name string
		g    *graph.Graph
	}{{"rmat", rmat}, {"grid", grid}} {
		g := tg.g
		wantWCC, _ := sa.WCC(g, 1)
		wantSSSP, _ := sa.SSSP(g, root, 1)
		wantHop, _ := sa.HopDist(g, root, 1)
		wantPR := sa.PageRank(g, prIters, 0.85, 1)
		wantBest, wantCore, _ := sa.KCore(g, 1)
		wantClose := ClosenessReference(g, samples, seed)
		t.Run(tg.name, func(t *testing.T) {
			eachTransport(t, func(t *testing.T, useTCP, faults bool) {
				for _, as := range ablationLattice() {
					t.Run(as.name, func(t *testing.T) {
						for p := 2; p <= 4; p++ {
							t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
								c := ablatedCluster(t, g, p, useTCP, faults, as)
								n := c.NumNodes()
								wcc, _, err := WCC(c, n)
								if err != nil {
									t.Fatalf("wcc: %v", err)
								}
								assertEqualI64(t, "wcc", wcc, wantWCC)
								sp, _, err := SSSP(c, root, n)
								if err != nil {
									t.Fatalf("sssp: %v", err)
								}
								assertBitsF64(t, "sssp", sp, wantSSSP)
								hop, _, err := HopDist(c, root, n)
								if err != nil {
									t.Fatalf("hopdist: %v", err)
								}
								assertEqualI64(t, "hopdist", hop, wantHop)
								pr, _, err := PageRankPush(c, prIters, 0.85)
								if err != nil {
									t.Fatalf("pr-push: %v", err)
								}
								assertClose(t, "pr-push", pr, wantPR, 1e-9)
								// k-core's ~200 near-empty peeling supersteps would each
								// wait out the injected delays and see no reordering the
								// other five do not.
								if !faults {
									best, nums, _, err := KCore(c, 0)
									if err != nil {
										t.Fatalf("kcore: %v", err)
									}
									if best != wantBest {
										t.Fatalf("kcore max = %d, want %d", best, wantBest)
									}
									assertEqualI64(t, "kcore", nums, wantCore)
								}
								cl, _, err := Closeness(c, samples, seed, n)
								if err != nil {
									t.Fatalf("closeness: %v", err)
								}
								assertBitsF64(t, "closeness", cl, wantClose)
							})
						}
					})
				}
			})
		})
	}
}

// TestResultPropsReturnToCluster: algorithms drop their result column once
// it is gathered, so a long-lived (pooled) cluster neither grows by a column
// per request nor walks into the 2^16 property-id limit.
func TestResultPropsReturnToCluster(t *testing.T) {
	c := boot(t, testGraph(t), 2)
	first, err := c.AddPropI64("probe")
	if err != nil {
		t.Fatal(err)
	}
	c.DropProps(first)
	for i := 0; i < 100; i++ {
		if _, _, err := WCC(c, c.NumNodes()); err != nil {
			t.Fatal(err)
		}
		if _, _, err := PageRankPull(c, 1, 0.85); err != nil {
			t.Fatal(err)
		}
	}
	next, err := c.AddPropI64("probe")
	if err != nil {
		t.Fatal(err)
	}
	if next != first {
		t.Errorf("property id %d after 100 runs, want %d: results leak", next, first)
	}
}
