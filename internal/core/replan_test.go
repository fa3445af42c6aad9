package core

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/reduce"
)

// spinSink defeats dead-code elimination of the spin loop below.
var spinSink atomic.Uint64

// spinPushTask scatters the node's own src value into every out-neighbor's dst
// with a SUM reduction. spin adds deterministic per-edge compute, so a
// machine's task phase is long enough to measure and proportional to the
// edges it owns; the per-edge Gosched makes the machines' workers interleave
// fairly on a box with fewer cores than simulated machines, so that each
// task phase's wall time — Replan's telemetry — tracks its own load instead
// of the order the scheduler happened to run the machines in.
type spinPushTask struct {
	NoReads
	src, dst PropID
	spin     int
}

func (k *spinPushTask) Run(c *Ctx) {
	x := uint64(c.Node)<<32 | 0x9e3779b9
	for i := 0; i < k.spin; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink.Add(x)
	runtime.Gosched()
	c.NbrWriteI64(k.dst, reduce.Sum, c.GetI64(k.src))
}

// refPushSum computes, for each node v, the sum over in-neighbors u of
// vals[u] — the reference for spinPushTask over out-edges.
func refPushSum(g *graph.Graph, vals []int64) []int64 {
	out := make([]int64, g.NumNodes())
	for u := 0; u < g.NumNodes(); u++ {
		for _, v := range g.Out.Neighbors(graph.NodeID(u)) {
			out[v] += vals[u]
		}
	}
	return out
}

// stealGraph is larger than testGraph, so that the skewed machine's task phase
// dominates the per-job constants in the telemetry.
func stealGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := graph.RMAT(12, 8, graph.TwitterLike(), 4242)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// bootSkewed boots a cluster on a deliberately skewed layout (machine 0 owns
// the skew fraction of the edge mass), the straggler shape Replan is to fix.
func bootSkewed(t testing.TB, g *graph.Graph, cfg Config, skew float64) *Cluster {
	t.Helper()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	layout, err := partition.SkewedLayout(g, cfg.NumMachines, skew)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.LoadPlan(g, layout); err != nil {
		t.Fatal(err)
	}
	return c
}

// runPushVal executes the spinning push job and, when verify is set, checks
// the result against the single-machine reference.
func runPushVal(t *testing.T, c *Cluster, g *graph.Graph, src, dst PropID, verify bool) error {
	t.Helper()
	vals := make([]int64, g.NumNodes())
	for u := range vals {
		vals[u] = int64(u%97) + 1
	}
	c.FillByNodeI64(src, func(v graph.NodeID) int64 { return vals[v] })
	c.FillI64(dst, 0)
	_, err := c.RunJob(JobSpec{
		Name:       "spin-push",
		Iter:       IterOutEdges,
		Task:       &spinPushTask{src: src, dst: dst, spin: 512},
		WriteProps: []WriteSpec{{Prop: dst, Op: reduce.Sum}},
	})
	if err != nil || !verify {
		return err
	}
	want := refPushSum(g, vals)
	got := c.GatherI64(dst)
	for u := range want {
		if got[u] != want[u] {
			t.Fatalf("node %d: got %d, want %d", u, got[u], want[u])
		}
	}
	return nil
}

// TestLoadPlanValidation: LoadPlan rejects layouts that do not match the
// cluster or graph.
func TestLoadPlanValidation(t *testing.T) {
	g := testGraph(t)
	c, err := NewCluster(DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	if err := c.LoadPlan(g, partition.Layout{NumMachines: 2, Starts: []uint32{0, 1, uint32(g.NumNodes())}}); err == nil {
		t.Error("accepted layout with wrong machine count")
	}
	if err := c.LoadPlan(g, partition.Layout{NumMachines: 3, Starts: []uint32{0, 1, 2, 3}}); err == nil {
		t.Error("accepted layout not covering the graph")
	}
}

// TestLoadPlanRefusesMalformedStarts: a plan layout whose starts decrease or
// do not begin at node 0 is refused before anything is built — the first used
// to wrap a machine's node count and die out of memory, the second left nodes
// owned by nobody — while a layout with an empty machine loads and computes
// exactly.
func TestLoadPlanRefusesMalformedStarts(t *testing.T) {
	g, err := graph.RMAT(6, 8, graph.TwitterLike(), 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	for _, starts := range [][]uint32{{0, 40, 20, 64}, {10, 30, 50, 64}} {
		if err := c.LoadPlan(g, partition.Layout{NumMachines: 3, Starts: starts}); err == nil {
			t.Errorf("accepted starts %v", starts)
		}
	}
	if err := c.LoadPlan(g, partition.Layout{NumMachines: 3, Starts: []uint32{0, 30, 30, 64}}); err != nil {
		t.Fatalf("refused a layout with an empty machine: %v", err)
	}
	dst, _ := c.AddPropI64("dst")
	src, _ := c.AddPropF64("src")
	if _, err := c.RunJob(JobSpec{Name: "count", Iter: IterOutEdges, Task: &pushOneTask{counter: dst},
		ReadProps: []PropID{src}, WriteProps: []WriteSpec{{Prop: dst, Op: reduce.Sum}}}); err != nil {
		t.Fatal(err)
	}
	if got := c.GatherI64(dst); !slices.Equal(got, refInDegree(g)) {
		t.Error("the job over a layout with an empty machine differs from the reference")
	}
}

// TestClusterReplanImprovesSkew: end to end — run jobs on a skewed layout,
// ask the cluster for a plan, reload with it, and the measured imbalance
// drops while results stay exact.
func TestClusterReplanImprovesSkew(t *testing.T) {
	g := stealGraph(t)
	cfg := DefaultConfig(3)
	reg := obs.NewRegistry()
	cfg.Obs = reg
	c := bootSkewed(t, g, cfg, 0.85)
	src, _ := c.AddPropI64("src")
	dst, _ := c.AddPropI64("dst")
	for i := 0; i < 2; i++ {
		if err := runPushVal(t, c, g, src, dst, true); err != nil {
			t.Fatal(err)
		}
	}
	before := c.Layout().EdgeImbalance(g)
	plan, err := c.Replan(g)
	if err != nil {
		t.Fatal(err)
	}
	after := plan.Layout.EdgeImbalance(g)
	if after >= before {
		t.Errorf("replanned imbalance %.3f did not improve on %.3f", after, before)
	}
	if err := c.LoadPlan(g, plan.Layout); err != nil {
		t.Fatal(err)
	}
	// Properties were discarded by the reload; re-register and verify the
	// rebalanced cluster still computes the exact reference.
	src, _ = c.AddPropI64("src")
	dst, _ = c.AddPropI64("dst")
	if err := runPushVal(t, c, g, src, dst, true); err != nil {
		t.Fatalf("run after replan reload: %v", err)
	}
}
