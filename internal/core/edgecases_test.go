package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/reduce"
)

// weightSumTask accumulates a row's edge weights into a property — checks
// that the in-orientation carries per-edge weights correctly.
type weightSumTask struct {
	NoReads
	acc PropID
}

func (k *weightSumTask) RunRows(c *Ctx, rows *Cursor) { perRow(c, rows, k.row) }

func (k *weightSumTask) row(c *Ctx, row Row) {
	for i := range row.Refs {
		c.SetF64(k.acc, c.GetF64(k.acc)+row.Weight(i))
	}
}

func TestInEdgeWeights(t *testing.T) {
	g := testGraph(t).WithUniformWeights(1, 3, 5)
	c := bootCluster(t, g, DefaultConfig(3))
	acc, _ := c.AddPropF64("wsum")
	c.FillF64(acc, 0)
	if _, err := c.RunJob(JobSpec{
		Name: "weight-sum", Iter: IterInEdges, Task: &weightSumTask{acc: acc},
	}); err != nil {
		t.Fatal(err)
	}
	got := c.GatherF64(acc)
	for u := 0; u < g.NumNodes(); u++ {
		var want float64
		for _, w := range g.In.EdgeWeights(graph.NodeID(u)) {
			want += w
		}
		if d := got[u] - want; d > 1e-9 || d < -1e-9 {
			t.Fatalf("node %d: %g vs %g", u, got[u], want)
		}
	}
}

func TestEmptyPartitions(t *testing.T) {
	// 10 nodes over 8 machines: some machines own 1 node, and with edge
	// partitioning possibly 0. Jobs must still run and terminate.
	g, err := graph.Uniform(10, 60, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{8, 10} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			c := bootCluster(t, g, DefaultConfig(p))
			counter, _ := c.AddPropI64("counter")
			c.FillI64(counter, 0)
			if _, err := c.RunJob(JobSpec{
				Name: "push", Iter: IterOutEdges, Task: &pushOneTask{counter: counter},
				WriteProps: []WriteSpec{{Prop: counter, Op: reduce.Sum}},
			}); err != nil {
				t.Fatal(err)
			}
			want := refInDegree(g)
			got := c.GatherI64(counter)
			for u := range want {
				if got[u] != want[u] {
					t.Fatalf("node %d: %d vs %d", u, got[u], want[u])
				}
			}
		})
	}
}

func TestSingleNodeGraphWithSelfLoop(t *testing.T) {
	g, err := graph.FromEdges(1, []graph.Edge{{Src: 0, Dst: 0}}, false)
	if err != nil {
		t.Fatal(err)
	}
	c := bootCluster(t, g, DefaultConfig(2))
	counter, _ := c.AddPropI64("counter")
	if _, err := c.RunJob(JobSpec{
		Name: "push", Iter: IterOutEdges, Task: &pushOneTask{counter: counter},
		WriteProps: []WriteSpec{{Prop: counter, Op: reduce.Sum}},
	}); err != nil {
		t.Fatal(err)
	}
	if got := c.GetNodeI64(0, counter); got != 1 {
		t.Errorf("self-loop count = %d", got)
	}
}

func TestDropPropsReusesSlots(t *testing.T) {
	g := testGraph(t)
	c := bootCluster(t, g, DefaultConfig(2))
	a, _ := c.AddPropF64("a")
	b, _ := c.AddPropF64("b")
	c.FillF64(b, 7)
	c.DropProps(a)
	// The freed id must be reused.
	a2, _ := c.AddPropI64("a2")
	if a2 != a {
		t.Errorf("freed id %d not reused, got %d", a, a2)
	}
	c.FillI64(a2, 3)
	if got := c.GetNodeI64(5, a2); got != 3 {
		t.Errorf("reused prop value = %d", got)
	}
	// b is untouched by the reuse.
	if got := c.GetNodeF64(5, b); got != 7 {
		t.Errorf("sibling prop corrupted: %g", got)
	}
	// Using a dropped id panics via the kind check.
	c.DropProps(b)
	defer func() {
		if recover() == nil {
			t.Error("use of dropped prop did not panic")
		}
	}()
	c.FillF64(b, 1)
}

// TestDeterministicIntegerResults: integer-valued jobs must produce
// identical results across repeated runs despite scheduling nondeterminism
// (MIN/SUM reductions commute exactly on integers).
func TestDeterministicIntegerResults(t *testing.T) {
	g := testGraph(t)
	run := func() []int64 {
		cfg := DefaultConfig(4)
		cfg.Workers = 3
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Shutdown()
		if err := c.Load(g); err != nil {
			t.Fatal(err)
		}
		label, _ := c.AddPropI64("label")
		tmp, _ := c.AddPropI64("tmp")
		c.FillByNodeI64(label, func(v graph.NodeID) int64 { return int64(v * 7 % 1009) })
		c.FillI64(tmp, 1<<60)
		if _, err := c.RunJob(JobSpec{
			Name: "min", Iter: IterOutEdges, Task: &minPush{label: label},
			WriteProps: []WriteSpec{{Prop: tmp, Op: reduce.Min}},
		}); err != nil {
			t.Fatal(err)
		}
		return c.GatherI64(tmp)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("node %d differs across runs: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestManyPropsRegistered(t *testing.T) {
	g, err := graph.Uniform(50, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := bootCluster(t, g, DefaultConfig(2))
	var ids []PropID
	for i := 0; i < 100; i++ {
		p, err := c.AddPropF64(fmt.Sprintf("p%d", i))
		if err != nil {
			t.Fatal(err)
		}
		c.FillF64(p, float64(i))
		ids = append(ids, p)
	}
	for i, p := range ids {
		if got := c.GetNodeF64(3, p); got != float64(i) {
			t.Fatalf("prop %d = %g", i, got)
		}
	}
}

// chainReadTask stresses deep continuation chains: each ReadDone issues
// another remote read until Aux hits the chain length.
type chainReadTask struct {
	ref  PropID // i64: next ref to visit
	hops uint64
	acc  PropID
}

func (k *chainReadTask) RunRows(c *Ctx, rows *Cursor) { perRow(c, rows, k.row) }

func (k *chainReadTask) row(c *Ctx, row Row) {
	for _, ref := range row.Refs {
		c.Aux = 0
		c.ReadRef(ref, k.ref)
	}
}

func (k *chainReadTask) ReadDone(c *Ctx, val uint64) {
	c.Aux++
	if c.Aux >= k.hops {
		c.SetI64(k.acc, c.GetI64(k.acc)+1)
		return
	}
	c.ReadRef(int64(val), k.ref)
}

func TestDeepContinuationChains(t *testing.T) {
	g := testGraph(t)
	cfg := DefaultConfig(4)
	cfg.BufferSize = 256 // tiny buffers: many flushes mid-chain
	c := bootCluster(t, g, cfg)
	c.setPools(8, 8)
	ref, _ := c.AddPropI64("ref")
	acc, _ := c.AddPropI64("acc")
	layout := c.Layout()
	n := g.NumNodes()
	c.FillByNodeI64(ref, func(v graph.NodeID) int64 {
		next := graph.NodeID((int(v) + n/2 + 1) % n)
		owner := layout.Owner(next)
		return RemoteRef(owner, next-layout.Starts[owner])
	})
	c.FillI64(acc, 0)
	const hops = 5
	if _, err := c.RunJob(JobSpec{
		Name: "chain", Iter: IterInEdges,
		Task:      &chainReadTask{ref: ref, hops: hops, acc: acc},
		ReadProps: []PropID{ref},
	}); err != nil {
		t.Fatal(err)
	}
	// Every in-edge completes one chain: acc[u] == inDegree(u).
	got := c.GatherI64(acc)
	for u := 0; u < n; u++ {
		if got[u] != g.InDegree(graph.NodeID(u)) {
			t.Fatalf("node %d: %d chains, want %d", u, got[u], g.InDegree(graph.NodeID(u)))
		}
	}
	if !c.PoolsQuiescent() {
		t.Error("pools not quiescent after deep chains")
	}
}

func TestReloadClusterWithNewGraph(t *testing.T) {
	g1 := testGraph(t)
	c := bootCluster(t, g1, DefaultConfig(3))
	p1, _ := c.AddPropI64("a")
	tmp, _ := c.AddPropI64("tmp")
	c.DropProps(tmp) // leaves a free slot behind
	c.FillI64(p1, 1)

	// Reload with a different graph: all property state resets, free-slot
	// bookkeeping included.
	g2, err := graph.Uniform(100, 500, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Load(g2); err != nil {
		t.Fatal(err)
	}
	if c.NumNodes() != 100 {
		t.Fatalf("NumNodes = %d", c.NumNodes())
	}
	counter, err := c.AddPropI64("counter")
	if err != nil {
		t.Fatal(err)
	}
	c.FillI64(counter, 0)
	if _, err := c.RunJob(JobSpec{
		Name: "push", Iter: IterOutEdges, Task: &pushOneTask{counter: counter},
		WriteProps: []WriteSpec{{Prop: counter, Op: reduce.Sum}},
	}); err != nil {
		t.Fatal(err)
	}
	want := refInDegree(g2)
	got := c.GatherI64(counter)
	for u := range want {
		if got[u] != want[u] {
			t.Fatalf("node %d after reload: %d vs %d", u, got[u], want[u])
		}
	}

	// Reload the first graph under a deliberately skewed cut (machine 0 owns
	// most of the edge mass): the push is still exact.
	skewed, err := partition.SkewedLayout(g1, 3, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.LoadPlan(g1, skewed, nil); err != nil {
		t.Fatal(err)
	}
	if c.Layout().EdgeImbalance(g1) < 1.5 {
		t.Fatalf("skewed cut has imbalance %.2f, want >= 1.5", c.Layout().EdgeImbalance(g1))
	}
	counter, _ = c.AddPropI64("counter")
	c.FillI64(counter, 0)
	if _, err := c.RunJob(JobSpec{
		Name: "push", Iter: IterOutEdges, Task: &pushOneTask{counter: counter},
		WriteProps: []WriteSpec{{Prop: counter, Op: reduce.Sum}},
	}); err != nil {
		t.Fatal(err)
	}
	if got := c.GatherI64(counter); !slices.Equal(got, refInDegree(g1)) {
		t.Error("push after a reload under a skewed cut differs from the reference")
	}
}

func TestBothEdgesIterator(t *testing.T) {
	g := testGraph(t).WithUniformWeights(1, 2, 8)
	for _, p := range []int{1, 3} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			c := bootCluster(t, g, DefaultConfig(p))
			counter, _ := c.AddPropI64("counter")
			wsum, _ := c.AddPropF64("wsum")
			c.FillI64(counter, 0)
			c.FillF64(wsum, 0)
			if _, err := c.RunJob(JobSpec{
				Name: "both-push", Iter: IterBothEdges,
				Task:       &pushOneTask{counter: counter},
				WriteProps: []WriteSpec{{Prop: counter, Op: reduce.Sum}},
			}); err != nil {
				t.Fatal(err)
			}
			// Pushing 1 along both orientations: each node receives one per
			// in-edge (from out-iteration at the source) plus one per
			// out-edge (from in-iteration at the target).
			got := c.GatherI64(counter)
			for u := 0; u < g.NumNodes(); u++ {
				want := g.InDegree(graph.NodeID(u)) + g.OutDegree(graph.NodeID(u))
				if got[u] != want {
					t.Fatalf("node %d: %d vs %d", u, got[u], want)
				}
			}
			// Edge weights must come from the orientation being iterated.
			if _, err := c.RunJob(JobSpec{
				Name: "both-weights", Iter: IterBothEdges, Task: &weightSumTask{acc: wsum},
			}); err != nil {
				t.Fatal(err)
			}
			gotW := c.GatherF64(wsum)
			for u := 0; u < g.NumNodes(); u++ {
				var want float64
				for _, w := range g.Out.EdgeWeights(graph.NodeID(u)) {
					want += w
				}
				for _, w := range g.In.EdgeWeights(graph.NodeID(u)) {
					want += w
				}
				if d := gotW[u] - want; d > 1e-9 || d < -1e-9 {
					t.Fatalf("node %d weights: %g vs %g", u, gotW[u], want)
				}
			}
		})
	}
}
