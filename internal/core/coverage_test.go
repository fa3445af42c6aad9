package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/reduce"
	"repro/internal/store"
)

// TestFloatGhostMergePaths: a float push under every operator, every remote
// neighbour a ghost — an entry of the remote set, so its reductions are
// bottomed and folded in a worker's accumulator and merged at the owner.
func TestFloatGhostMergePaths(t *testing.T) {
	g := testGraph(t)
	for _, op := range []reduce.Op{reduce.Sum, reduce.Min, reduce.Max} {
		t.Run(op.String(), func(t *testing.T) {
			c := bootCluster(t, g, DefaultConfig(3))
			val, _ := c.AddPropF64("val")
			acc, _ := c.AddPropF64("acc")
			c.FillByNodeF64(val, func(v graph.NodeID) float64 { return float64(v%13) + 0.5 })
			c.FillF64(acc, reduce.BottomF64(op))

			task := &floatOpPush{val: val, acc: acc, op: op}
			if _, err := c.RunJob(JobSpec{
				Name: "float-ghost", Iter: IterOutEdges, Task: task,
				WriteProps: []WriteSpec{{Prop: acc, Op: op}},
			}); err != nil {
				t.Fatal(err)
			}
			// Reference fold over in-neighbors.
			got := c.GatherF64(acc)
			for u := 0; u < g.NumNodes(); u++ {
				want := reduce.BottomF64(op)
				for _, tn := range g.In.Neighbors(graph.NodeID(u)) {
					want = reduce.ApplyF64(op, want, float64(tn%13)+0.5)
				}
				if math.IsInf(want, 0) {
					if !math.IsInf(got[u], 0) {
						t.Fatalf("node %d: got %g, want inf", u, got[u])
					}
					continue
				}
				if d := math.Abs(got[u] - want); d > 1e-9 {
					t.Fatalf("op %v node %d: %g vs %g", op, u, got[u], want)
				}
			}
		})
	}
}

type floatOpPush struct {
	NoReads
	val, acc PropID
	op       reduce.Op
}

func (k *floatOpPush) RunRow(c *Ctx, row Row) {
	for _, ref := range row.Refs {
		c.Writer(k.acc, k.op).Write(ref, WordF64(c.GetF64(k.val)))
	}
}

// ctxProbe exercises the informational Ctx accessors inside a kernel.
type ctxProbe struct {
	NoReads
	machines, indeg PropID
}

func (k *ctxProbe) Run(c *Ctx) {
	if c.Machine() < 0 || c.Machine() >= c.NumMachines() {
		panic("machine id out of range")
	}
	c.SetI64(k.machines, int64(c.NumMachines()))
	c.SetI64(k.indeg, c.InDegree())
}

func TestCtxAccessors(t *testing.T) {
	g := testGraph(t)
	c := bootCluster(t, g, DefaultConfig(3))
	machines, _ := c.AddPropI64("machines")
	indeg, _ := c.AddPropI64("indeg")
	if _, err := c.RunJob(JobSpec{Name: "probe", Iter: IterNodes, Task: &ctxProbe{machines: machines, indeg: indeg}}); err != nil {
		t.Fatal(err)
	}
	gotM := c.GatherI64(machines)
	gotD := c.GatherI64(indeg)
	for u := 0; u < g.NumNodes(); u++ {
		if gotM[u] != 3 {
			t.Fatalf("node %d machines = %d", u, gotM[u])
		}
		if gotD[u] != g.InDegree(graph.NodeID(u)) {
			t.Fatalf("node %d indeg = %d, want %d", u, gotD[u], g.InDegree(graph.NodeID(u)))
		}
	}
}

// refGlobalProbe sums RefGlobal over a node's out-neighbours and flags, in
// bad, a neighbour IsRemote and SplitRemoteRef place on another machine than
// RefGlobal does.
type refGlobalProbe struct {
	NoReads
	sum, bad PropID
}

func (k *refGlobalProbe) RunRow(c *Ctx, row Row) {
	layout := c.w.m.store.layout
	for _, ref := range row.Refs {
		v := c.RefGlobal(ref)
		c.SetI64(k.sum, c.GetI64(k.sum)+int64(v))
		if c.IsRemote(ref) != (layout.Owner(v) != c.Machine()) {
			c.SetI64(k.bad, 1)
		} else if c.IsRemote(ref) {
			if mach, off := c.SplitRemoteRef(ref); layout.GlobalOf(mach, off) != v {
				c.SetI64(k.bad, 1)
			}
		}
	}
}

// TestRefGlobalAllRefKinds: RefGlobal, IsRemote and SplitRemoteRef resolve
// every class of ref a kernel can see. A load's rows come numbered: local and
// replica refs, and, outside a capped set, packed ones.
func TestRefGlobalAllRefKinds(t *testing.T) {
	g := testGraph(t)
	for _, ghosts := range []int{0, 8} { // 0: uncapped
		var set *partition.GhostSet
		if ghosts > 0 {
			set = partition.SelectTopGhosts(g, ghosts)
		}
		c := bootGhosts(t, g, DefaultConfig(3), set)
		var replica, packed int
		for _, m := range c.machines {
			for _, ref := range m.store.views[store.OrientOut].refs {
				if ref >= int64(m.store.numLocal) {
					replica++
				} else if ref < 0 {
					packed++
				}
			}
		}
		if replica == 0 || (ghosts > 0) != (packed > 0) {
			t.Fatalf("cap %d: the out-edge rows hold %d replica and %d packed refs", ghosts, replica, packed)
		}
		sum, _ := c.AddPropI64("sum")
		bad, _ := c.AddPropI64("bad")
		if _, err := c.RunJob(JobSpec{Name: "refglobal", Iter: IterOutEdges, Task: &refGlobalProbe{sum: sum, bad: bad}}); err != nil {
			t.Fatal(err)
		}
		got, flagged := c.GatherI64(sum), c.GatherI64(bad)
		for u := 0; u < g.NumNodes(); u++ {
			var want int64
			for _, v := range g.Out.Neighbors(graph.NodeID(u)) {
				want += int64(v)
			}
			if got[u] != want || flagged[u] != 0 {
				t.Fatalf("cap %d: node %d: sum %d vs %d, placement flagged %d", ghosts, u, got[u], want, flagged[u])
			}
		}
	}
}

func TestWordHelpersAndBreakdown(t *testing.T) {
	if F64Word(WordF64(3.25)) != 3.25 {
		t.Error("f64 word round trip")
	}
	if I64Word(WordI64(-7)) != -7 {
		t.Error("i64 word round trip")
	}
	var b Breakdown
	b.Add(Breakdown{FullyParallel: time.Second, Sync: 2 * time.Second})
	b.Add(Breakdown{IntraMachine: time.Second, InterMachine: 3 * time.Second})
	if b.FullyParallel != time.Second || b.Sync != 2*time.Second ||
		b.IntraMachine != time.Second || b.InterMachine != 3*time.Second {
		t.Errorf("breakdown = %+v", b)
	}
}

func TestClusterConfigAndRemoteRefHelpers(t *testing.T) {
	g := testGraph(t)
	cfg := DefaultConfig(2)
	cfg.Workers = 3
	c := bootCluster(t, g, cfg)
	if got := c.Config(); got.Workers != 3 || got.NumMachines != 2 {
		t.Errorf("Config() = %+v", got)
	}
	ref := RemoteRef(1, 42)
	m, off := c.machines[0].workers[0].ctx.SplitRemoteRef(ref)
	if m != 1 || off != 42 {
		t.Errorf("split = %d/%d", m, off)
	}
	if c.machines[0].ID() != 0 || c.machines[1].ID() != 1 {
		t.Error("machine IDs wrong")
	}
}

func TestReduceMappedF64(t *testing.T) {
	g := testGraph(t)
	c := bootCluster(t, g, DefaultConfig(3))
	p, _ := c.AddPropF64("v")
	c.FillByNodeF64(p, func(v graph.NodeID) float64 { return float64(v % 5) })
	got, err := c.ReduceMappedF64(p, reduce.Sum, func(v float64) float64 { return v * v })
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for u := 0; u < g.NumNodes(); u++ {
		v := float64(u % 5)
		want += v * v
	}
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("sum of squares = %g, want %g", got, want)
	}
}

func TestNoReadsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NoReads.ReadDone did not panic")
		}
	}()
	var nr NoReads
	nr.ReadDone(nil, 0)
}
