package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/reduce"
)

// testGraph builds a modest skewed graph used across engine tests.
func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := graph.RMAT(9, 8, graph.TwitterLike(), 12345)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func bootCluster(t testing.TB, g *graph.Graph, cfg Config) *Cluster {
	t.Helper()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	if err := c.Load(g); err != nil {
		t.Fatal(err)
	}
	return c
}

// noGhosts is the empty ghost set: a load under it replicates nothing, and
// every remote ref goes on demand.
var noGhosts = &partition.GhostSet{}

// bootGhosts is bootCluster with the replica cap ghosts (loadGhosts).
func bootGhosts(t testing.TB, g *graph.Graph, cfg Config, ghosts *partition.GhostSet) *Cluster {
	t.Helper()
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	if err := loadGhosts(c, g, ghosts); err != nil {
		t.Fatal(err)
	}
	return c
}

// loadGhosts loads g into c cut edge-balanced, as Load does, with the replica
// cap ghosts, through LoadPlan.
func loadGhosts(c *Cluster, g *graph.Graph, ghosts *partition.GhostSet) error {
	layout, err := partition.Compute(g, c.Machines(), partition.EdgeBalanced)
	if err != nil {
		return err
	}
	return c.LoadPlan(g, layout, ghosts)
}

// setPools swaps every machine's request and response pool for one of req
// and resp buffers (zero keeps the derived pool): how a test starves the
// pools, which the machine shape otherwise sizes. Call it before the first
// job, while every buffer is home.
func (c *Cluster) setPools(req, resp int) {
	for _, m := range c.machines {
		if req > 0 {
			m.reqPool = comm.NewPool(req, c.cfg.BufferSize)
		}
		if resp > 0 {
			m.respPool = comm.NewPool(resp, c.cfg.BufferSize)
		}
	}
}

// --- reference computations over the raw graph ------------------------------

func refInDegree(g *graph.Graph) []int64 {
	out := make([]int64, g.NumNodes())
	for u := range out {
		out[u] = g.InDegree(graph.NodeID(u))
	}
	return out
}

// refPullSum computes, for each node, the sum over in-neighbors t of vals[t].
func refPullSum(g *graph.Graph, vals []float64) []float64 {
	out := make([]float64, g.NumNodes())
	for u := 0; u < g.NumNodes(); u++ {
		for _, tn := range g.In.Neighbors(graph.NodeID(u)) {
			out[u] += vals[tn]
		}
	}
	return out
}

// --- kernels used in tests ---------------------------------------------------

// pushOneTask adds 1 into the neighbor's counter — result is the in-degree.
type pushOneTask struct {
	NoReads
	counter PropID
}

func (k *pushOneTask) RunRows(c *Ctx, rows *Cursor) { perRow(c, rows, k.row) }

func (k *pushOneTask) row(c *Ctx, row Row) {
	for _, ref := range row.Refs {
		c.Writer(k.counter, reduce.Sum).Write(ref, WordI64(1))
	}
}

// pullSumTask reads src from each in-neighbor, one ReadRef per ref, and
// accumulates into dst in ReadDone. beforeEdge, when set, runs ahead of each
// edge's read.
type pullSumTask struct {
	src, dst   PropID
	beforeEdge func(c *Ctx)
}

func (k *pullSumTask) RunRows(c *Ctx, rows *Cursor) { perRow(c, rows, k.row) }

func (k *pullSumTask) row(c *Ctx, row Row) {
	for _, ref := range row.Refs {
		if k.beforeEdge != nil {
			k.beforeEdge(c)
		}
		c.ReadRef(ref, k.src)
	}
}

func (k *pullSumTask) ReadDone(c *Ctx, val uint64) {
	c.SetF64(k.dst, c.GetF64(k.dst)+F64Word(val))
}

// namedConfig is one configMatrix entry; pools, when set, replaces the
// derived request and response pools, vertex cuts the graph vertex-balanced
// instead of Load's edge-balanced cut, and ghosts, when set, picks the load's
// replica cap from the graph.
type namedConfig struct {
	name   string
	cfg    Config
	pools  int
	vertex bool
	ghosts func(g *graph.Graph) *partition.GhostSet
}

// boot boots nc over g.
func (nc namedConfig) boot(t *testing.T, g *graph.Graph) *Cluster {
	c, err := NewCluster(nc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	switch {
	case nc.vertex:
		err = loadVertexCut(c, g)
	case nc.ghosts != nil:
		err = loadGhosts(c, g, nc.ghosts(g))
	default:
		err = c.Load(g)
	}
	if err != nil {
		t.Fatal(err)
	}
	c.setPools(nc.pools, nc.pools)
	return c
}

// loadVertexCut loads g into c cut vertex-balanced, through LoadPlan: the
// naive baseline of Figures 6b and 6c.
func loadVertexCut(c *Cluster, g *graph.Graph) error {
	layout, err := partition.Compute(g, c.Machines(), partition.VertexBalanced)
	if err != nil {
		return err
	}
	return c.LoadPlan(g, layout, nil)
}

// configMatrix yields a representative set of engine configurations. The
// first six names were once printed from the config's fields, two of which
// (a ghost threshold, the old ablation bit values) no longer exist; they are
// kept verbatim so each subtest's history lines up across that change.
func configMatrix(base func() Config) []namedConfig {
	var cfgs []namedConfig
	add := func(name string, p int, tune func(cfg *Config)) {
		cfg := base()
		cfg.NumMachines = p
		if tune != nil {
			tune(&cfg)
		}
		cfgs = append(cfgs, namedConfig{name: name, cfg: cfg})
	}
	add("p1_w4_gt-2_gc0_edge_ablate0x0_buf32768", 1, nil)
	add("p2_w4_gt-2_gc0_edge_ablate0x0_buf32768", 2, nil)
	add("p3_w4_gt-2_gc0_edge_ablate0x0_buf32768", 3, nil)
	add("p4_w4_gt-2_gc0_edge_ablate0x0_buf32768", 4, nil)
	// Vertex partitioning + node chunking (the naive baseline).
	add("p4_w4_gt-2_gc0_vertex_ablate0x20_buf32768", 4, func(cfg *Config) {
		cfg.Ablate = AblateEdgeChunking
	})
	cfgs[len(cfgs)-1].vertex = true
	// Tiny buffers: force many flushes and back-pressure.
	add("p4_w4_gt-2_gc0_edge_ablate0x0_buf80", 4, func(cfg *Config) {
		cfg.BufferSize = comm.HeaderSize + 64
	})
	cfgs[len(cfgs)-1].pools = 6
	// No replicas: every remote ref on demand.
	add("p4_on-demand", 4, nil)
	cfgs[len(cfgs)-1].ghosts = func(*graph.Graph) *partition.GhostSet { return noGhosts }
	// Replicas of the eight highest-degree vertices only: set members and
	// on-demand refs in the same rows.
	add("p3_ghost-count-8", 3, nil)
	cfgs[len(cfgs)-1].ghosts = func(g *graph.Graph) *partition.GhostSet { return partition.SelectTopGhosts(g, 8) }
	return cfgs
}

func TestPushJobComputesInDegree(t *testing.T) {
	g := testGraph(t)
	want := refInDegree(g)
	for _, nc := range configMatrix(func() Config { return DefaultConfig(4) }) {
		t.Run(nc.name, func(t *testing.T) {
			c := nc.boot(t, g)
			counter, err := c.AddPropI64("counter")
			if err != nil {
				t.Fatal(err)
			}
			c.FillI64(counter, 0)
			if _, err := c.RunJob(JobSpec{
				Name:       "push-one",
				Iter:       IterOutEdges,
				Task:       &pushOneTask{counter: counter},
				WriteProps: []WriteSpec{{Prop: counter, Op: reduce.Sum}},
			}); err != nil {
				t.Fatal(err)
			}
			got := c.GatherI64(counter)
			for u := range want {
				if got[u] != want[u] {
					t.Fatalf("node %d: got %d, want %d", u, got[u], want[u])
				}
			}
			if !c.PoolsQuiescent() {
				t.Error("buffer pools not quiescent after job")
			}
		})
	}
}

func TestPullJobSumsInNeighbors(t *testing.T) {
	g := testGraph(t)
	vals := make([]float64, g.NumNodes())
	for u := range vals {
		vals[u] = float64(u%97) + 0.5
	}
	want := refPullSum(g, vals)
	for _, nc := range configMatrix(func() Config { return DefaultConfig(4) }) {
		t.Run(nc.name, func(t *testing.T) {
			c := nc.boot(t, g)
			src, err := c.AddPropF64("src")
			if err != nil {
				t.Fatal(err)
			}
			dst, err := c.AddPropF64("dst")
			if err != nil {
				t.Fatal(err)
			}
			c.FillByNodeF64(src, func(v graph.NodeID) float64 { return vals[v] })
			c.FillF64(dst, 0)
			if _, err := c.RunJob(JobSpec{
				Name:      "pull-sum",
				Iter:      IterInEdges,
				Task:      &pullSumTask{src: src, dst: dst},
				ReadProps: []PropID{src},
			}); err != nil {
				t.Fatal(err)
			}
			got := c.GatherF64(dst)
			for u := range want {
				if diff := got[u] - want[u]; diff > 1e-6 || diff < -1e-6 {
					t.Fatalf("node %d: got %g, want %g", u, got[u], want[u])
				}
			}
			if !c.PoolsQuiescent() {
				t.Error("buffer pools not quiescent after job")
			}
		})
	}
}

// nodeInit sets a property to a function of the node's global id and degree.
type nodeInit struct {
	NoReads
	p PropID
}

func (k *nodeInit) RunNodes(c *Ctx, nodes *Cursor) { perNode(c, nodes, k.node) }

func (k *nodeInit) node(c *Ctx) {
	c.SetF64(k.p, float64(c.NodeGlobal())+float64(c.OutDegree())*0.001)
}

func TestNodeIteratorJob(t *testing.T) {
	g := testGraph(t)
	c := bootCluster(t, g, DefaultConfig(4))
	p, _ := c.AddPropF64("init")
	if _, err := c.RunJob(JobSpec{Name: "node-init", Iter: IterNodes, Task: &nodeInit{p: p}}); err != nil {
		t.Fatal(err)
	}
	got := c.GatherF64(p)
	for u := 0; u < g.NumNodes(); u++ {
		want := float64(u) + float64(g.OutDegree(graph.NodeID(u)))*0.001
		if got[u] != want {
			t.Fatalf("node %d: got %g, want %g", u, got[u], want)
		}
	}
}

// minPush propagates min(label) over out-edges, exercising I64 Min writes.
type minPush struct {
	NoReads
	label PropID
}

func (k *minPush) RunRows(c *Ctx, rows *Cursor) { perRow(c, rows, k.row) }

func (k *minPush) row(c *Ctx, row Row) {
	for _, ref := range row.Refs {
		c.Writer(k.label, reduce.Min).Write(ref, WordI64(c.GetI64(k.label)))
	}
}

func TestMinReductionOneStep(t *testing.T) {
	g := testGraph(t)
	for _, ghost := range []struct {
		name string
		set  *partition.GhostSet
	}{
		{"-1", noGhosts},                         // no replicas
		{"0", nil},                               // every referenced address
		{"64", partition.SelectTopGhosts(g, 64)}, // the top 64
	} {
		t.Run("ghost="+ghost.name, func(t *testing.T) {
			c := bootGhosts(t, g, DefaultConfig(4), ghost.set)
			label, _ := c.AddPropI64("label")
			tmp, _ := c.AddPropI64("tmp")
			c.FillByNodeI64(label, func(v graph.NodeID) int64 { return int64(v) })
			c.FillByNodeI64(tmp, func(v graph.NodeID) int64 { return int64(v) })
			if _, err := c.RunJob(JobSpec{
				Name:       "min-push",
				Iter:       IterOutEdges,
				Task:       &minPush{label: label},
				ReadProps:  []PropID{label},
				WriteProps: []WriteSpec{{Prop: tmp, Op: reduce.Min}},
			}); err != nil {
				// label is read (own node) and tmp written; recheck spec.
				t.Fatal(err)
			}
			_ = tmp
		})
	}
}

func TestJobSpecValidation(t *testing.T) {
	g := testGraph(t)
	c := bootCluster(t, g, DefaultConfig(2))
	p, _ := c.AddPropF64("p")
	task := &pushOneTask{}
	cases := []struct {
		spec JobSpec
		want string // in the error, beside the job's name
	}{
		{JobSpec{Name: "no-task", Iter: IterNodes}, "no task"},
		{JobSpec{Name: "bad-iter", Iter: IterKind(9), Task: task}, "unknown iterator"},
		{JobSpec{Name: "bad-read", Iter: IterOutEdges, Task: task, ReadProps: []PropID{42}}, "unregistered"},
		{JobSpec{Name: "bad-write", Iter: IterOutEdges, Task: task, WriteProps: []WriteSpec{{Prop: 42, Op: reduce.Sum}}}, "unregistered"},
		{JobSpec{Name: "overwrite", Iter: IterOutEdges, Task: task, WriteProps: []WriteSpec{{Prop: p, Op: reduce.Overwrite}}}, "unsupported op"},
		{JobSpec{Name: "read-write", Iter: IterOutEdges, Task: task, ReadProps: []PropID{p}, WriteProps: []WriteSpec{{Prop: p, Op: reduce.Sum}}}, "both reads and writes"},
		// Each iterator dispatches one kernel form; the other is refused
		// before any machine runs it.
		{JobSpec{Name: "row-kernel-on-nodes", Iter: IterNodes, Task: task}, "has no RunNodes (NodeTask)"},
		{JobSpec{Name: "node-kernel-on-edges", Iter: IterOutEdges, Task: &nodeInit{p: p}}, "has no RunRows (RowTask)"},
	}
	for _, tc := range cases {
		_, err := c.RunJob(tc.spec)
		if err == nil {
			t.Errorf("spec %q accepted", tc.spec.Name)
		} else if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("%q", tc.spec.Name)) || !strings.Contains(msg, tc.want) {
			t.Errorf("spec %q: error %q does not name the job and %q", tc.spec.Name, msg, tc.want)
		}
	}
	// The cluster is healthy after the refusals.
	if _, err := c.RunJob(JobSpec{Name: "after", Iter: IterNodes, Task: &nodeInit{p: p}}); err != nil {
		t.Fatal(err)
	}
}

func TestRunJobBeforeLoadFails(t *testing.T) {
	c, err := NewCluster(DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if _, err := c.RunJob(JobSpec{Name: "x", Iter: IterNodes, Task: &nodeInit{}}); err == nil {
		t.Error("RunJob before Load accepted")
	}
	if _, err := c.AddPropF64("p"); err == nil {
		t.Error("AddProp before Load accepted")
	}
}

// TestUseAfterShutdownFails: after Shutdown the machines' main goroutines are
// gone, so RunJob and Barrier return an error without handing anything to a
// stopped machine — no panic, no hang — on both fabrics.
func TestUseAfterShutdownFails(t *testing.T) {
	eachFabric(t, func(t *testing.T, useTCP bool) {
		cfg := DefaultConfig(2)
		fab := innerFabric(t, cfg, useTCP)
		defer fab.Close()
		cfg.Fabric = fab
		c := bootCluster(t, testGraph(t), cfg)
		p, _ := c.AddPropF64("p")
		spec := JobSpec{Name: "after-shutdown", Iter: IterNodes, Task: &nodeInit{p: p}}
		if _, err := c.RunJob(spec); err != nil {
			t.Fatal(err)
		}
		c.Shutdown()
		done := make(chan struct{})
		go func() {
			defer close(done)
			if _, err := c.RunJob(spec); err == nil {
				t.Error("RunJob after Shutdown succeeded")
			}
			if err := c.Barrier(); err == nil {
				t.Error("Barrier after Shutdown succeeded")
			}
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("RunJob or Barrier after Shutdown did not return")
		}
	})
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{NumMachines: 0, Workers: 1, Copiers: 1, BufferSize: 4096},
		{NumMachines: 2, Workers: 0, Copiers: 1, BufferSize: 4096},
		{NumMachines: 2, Workers: 1, Copiers: 0, BufferSize: 4096},
		{NumMachines: 2, Workers: 1, Copiers: 1, BufferSize: 4},
		{NumMachines: 2, Workers: 300, Copiers: 1, BufferSize: 4096},
	}
	for i, cfg := range bad {
		if _, err := NewCluster(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestReduceDriverHelpers(t *testing.T) {
	g := testGraph(t)
	c := bootCluster(t, g, DefaultConfig(3))
	p, _ := c.AddPropF64("v")
	q, _ := c.AddPropI64("w")
	c.FillByNodeF64(p, func(v graph.NodeID) float64 { return float64(v) })
	c.FillByNodeI64(q, func(v graph.NodeID) int64 { return int64(v) })
	n := int64(g.NumNodes())
	sum, err := c.ReduceMappedF64(p, reduce.Sum, func(v float64) float64 { return v })
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(n*(n-1)) / 2; sum != want {
		t.Errorf("sum = %g, want %g", sum, want)
	}
	mx, err := c.ReduceI64(q, reduce.Max)
	if err != nil {
		t.Fatal(err)
	}
	if mx != n-1 {
		t.Errorf("max = %d, want %d", mx, n-1)
	}
	mn, err := c.ReduceI64(q, reduce.Min)
	if err != nil || mn != 0 {
		t.Errorf("min = %d (%v), want 0", mn, err)
	}
}

func TestNodeGetSet(t *testing.T) {
	g := testGraph(t)
	c := bootCluster(t, g, DefaultConfig(4))
	p, _ := c.AddPropF64("v")
	q, _ := c.AddPropI64("w")
	c.SetNodeF64(5, p, 2.5)
	c.SetNodeI64(400, q, -3)
	if got := c.GetNodeF64(5, p); got != 2.5 {
		t.Errorf("GetNodeF64 = %g", got)
	}
	if got := c.GetNodeI64(400, q); got != -3 {
		t.Errorf("GetNodeI64 = %d", got)
	}
	if got := c.GetNodeF64(6, p); got != 0 {
		t.Errorf("untouched node = %g", got)
	}
}

func TestClusterAccessors(t *testing.T) {
	g := testGraph(t)
	c := bootCluster(t, g, DefaultConfig(3))
	if c.NumNodes() != g.NumNodes() || c.NumEdges() != g.NumEdges() {
		t.Error("size accessors wrong")
	}
	if c.Machines() != 3 {
		t.Error("Machines() wrong")
	}
	if c.Layout().NumMachines != 3 {
		t.Error("Layout wrong")
	}
	if err := c.Barrier(); err != nil {
		t.Errorf("Barrier: %v", err)
	}
}
