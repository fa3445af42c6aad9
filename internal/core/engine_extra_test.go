package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/reduce"
	"repro/internal/store"
)

// --- multi-read state machine kernel ----------------------------------------

// twoHopTask exercises continuation chaining: its row reads each neighbor's hop1
// ref (stored as a prop), then ReadDone issues a second read through that
// ref, using Aux as the state machine the paper describes ("the user can
// implement a state machine to distinguish multiple callbacks").
type twoHopTask struct {
	refProp PropID // i64: an encoded node ref stored per node
	valProp PropID // f64: value to fetch at the second hop
	acc     PropID // f64: accumulated result on the current node
}

const twoHopStage2 = uint64(1) << 63

func (k *twoHopTask) RunRows(c *Ctx, rows *Cursor) { perRow(c, rows, k.row) }

func (k *twoHopTask) row(c *Ctx, row Row) {
	for _, ref := range row.Refs {
		c.Aux = 0
		c.ReadRef(ref, k.refProp)
	}
}

func (k *twoHopTask) ReadDone(c *Ctx, val uint64) {
	if c.Aux&twoHopStage2 == 0 {
		// Stage 1 complete: val is the ref of the second hop.
		c.Aux = twoHopStage2
		c.ReadRef(int64(val), k.valProp)
		return
	}
	c.SetF64(k.acc, c.GetF64(k.acc)+F64Word(val))
}

func TestTwoHopStateMachine(t *testing.T) {
	g := testGraph(t)
	c := bootCluster(t, g, DefaultConfig(4))
	refProp, _ := c.AddPropI64("ref")
	valProp, _ := c.AddPropF64("val")
	acc, _ := c.AddPropF64("acc")

	// Every node's "second hop" is a pseudo-random node; precompute refs in
	// the engine's encoding via the layout.
	n := g.NumNodes()
	layout := c.Layout()
	hop2 := make([]graph.NodeID, n)
	for u := range hop2 {
		hop2[u] = graph.NodeID((u*2654435761 + 17) % n)
	}
	c.FillByNodeI64(refProp, func(v graph.NodeID) int64 {
		target := hop2[v]
		owner := layout.Owner(target)
		// Encode as a globally valid remote ref; the engine resolves owner-
		// local targets through the same path.
		return RemoteRef(owner, target-layout.Starts[owner])
	})
	c.FillByNodeF64(valProp, func(v graph.NodeID) float64 { return float64(v) * 0.25 })
	c.FillF64(acc, 0)

	if _, err := c.RunJob(JobSpec{
		Name:      "two-hop",
		Iter:      IterInEdges,
		Task:      &twoHopTask{refProp: refProp, valProp: valProp, acc: acc},
		ReadProps: []PropID{refProp, valProp},
	}); err != nil {
		t.Fatal(err)
	}

	// Reference: for each node u, for each in-neighbor t: acc[u] += val[hop2[t]].
	want := make([]float64, n)
	for u := 0; u < n; u++ {
		for _, tn := range g.In.Neighbors(graph.NodeID(u)) {
			want[u] += float64(hop2[tn]) * 0.25
		}
	}
	got := c.GatherF64(acc)
	for u := range want {
		if diff := got[u] - want[u]; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("node %d: got %g, want %g", u, got[u], want[u])
		}
	}
}

// --- RMI ----------------------------------------------------------------------

// rmiEchoTask calls an RMI on the neighbor's owner from within a kernel and
// accumulates the response.
type rmiEchoTask struct {
	NoReads
	method uint32
	acc    PropID
}

func (k *rmiEchoTask) RunRows(c *Ctx, rows *Cursor) { perRow(c, rows, k.row) }

func (k *rmiEchoTask) row(c *Ctx, row Row) {
	for _, ref := range row.Refs {
		if !c.IsRemote(ref) {
			continue
		}
		mach, off := c.SplitRemoteRef(ref)
		var payload [4]byte
		binary.LittleEndian.PutUint32(payload[:], off)
		c.CallRMI(mach, k.method, payload[:])
	}
}

func (k *rmiEchoTask) RMIDone(c *Ctx, payload []byte) {
	c.SetI64(k.acc, c.GetI64(k.acc)+int64(binary.LittleEndian.Uint32(payload)))
}

func TestWorkerRMI(t *testing.T) {
	g := testGraph(t)
	c := bootCluster(t, g, DefaultConfig(3))
	acc, _ := c.AddPropI64("acc")
	c.FillI64(acc, 0)
	// Method: return offset+1 as 4 bytes.
	method := c.RegisterRMI(func(m *Machine) comm.RMIHandler {
		return func(src int, payload []byte) []byte {
			off := binary.LittleEndian.Uint32(payload)
			out := make([]byte, 4)
			binary.LittleEndian.PutUint32(out, off+1)
			return out
		}
	})
	if _, err := c.RunJob(JobSpec{
		Name: "rmi-echo",
		Iter: IterOutEdges,
		Task: &rmiEchoTask{method: method, acc: acc},
	}); err != nil {
		t.Fatal(err)
	}
	// Reference: sum over remote out-edges of (remote local offset + 1).
	layout := c.Layout()
	want := make([]int64, g.NumNodes())
	for u := 0; u < g.NumNodes(); u++ {
		ou := layout.Owner(graph.NodeID(u))
		for _, v := range g.Out.Neighbors(graph.NodeID(u)) {
			if layout.Owner(v) != ou {
				want[u] += int64(v-layout.Starts[layout.Owner(v)]) + 1
			}
		}
	}
	got := c.GatherI64(acc)
	for u := range want {
		if got[u] != want[u] {
			t.Fatalf("node %d: got %d, want %d", u, got[u], want[u])
		}
	}
}

// --- TCP transport end-to-end ----------------------------------------------

func TestEngineOverTCP(t *testing.T) {
	g, err := graph.RMAT(8, 6, graph.TwitterLike(), 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(3)
	cfg.BufferSize = 8 << 10
	fabric, err := NewTCPFabric(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fabric = fabric
	defer fabric.Close()
	c := bootCluster(t, g, cfg)

	counter, _ := c.AddPropI64("counter")
	c.FillI64(counter, 0)
	if _, err := c.RunJob(JobSpec{
		Name:       "push-one-tcp",
		Iter:       IterOutEdges,
		Task:       &pushOneTask{counter: counter},
		WriteProps: []WriteSpec{{Prop: counter, Op: reduce.Sum}},
	}); err != nil {
		t.Fatal(err)
	}
	want := refInDegree(g)
	got := c.GatherI64(counter)
	for u := range want {
		if got[u] != want[u] {
			t.Fatalf("node %d: got %d, want %d", u, got[u], want[u])
		}
	}

	// Pull over TCP too.
	src, _ := c.AddPropF64("src")
	dst, _ := c.AddPropF64("dst")
	c.FillByNodeF64(src, func(v graph.NodeID) float64 { return float64(v) })
	c.FillF64(dst, 0)
	if _, err := c.RunJob(JobSpec{
		Name:      "pull-sum-tcp",
		Iter:      IterInEdges,
		Task:      &pullSumTask{src: src, dst: dst},
		ReadProps: []PropID{src},
	}); err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, g.NumNodes())
	for u := range vals {
		vals[u] = float64(u)
	}
	wantF := refPullSum(g, vals)
	gotF := c.GatherF64(dst)
	for u := range wantF {
		if diff := gotF[u] - wantF[u]; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("node %d: got %g, want %g", u, gotF[u], wantF[u])
		}
	}
}

// --- master equivalence property --------------------------------------------

// TestDistributedEqualsReferenceProperty is the master correctness property
// from DESIGN.md §6: for random graphs and random engine configurations, a
// push job and a pull job both produce exactly the reference results.
func TestDistributedEqualsReferenceProperty(t *testing.T) {
	f := func(seed int64, pRaw, ghostRaw uint8, vertexPart, nodeChunk, onDemand bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 64 + rng.Intn(512)
		m := n * (1 + rng.Intn(8))
		g, err := graph.Uniform(n, m, seed)
		if err != nil {
			return false
		}
		cfg := DefaultConfig(int(pRaw%4) + 1)
		cfg.Workers = 1 + rng.Intn(4)
		cfg.Copiers = 1 + rng.Intn(3)
		if nodeChunk {
			cfg.Ablate |= AblateEdgeChunking
		}
		var ghosts *partition.GhostSet // nil: every referenced address
		switch k := int(ghostRaw % 32); {
		case onDemand:
			ghosts = noGhosts
		case k > 0:
			ghosts = partition.SelectTopGhosts(g, k) // the top 1..31
		}
		strat := partition.EdgeBalanced
		if vertexPart {
			strat = partition.VertexBalanced
		}
		layout, err := partition.Compute(g, cfg.NumMachines, strat)
		if err != nil {
			return false
		}
		c, err := NewCluster(cfg)
		if err != nil {
			return false
		}
		defer c.Shutdown()
		if err := c.LoadPlan(g, layout, ghosts); err != nil {
			return false
		}
		counter, _ := c.AddPropI64("counter")
		c.FillI64(counter, 0)
		if _, err := c.RunJob(JobSpec{
			Name:       "push-one",
			Iter:       IterOutEdges,
			Task:       &pushOneTask{counter: counter},
			WriteProps: []WriteSpec{{Prop: counter, Op: reduce.Sum}},
		}); err != nil {
			return false
		}
		want := refInDegree(g)
		got := c.GatherI64(counter)
		for u := range want {
			if got[u] != want[u] {
				return false
			}
		}

		src, _ := c.AddPropF64("src")
		dst, _ := c.AddPropF64("dst")
		c.FillByNodeF64(src, func(v graph.NodeID) float64 { return float64(v) })
		c.FillF64(dst, 0)
		if _, err := c.RunJob(JobSpec{
			Name:      "pull-sum",
			Iter:      IterInEdges,
			Task:      &pullSumTask{src: src, dst: dst},
			ReadProps: []PropID{src},
		}); err != nil {
			return false
		}
		vals := make([]float64, n)
		for u := range vals {
			vals[u] = float64(u)
		}
		wantF := refPullSum(g, vals)
		gotF := c.GatherF64(dst)
		for u := range wantF {
			if diff := gotF[u] - wantF[u]; diff > 1e-6 || diff < -1e-6 {
				return false
			}
		}
		return c.PoolsQuiescent()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// --- traffic and ghosting ----------------------------------------------------

// TestGhostingReducesTraffic is Figure 6a's shape on a push: from no replicas
// at all (the top 0, the empty ghost set) through the top 1, 8, 64 and every
// vertex to the uncapped default, each step ships no more data than the one
// before — a member's refs collapse to one record per worker — the first 64
// ghosts already ship less, and a cap that holds every vertex is the default.
func TestGhostingReducesTraffic(t *testing.T) {
	g := testGraph(t) // heavily skewed
	run := func(ghosts *partition.GhostSet, label string) int64 {
		cfg := DefaultConfig(4)
		cfg.Workers = 1 // which worker claims which chunk decides what two accumulators ship
		c := bootGhosts(t, g, cfg, ghosts)
		counter, _ := c.AddPropI64("counter")
		c.FillI64(counter, 0)
		stats, err := c.RunJob(JobSpec{
			Name:       "push-one",
			Iter:       IterOutEdges,
			Task:       &pushOneTask{counter: counter},
			WriteProps: []WriteSpec{{Prop: counter, Op: reduce.Sum}},
		})
		if err != nil {
			t.Fatal(err)
		}
		// Correctness under ghosting as well.
		want := refInDegree(g)
		got := c.GatherI64(counter)
		for u := range want {
			if got[u] != want[u] {
				t.Fatalf("ghosts=%s node %d: got %d, want %d", label, u, got[u], want[u])
			}
		}
		return stats.Traffic.DataBytesSent
	}
	counts := []int{0, 1, 8, 64, g.NumNodes()}
	bytes := make([]int64, len(counts)+1)
	for i := range bytes {
		label, ghosts := "all", (*partition.GhostSet)(nil) // past the counts: uncapped
		if i < len(counts) {
			label, ghosts = fmt.Sprint(counts[i]), partition.SelectTopGhosts(g, counts[i])
		}
		if bytes[i] = run(ghosts, label); i > 0 && bytes[i] > bytes[i-1] {
			t.Errorf("ghosts=%s shipped %d bytes, more than the %d of the row before", label, bytes[i], bytes[i-1])
		}
	}
	if bytes[3] >= bytes[0] {
		t.Errorf("64 ghosts did not reduce data traffic: %d >= %d bytes", bytes[3], bytes[0])
	}
	if bytes[4] != bytes[5] {
		t.Errorf("a cap of every vertex shipped %d bytes, the uncapped default %d", bytes[4], bytes[5])
	}
}

func TestBreakdownSumsToDuration(t *testing.T) {
	g := testGraph(t)
	c := bootCluster(t, g, DefaultConfig(4))
	counter, _ := c.AddPropI64("counter")
	c.FillI64(counter, 0)
	stats, err := c.RunJob(JobSpec{
		Name:       "push-one",
		Iter:       IterOutEdges,
		Task:       &pushOneTask{counter: counter},
		WriteProps: []WriteSpec{{Prop: counter, Op: reduce.Sum}},
	})
	if err != nil {
		t.Fatal(err)
	}
	b := stats.Breakdown
	if b.FullyParallel < 0 || b.IntraMachine < 0 || b.InterMachine < 0 || b.Sync < 0 {
		t.Errorf("negative breakdown component: %+v", b)
	}
	sum := b.FullyParallel + b.IntraMachine + b.InterMachine + b.Sync
	if sum != stats.Duration {
		t.Errorf("breakdown sums to %v, duration is %v", sum, stats.Duration)
	}
}

func TestRepeatedJobsStayQuiescent(t *testing.T) {
	g := testGraph(t)
	cfg := DefaultConfig(4)
	cfg.BufferSize = comm.HeaderSize + 128
	c := bootCluster(t, g, cfg)
	c.setPools(8, 8)
	counter, _ := c.AddPropI64("counter")
	src, _ := c.AddPropF64("src")
	dst, _ := c.AddPropF64("dst")
	c.FillByNodeF64(src, func(v graph.NodeID) float64 { return 1 })
	for i := 0; i < 10; i++ {
		c.FillI64(counter, 0)
		c.FillF64(dst, 0)
		if _, err := c.RunJob(JobSpec{
			Name: "push", Iter: IterOutEdges, Task: &pushOneTask{counter: counter},
			WriteProps: []WriteSpec{{Prop: counter, Op: reduce.Sum}},
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.RunJob(JobSpec{
			Name: "pull", Iter: IterInEdges, Task: &pullSumTask{src: src, dst: dst},
			ReadProps: []PropID{src},
		}); err != nil {
			t.Fatal(err)
		}
		if !c.PoolsQuiescent() {
			t.Fatalf("pools not quiescent after iteration %d", i)
		}
	}
}

func TestRemoteRefPacking(t *testing.T) {
	f := func(machRaw uint16, offset uint32) bool {
		mach := int(machRaw % (1 << 15))
		ref := RemoteRef(mach, offset)
		if ref >= 0 {
			return false
		}
		gm, go_ := store.UnpackRef(ref)
		return gm == mach && go_ == offset
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestPropKindChecks(t *testing.T) {
	g := testGraph(t)
	c := bootCluster(t, g, DefaultConfig(2))
	p, _ := c.AddPropF64("f")
	q, _ := c.AddPropI64("i")
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("GatherF64 on i64", func() { c.GatherF64(q) })
	mustPanic("GatherI64 on f64", func() { c.GatherI64(p) })
	mustPanic("unknown prop", func() { c.FillF64(PropID(99), 0) })
}

func TestPropKindString(t *testing.T) {
	if KindF64.String() != "f64" || KindI64.String() != "i64" {
		t.Error("kind strings wrong")
	}
	if PropKind(9).String() == "" {
		t.Error("unknown kind renders empty")
	}
	if IterNodes.String() != "nodes" || IterOutEdges.String() != "out-edges" || IterInEdges.String() != "in-edges" {
		t.Error("iter strings wrong")
	}
	if IterKind(9).String() == "" {
		t.Error("unknown iter renders empty")
	}
}
