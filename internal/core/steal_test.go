package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/reduce"
)

// stealSpinSink defeats dead-code elimination of the spin loop below.
var stealSpinSink atomic.Uint64

// stealPushTask scatters the node's own src value into every out-neighbor's dst
// with a SUM reduction — the minimal stealable kernel with an own-property
// read, so stolen execution exercises the Own snapshot path.
//
// The per-edge Gosched is what makes the steal assertions deterministic: on a
// single-CPU box (GOMAXPROCS=1) the task loop has no blocking ops, so without
// an explicit yield each machine's workers run their entire task phase inside
// one scheduling quantum and the machines execute sequentially — whether any
// steal request ever finds an undrained cursor is pure scheduling luck. The
// yield forces fair interleaving: all machines progress at comparable edge
// rates, the lightly-loaded ones drain first, and the straggler's cursor is
// still mostly unclaimed when their requests land. spin adds deterministic
// per-edge compute so the phase is long enough to observe.
type stealPushTask struct {
	NoReads
	src, dst PropID
	spin     int
	gate     *stealGate // optional: holds the straggler until a steal request reaches it
}

func (k *stealPushTask) Run(c *Ctx) {
	if k.gate != nil && c.Machine() == k.gate.victim {
		k.gate.hold()
	}
	x := uint64(c.Node)<<32 | 0x9e3779b9
	for i := 0; i < k.spin; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	stealSpinSink.Add(x)
	runtime.Gosched()
	c.NbrWriteI64(k.dst, reduce.Sum, c.GetI64(k.src))
}

// stealGate makes "a steal request lands while the straggler still has
// unclaimed chunks" an event the test waits on instead of a race it hopes to
// win. It sits between the fault injector and the real fabric, so it sees
// exactly the frames the injector let through, and opens once one MsgSteal
// has been handed to the victim's transport; until then the victim's kernel
// blocks in hold at each worker's first edge, its cursor untouched beyond one
// chunk per worker. hold gives up after bound (the test's RequestTimeout), so
// a run in which no thief ever asks still terminates and fails on the test's
// own steal assertions rather than hanging.
type stealGate struct {
	comm.Fabric
	victim int
	bound  time.Duration
	once   sync.Once
	open   chan struct{}
}

func newStealGate(inner comm.Fabric, victim int, bound time.Duration) *stealGate {
	return &stealGate{Fabric: inner, victim: victim, bound: bound, open: make(chan struct{})}
}

func (g *stealGate) release() { g.once.Do(func() { close(g.open) }) }

func (g *stealGate) hold() {
	select {
	case <-g.open:
		return
	default:
	}
	timer := time.NewTimer(g.bound)
	defer timer.Stop()
	select {
	case <-g.open:
	case <-timer.C:
		g.release()
	}
}

// InMemory forwards the wrapped fabric's answer, like the injector does.
func (g *stealGate) InMemory() bool { return comm.InMemoryFabric(g.Fabric) }

func (g *stealGate) Endpoint(m int) (comm.Endpoint, error) {
	ep, err := g.Fabric.Endpoint(m)
	if err != nil {
		return nil, err
	}
	return &gateEndpoint{Endpoint: ep, gate: g}, nil
}

type gateEndpoint struct {
	comm.Endpoint
	gate *stealGate
}

func (e *gateEndpoint) Send(dst int, buf *comm.Buffer) error {
	// The transport owns buf once Send is called: read the type first.
	steal := dst == e.gate.victim && comm.MsgType(buf.Data[0]) == comm.MsgSteal
	err := e.Endpoint.Send(dst, buf)
	if steal && err == nil {
		e.gate.release()
	}
	return err
}

// Quiesce forwards to the inner endpoint when it supports quiescing; the
// pool leak checks rely on this passing through every wrapper.
func (e *gateEndpoint) Quiesce() {
	if q, ok := e.Endpoint.(interface{ Quiesce() }); ok {
		q.Quiesce()
	}
}

// refPushSum computes, for each node v, the sum over in-neighbors u of
// vals[u] — the reference for stealPushTask over out-edges.
func refPushSum(g *graph.Graph, vals []int64) []int64 {
	out := make([]int64, g.NumNodes())
	for u := 0; u < g.NumNodes(); u++ {
		for _, v := range g.Out.Neighbors(graph.NodeID(u)) {
			out[v] += vals[u]
		}
	}
	return out
}

// stealGraph is larger than testGraph: the victim's task phase must outlast
// the thieves' drain plus a steal round trip, or the cursor runs dry before
// any request lands and the steal assertions go timing-flaky.
func stealGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := graph.RMAT(12, 8, graph.TwitterLike(), 4242)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// bootSkewed boots a cluster on a deliberately skewed layout (machine 0 owns
// the skew fraction of the edge mass) so every other machine drains its
// chunks early and the steal path actually fires.
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

// runPushVal executes the stealable push job and, when verify is set, checks
// the result against the single-machine reference.
func runPushVal(t *testing.T, c *Cluster, g *graph.Graph, src, dst PropID, verify bool) error {
	t.Helper()
	return runPushGated(t, c, g, src, dst, verify, nil)
}

// runPushGated is runPushVal with the straggler's kernel held behind gate
// (nil: no hold).
func runPushGated(t *testing.T, c *Cluster, g *graph.Graph, src, dst PropID, verify bool, gate *stealGate) error {
	t.Helper()
	vals := make([]int64, g.NumNodes())
	for u := range vals {
		vals[u] = int64(u%97) + 1
	}
	c.FillByNodeI64(src, func(v graph.NodeID) int64 { return vals[v] })
	c.FillI64(dst, 0)
	_, err := c.RunJob(JobSpec{
		Name:       "steal-push",
		Iter:       IterOutEdges,
		Task:       &stealPushTask{src: src, dst: dst, spin: 512, gate: gate},
		WriteProps: []WriteSpec{{Prop: dst, Op: reduce.Sum}},
		Steal:      &StealSpec{Own: []PropID{src}},
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

// TestStealMatchesReferenceOnSkewedLayout: with stealing enabled on a layout
// that gives machine 0 most of the edge mass, thief machines must
// (a) actually steal and (b) produce exactly the reference result — over both
// transports, with every referenced address replicated and with the top 64
// only (a stolen row's writes then fold into the thief's accumulator or are
// buffered, ref by ref).
func TestStealMatchesReferenceOnSkewedLayout(t *testing.T) {
	eachFabric(t, func(t *testing.T, useTCP bool) {
		for _, ghosts := range []int{0, 64} {
			g := stealGraph(t)
			cfg := faultCfg(3)
			cfg.GhostCount = ghosts
			cfg.EnableWorkStealing = true
			cfg.ChunkTargetEdges = 16 // many small chunks: the straggler drains its cursor gradually, so steals land regardless of scheduling
			cfg.RequestTimeout = 5 * time.Second
			cfg.CollectiveTimeout = 5 * time.Second
			reg := obs.NewRegistry()
			cfg.Obs = reg
			gate := newStealGate(innerFabric(t, cfg, useTCP), 0, cfg.RequestTimeout)
			inj := comm.NewFaultInjector(gate, comm.FaultPlan{})
			cfg.Fabric = inj
			c := bootSkewed(t, g, cfg, 0.85)
			src, _ := c.AddPropI64("src")
			dst, _ := c.AddPropI64("dst")
			if err := runPushGated(t, c, g, src, dst, true, gate); err != nil {
				t.Fatalf("ghosts=%d: %v", ghosts, err)
			}
			settleQuiescent(t, c)
			ctrs := reg.LifetimeCounters()
			if ctrs["stolen_nodes"] == 0 {
				t.Errorf("ghosts=%d: no nodes were stolen on a 85%%-skewed layout (counters: %v)", ghosts, ctrs)
			}
			if ctrs["steal_requests"] == 0 {
				t.Errorf("ghosts=%d: no steal requests issued", ghosts)
			}
			c.Shutdown()
			inj.Close()
		}
	})
}

// TestStealRepeatedJobsUseLoadHints: after the first job every machine holds
// the piggybacked per-machine load hints, so later jobs steal from the
// measured straggler first — and results stay exact across repeats.
func TestStealRepeatedJobsUseLoadHints(t *testing.T) {
	g := stealGraph(t)
	cfg := DefaultConfig(3)
	cfg.EnableWorkStealing = true
	cfg.ChunkTargetEdges = 16 // many small chunks: the straggler drains its cursor gradually, so steals land regardless of scheduling
	c := bootSkewed(t, g, cfg, 0.85)
	src, _ := c.AddPropI64("src")
	dst, _ := c.AddPropI64("dst")
	for i := 0; i < 3; i++ {
		if err := runPushVal(t, c, g, src, dst, true); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	hints := c.TaskTimeTotals()
	if len(hints) != 3 {
		t.Fatalf("TaskTimeTotals = %v, want 3 entries", hints)
	}
	for m, v := range hints {
		if v <= 0 {
			t.Errorf("machine %d task-time total %d, want > 0", m, v)
		}
	}
}

// TestStealSpecValidation: the StealSpec contract (push-only kernels, declared
// own-reads) is enforced at job validation time.
func TestStealSpecValidation(t *testing.T) {
	g := testGraph(t)
	cfg := DefaultConfig(2)
	cfg.EnableWorkStealing = true
	cfg.ChunkTargetEdges = 16 // many small chunks: the straggler drains its cursor gradually, so steals land regardless of scheduling
	c := bootCluster(t, g, cfg)
	src, _ := c.AddPropI64("src")
	dst, _ := c.AddPropI64("dst")

	cases := []struct {
		name string
		spec JobSpec
	}{
		{"node-iterator", JobSpec{
			Name: "bad", Iter: IterNodes,
			Task:  &stealPushTask{src: src, dst: dst, spin: 512},
			Steal: &StealSpec{},
		}},
		{"read-props", JobSpec{
			Name: "bad", Iter: IterInEdges,
			Task:      &pullSumTask{src: PropID(0), dst: PropID(1)},
			ReadProps: []PropID{src},
			Steal:     &StealSpec{},
		}},
		{"own-overlaps-writes", JobSpec{
			Name: "bad", Iter: IterOutEdges,
			Task:       &stealPushTask{src: src, dst: dst, spin: 512},
			WriteProps: []WriteSpec{{Prop: dst, Op: reduce.Sum}},
			Steal:      &StealSpec{Own: []PropID{dst}},
		}},
		{"own-unregistered", JobSpec{
			Name: "bad", Iter: IterOutEdges,
			Task:       &stealPushTask{src: src, dst: dst, spin: 512},
			WriteProps: []WriteSpec{{Prop: dst, Op: reduce.Sum}},
			Steal:      &StealSpec{Own: []PropID{PropID(200)}},
		}},
	}
	for _, tc := range cases {
		if _, err := c.RunJob(tc.spec); err == nil {
			t.Errorf("%s: spec accepted, want validation error", tc.name)
		}
	}
}

// TestFaultStealDropAborts: a silently dropped steal request leaves the thief
// waiting for a grant that never comes; the request timeout must convert that
// into a job abort — never a hang or a process death — and the cluster must
// compute correctly once the fault clears.
func TestFaultStealDropAborts(t *testing.T) {
	eachFabric(t, func(t *testing.T, useTCP bool) {
		g := stealGraph(t)
		cfg := faultCfg(3)
		cfg.EnableWorkStealing = true
		cfg.ChunkTargetEdges = 16 // many small chunks: the straggler drains its cursor gradually, so steals land regardless of scheduling
		inj := faultFabric(t, cfg, useTCP, comm.FaultPlan{Seed: 21, Rules: []comm.FaultRule{
			{Src: comm.AnyMachine, Dst: comm.AnyMachine, Type: int(comm.MsgSteal), Kind: comm.FaultDrop, After: 0, Limit: 1},
		}})
		cfg.Fabric = inj
		c := bootSkewed(t, g, cfg, 0.85)
		defer inj.Close()
		src, _ := c.AddPropI64("src")
		dst, _ := c.AddPropI64("dst")

		err := runPushVal(t, c, g, src, dst, false)
		if err == nil {
			t.Fatal("job succeeded despite dropped steal request")
		}
		if !errors.Is(err, ErrJobAborted) {
			t.Fatalf("error %v does not wrap ErrJobAborted", err)
		}
		if st := inj.Stats(); st.Dropped == 0 {
			t.Error("no steal frame was actually dropped")
		}
		settleQuiescent(t, c)

		inj.ClearRules()
		if err := runPushVal(t, c, g, src, dst, true); err != nil {
			t.Fatalf("clean rerun after fault cleared: %v", err)
		}
		settleQuiescent(t, c)
	})
}

// TestFaultStealGrantDropAborts: the grant direction fails soft the same way.
func TestFaultStealGrantDropAborts(t *testing.T) {
	eachFabric(t, func(t *testing.T, useTCP bool) {
		g := stealGraph(t)
		cfg := faultCfg(3)
		cfg.EnableWorkStealing = true
		cfg.ChunkTargetEdges = 16 // many small chunks: the straggler drains its cursor gradually, so steals land regardless of scheduling
		inj := faultFabric(t, cfg, useTCP, comm.FaultPlan{Seed: 22, Rules: []comm.FaultRule{
			{Src: comm.AnyMachine, Dst: comm.AnyMachine, Type: int(comm.MsgStealGrant), Kind: comm.FaultDrop, After: 0, Limit: 1},
		}})
		cfg.Fabric = inj
		c := bootSkewed(t, g, cfg, 0.85)
		defer inj.Close()
		src, _ := c.AddPropI64("src")
		dst, _ := c.AddPropI64("dst")

		err := runPushVal(t, c, g, src, dst, false)
		if err == nil {
			t.Fatal("job succeeded despite dropped steal grant")
		}
		if !errors.Is(err, ErrJobAborted) {
			t.Fatalf("error %v does not wrap ErrJobAborted", err)
		}
		settleQuiescent(t, c)

		inj.ClearRules()
		if err := runPushVal(t, c, g, src, dst, true); err != nil {
			t.Fatalf("clean rerun after fault cleared: %v", err)
		}
	})
}

// TestFaultStealDelayTolerated: delayed steal traffic below the timeouts is
// absorbed — the job completes with exact results.
func TestFaultStealDelayTolerated(t *testing.T) {
	eachFabric(t, func(t *testing.T, useTCP bool) {
		g := stealGraph(t)
		cfg := faultCfg(3)
		cfg.EnableWorkStealing = true
		cfg.ChunkTargetEdges = 16 // many small chunks: the straggler drains its cursor gradually, so steals land regardless of scheduling
		inj := faultFabric(t, cfg, useTCP, comm.FaultPlan{Seed: 23, Rules: []comm.FaultRule{
			{Src: comm.AnyMachine, Dst: comm.AnyMachine, Type: int(comm.MsgStealGrant), Kind: comm.FaultDelay, Every: 2, Delay: time.Millisecond},
		}})
		cfg.Fabric = inj
		c := bootSkewed(t, g, cfg, 0.85)
		defer inj.Close()
		src, _ := c.AddPropI64("src")
		dst, _ := c.AddPropI64("dst")
		if err := runPushVal(t, c, g, src, dst, true); err != nil {
			t.Fatalf("job failed under tolerable steal delay: %v", err)
		}
		settleQuiescent(t, c)
	})
}

// TestFaultStealTruncatedGrantAborts: a truncated grant payload must fail the
// thief's validation and abort the job — never index out of range.
func TestFaultStealTruncatedGrantAborts(t *testing.T) {
	eachFabric(t, func(t *testing.T, useTCP bool) {
		g := stealGraph(t)
		cfg := faultCfg(3)
		cfg.EnableWorkStealing = true
		cfg.ChunkTargetEdges = 16 // many small chunks: the straggler drains its cursor gradually, so steals land regardless of scheduling
		// Truncate every grant the straggler sends: a single-shot rule can land
		// on an empty grant (harmless by design), which would let the job pass.
		gate := newStealGate(innerFabric(t, cfg, useTCP), 0, cfg.RequestTimeout)
		inj := comm.NewFaultInjector(gate, comm.FaultPlan{Seed: 24, Rules: []comm.FaultRule{
			{Src: 0, Dst: comm.AnyMachine, Type: int(comm.MsgStealGrant), Kind: comm.FaultTruncate, TruncateTo: comm.HeaderSize + 12, Every: 1},
		}})
		cfg.Fabric = inj
		c := bootSkewed(t, g, cfg, 0.85)
		defer inj.Close()
		src, _ := c.AddPropI64("src")
		dst, _ := c.AddPropI64("dst")

		err := runPushGated(t, c, g, src, dst, false, gate)
		if err == nil {
			t.Fatal("job succeeded despite truncated steal grant")
		}
		if !errors.Is(err, ErrJobAborted) {
			t.Fatalf("error %v does not wrap ErrJobAborted", err)
		}
		settleQuiescent(t, c)

		inj.ClearRules()
		if err := runPushVal(t, c, g, src, dst, true); err != nil {
			t.Fatalf("clean rerun after fault cleared: %v", err)
		}
	})
}

// TestStealCancelMidRun: Cluster.Cancel fired while steal-heavy jobs are in
// flight aborts only the job; Uncancel restores the same cluster to exact
// computation.
func TestStealCancelMidRun(t *testing.T) {
	g := stealGraph(t)
	cfg := DefaultConfig(3)
	cfg.EnableWorkStealing = true
	cfg.ChunkTargetEdges = 16 // many small chunks: the straggler drains its cursor gradually, so steals land regardless of scheduling
	c := bootSkewed(t, g, cfg, 0.85)
	src, _ := c.AddPropI64("src")
	dst, _ := c.AddPropI64("dst")
	c.FillI64(src, 1)
	c.FillI64(dst, 0)

	spec := JobSpec{
		Name:       "steal-cancel",
		Iter:       IterOutEdges,
		Task:       &stealPushTask{src: src, dst: dst, spin: 512},
		WriteProps: []WriteSpec{{Prop: dst, Op: reduce.Sum}},
		Steal:      &StealSpec{Own: []PropID{src}},
	}
	errCh := make(chan error, 1)
	go func() {
		for i := 0; i < 100000; i++ {
			if _, err := c.RunJob(spec); err != nil {
				errCh <- err
				return
			}
		}
		errCh <- nil
	}()
	time.Sleep(20 * time.Millisecond)
	c.Cancel(errors.New("lease revoked"))

	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("driver loop ran to completion despite Cancel")
		}
		if !errors.Is(err, ErrJobCanceled) {
			t.Fatalf("error %v does not wrap ErrJobCanceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("driver loop did not stop within 10s of Cancel")
	}
	c.Uncancel()
	settleQuiescent(t, c)
	if err := runPushVal(t, c, g, src, dst, true); err != nil {
		t.Fatalf("clean run after Uncancel: %v", err)
	}
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

// TestClusterReplanImprovesSkew: end to end — run jobs on a skewed layout,
// ask the cluster for a plan, reload with it, and the measured imbalance
// drops while results stay exact. The measurement jobs run with stealing
// off: stolen work is billed to the thief's task time, so a steal-flattened
// run under-reports the straggler's per-edge cost and the replanner would
// read the skewed layout as fine (see the Replan doc).
func TestClusterReplanImprovesSkew(t *testing.T) {
	g := stealGraph(t)
	cfg := DefaultConfig(3)
	cfg.ChunkTargetEdges = 16
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
