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
	"repro/internal/reduce"
)

// faultCfg is the engine configuration the fault tests share: short timeouts
// so silent faults — drops, kills — resolve quickly.
func faultCfg(p int) Config {
	cfg := DefaultConfig(p)
	cfg.Timeout = 750 * time.Millisecond
	cfg.BufferSize = 8 << 10
	return cfg
}

// innerFabric builds the fabric of the requested flavour that the fault tests
// wrap, sized for cfg as NewCluster sizes its own.
func innerFabric(t testing.TB, cfg Config, useTCP bool) comm.Fabric {
	t.Helper()
	if useTCP {
		f, err := NewTCPFabric(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	return NewInProcFabric(cfg)
}

// faultFabric wraps an inner fabric of the requested flavour in an injector.
func faultFabric(t testing.TB, cfg Config, useTCP bool, plan comm.FaultPlan) *comm.FaultInjector {
	t.Helper()
	return comm.NewFaultInjector(innerFabric(t, cfg, useTCP), plan)
}

// eachFabric runs body over both transports.
func eachFabric(t *testing.T, body func(t *testing.T, useTCP bool)) {
	t.Run("inproc", func(t *testing.T) { body(t, false) })
	t.Run("tcp", func(t *testing.T) { body(t, true) })
}

func faultGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := graph.RMAT(8, 6, graph.TwitterLike(), 5)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// runPull executes the pull-sum job against c, returning the job error. On
// success it also checks the result against the single-machine reference.
func runPull(t *testing.T, c *Cluster, g *graph.Graph, src, dst PropID, verify bool) error {
	t.Helper()
	vals := make([]float64, g.NumNodes())
	for u := range vals {
		vals[u] = float64(u%89) + 0.25
	}
	c.FillByNodeF64(src, func(v graph.NodeID) float64 { return vals[v] })
	c.FillF64(dst, 0)
	_, err := c.RunJob(JobSpec{
		Name:      "fault-pull",
		Iter:      IterInEdges,
		Task:      &pullSumTask{src: src, dst: dst},
		ReadProps: []PropID{src},
	})
	if err != nil || !verify {
		return err
	}
	want := refPullSum(g, vals)
	got := c.GatherF64(dst)
	for u := range want {
		if diff := got[u] - want[u]; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("node %d: got %g, want %g", u, got[u], want[u])
		}
	}
	return nil
}

// settleQuiescent polls until every pool has all buffers home.
func settleQuiescent(t *testing.T, c *Cluster) {
	t.Helper()
	for i := 0; i < 400; i++ {
		if c.PoolsQuiescent() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("buffer pools never returned to quiescence after fault")
}

// TestFaultHardFailAbortsJob: an injected hard send failure surfaces as an
// ErrJobAborted-wrapped error from RunJob (no panic), every buffer comes
// home, and once the fault clears the same cluster computes correct results.
func TestFaultHardFailAbortsJob(t *testing.T) {
	eachFabric(t, func(t *testing.T, useTCP bool) {
		g := faultGraph(t)
		cfg := faultCfg(3)
		inj := faultFabric(t, cfg, useTCP, comm.FaultPlan{Seed: 2, Rules: []comm.FaultRule{
			{Src: comm.AnyMachine, Dst: comm.AnyMachine, Type: int(comm.MsgReadReq), Kind: comm.FaultFail, After: 0, Limit: 1},
		}})
		cfg.Fabric = inj
		c := bootCluster(t, g, cfg)
		defer inj.Close()
		src, _ := c.AddPropF64("src")
		dst, _ := c.AddPropF64("dst")

		err := runPull(t, c, g, src, dst, false)
		if err == nil {
			t.Fatal("job succeeded despite injected send failure")
		}
		if !errors.Is(err, ErrJobAborted) {
			t.Fatalf("error %v does not wrap ErrJobAborted", err)
		}
		settleQuiescent(t, c)

		inj.ClearRules()
		if err := runPull(t, c, g, src, dst, true); err != nil {
			t.Fatalf("clean rerun after fault cleared: %v", err)
		}
		settleQuiescent(t, c)
	})
}

// TestFaultDroppedResponseTimesOut: a silently dropped read response cannot
// produce an error at the sender; the worker's request timeout must convert
// the silence into a job abort.
func TestFaultDroppedResponseTimesOut(t *testing.T) {
	eachFabric(t, func(t *testing.T, useTCP bool) {
		g := faultGraph(t)
		cfg := faultCfg(3)
		inj := faultFabric(t, cfg, useTCP, comm.FaultPlan{Seed: 3, Rules: []comm.FaultRule{
			{Src: comm.AnyMachine, Dst: comm.AnyMachine, Type: int(comm.MsgReadResp), Kind: comm.FaultDrop, After: 0, Limit: 1},
		}})
		cfg.Fabric = inj
		c := bootCluster(t, g, cfg)
		defer inj.Close()
		src, _ := c.AddPropF64("src")
		dst, _ := c.AddPropF64("dst")

		err := runPull(t, c, g, src, dst, false)
		if err == nil {
			t.Fatal("job succeeded despite dropped response")
		}
		if !errors.Is(err, ErrJobAborted) {
			t.Fatalf("error %v does not wrap ErrJobAborted", err)
		}
		if st := inj.Stats(); st.Dropped == 0 {
			t.Error("no frame was actually dropped")
		}
		settleQuiescent(t, c)

		inj.ClearRules()
		if err := runPull(t, c, g, src, dst, true); err != nil {
			t.Fatalf("clean rerun after fault cleared: %v", err)
		}
	})
}

// TestFaultDelayTolerated: latency below the timeouts is not a failure — the
// job completes with correct results.
func TestFaultDelayTolerated(t *testing.T) {
	eachFabric(t, func(t *testing.T, useTCP bool) {
		g := faultGraph(t)
		cfg := faultCfg(2)
		inj := faultFabric(t, cfg, useTCP, comm.FaultPlan{Seed: 4, Rules: []comm.FaultRule{
			{Src: comm.AnyMachine, Dst: comm.AnyMachine, Type: int(comm.MsgReadResp), Kind: comm.FaultDelay, Every: 8, Delay: time.Millisecond},
		}})
		cfg.Fabric = inj
		c := bootCluster(t, g, cfg)
		defer inj.Close()
		src, _ := c.AddPropF64("src")
		dst, _ := c.AddPropF64("dst")
		if err := runPull(t, c, g, src, dst, true); err != nil {
			t.Fatalf("job failed under tolerable delay: %v", err)
		}
		if st := inj.Stats(); st.Delayed == 0 {
			t.Error("no frame was actually delayed")
		}
		settleQuiescent(t, c)
	})
}

// TestFaultTruncatedResponseAborts: a truncated read response must fail
// payload validation and abort the job — never index out of range.
func TestFaultTruncatedResponseAborts(t *testing.T) {
	eachFabric(t, func(t *testing.T, useTCP bool) {
		g := faultGraph(t)
		cfg := faultCfg(3)
		inj := faultFabric(t, cfg, useTCP, comm.FaultPlan{Seed: 6, Rules: []comm.FaultRule{
			{Src: comm.AnyMachine, Dst: comm.AnyMachine, Type: int(comm.MsgReadResp), Kind: comm.FaultTruncate, After: 0, Limit: 1, TruncateTo: comm.HeaderSize},
		}})
		cfg.Fabric = inj
		c := bootCluster(t, g, cfg)
		defer inj.Close()
		src, _ := c.AddPropF64("src")
		dst, _ := c.AddPropF64("dst")

		err := runPull(t, c, g, src, dst, false)
		if err == nil {
			t.Fatal("job succeeded despite truncated response")
		}
		if !errors.Is(err, ErrJobAborted) {
			t.Fatalf("error %v does not wrap ErrJobAborted", err)
		}
		settleQuiescent(t, c)

		inj.ClearRules()
		if err := runPull(t, c, g, src, dst, true); err != nil {
			t.Fatalf("clean rerun after fault cleared: %v", err)
		}
	})
}

// TestFaultCollectiveFailAborts: a hard failure on the control plane (the
// collectives that sequence parallel regions and termination) aborts the job
// cleanly too. A healthy job is two collectives, so each control stream
// carries two frames: the rule fails every stream's second, the drain round.
func TestFaultCollectiveFailAborts(t *testing.T) {
	eachFabric(t, func(t *testing.T, useTCP bool) {
		g := faultGraph(t)
		cfg := faultCfg(3)
		inj := faultFabric(t, cfg, useTCP, comm.FaultPlan{Seed: 5, Rules: []comm.FaultRule{
			{Src: comm.AnyMachine, Dst: comm.AnyMachine, Type: int(comm.MsgCtrl), Kind: comm.FaultFail, After: 1, Limit: 1},
		}})
		cfg.Fabric = inj
		c := bootCluster(t, g, cfg)
		defer inj.Close()
		src, _ := c.AddPropF64("src")
		dst, _ := c.AddPropF64("dst")

		err := runPull(t, c, g, src, dst, false)
		if err == nil {
			t.Fatal("job succeeded despite failed control frame")
		}
		if !errors.Is(err, ErrJobAborted) {
			t.Fatalf("error %v does not wrap ErrJobAborted", err)
		}
		settleQuiescent(t, c)

		inj.ClearRules()
		if err := runPull(t, c, g, src, dst, true); err != nil {
			t.Fatalf("clean rerun after fault cleared: %v", err)
		}
	})
}

// TestFaultKillMachineAborts: killing a machine mid-job (its sends fail,
// frames toward it vanish) aborts the job via the surviving machines'
// timeouts. The cluster still quiesces — no wedged pools, no leak.
func TestFaultKillMachineAborts(t *testing.T) {
	eachFabric(t, func(t *testing.T, useTCP bool) {
		g := faultGraph(t)
		cfg := faultCfg(3)
		inj := faultFabric(t, cfg, useTCP, comm.FaultPlan{Seed: 7, Rules: []comm.FaultRule{
			{Src: 1, Dst: comm.AnyMachine, Type: comm.AnyType, Kind: comm.FaultKill, After: 2},
		}})
		cfg.Fabric = inj
		c := bootCluster(t, g, cfg)
		defer inj.Close()
		src, _ := c.AddPropF64("src")
		dst, _ := c.AddPropF64("dst")

		err := runPull(t, c, g, src, dst, false)
		if err == nil {
			t.Fatal("job succeeded despite killed machine")
		}
		if !errors.Is(err, ErrJobAborted) {
			t.Fatalf("error %v does not wrap ErrJobAborted", err)
		}
		if inj.Alive(1) {
			t.Error("kill rule never fired")
		}
		settleQuiescent(t, c)
	})
}

// TestFaultDriverReduceTimesOut: a driver-side collective is bounded by
// Config.Timeout like a job's. With machine 1 killed, Cluster.ReduceI64
// returns an error wrapping comm.ErrTimeout instead of waiting forever for
// machine 1's contribution.
func TestFaultDriverReduceTimesOut(t *testing.T) {
	eachFabric(t, func(t *testing.T, useTCP bool) {
		g := faultGraph(t)
		cfg := faultCfg(2)
		cfg.Timeout = 100 * time.Millisecond // the only collective is the reduce itself
		inj := faultFabric(t, cfg, useTCP, comm.FaultPlan{})
		cfg.Fabric = inj
		c := bootCluster(t, g, cfg)
		defer inj.Close()
		ones, _ := c.AddPropI64("ones")
		c.FillI64(ones, 1)
		inj.Kill(1)
		errc := make(chan error, 1)
		go func() {
			_, err := c.ReduceI64(ones, reduce.Sum)
			errc <- err
		}()
		select {
		case err := <-errc:
			if !errors.Is(err, comm.ErrTimeout) {
				t.Fatalf("ReduceI64 with machine 1 dead: %v, want an error wrapping comm.ErrTimeout", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("ReduceI64 still waiting 5s after machine 1 was killed")
		}
	})
}

// TestFaultNoGoroutineLeak: a full fault-abort-shutdown cycle, and a
// fault-free boot-load-jobs-shutdown one, on both fabrics, return the process
// to its original goroutine count — neither an abort nor Shutdown may strand
// a machine's main goroutine, workers, copiers, senders, or watchers.
func TestFaultNoGoroutineLeak(t *testing.T) {
	g := faultGraph(t)
	base := runtime.NumGoroutine()
	for _, tc := range []struct{ useTCP, fault bool }{{false, true}, {true, true}, {false, false}, {true, false}} {
		cfg := faultCfg(3)
		fab := innerFabric(t, cfg, tc.useTCP)
		if tc.fault {
			fab = comm.NewFaultInjector(fab, comm.FaultPlan{Seed: 8, Rules: []comm.FaultRule{
				{Src: comm.AnyMachine, Dst: comm.AnyMachine, Type: int(comm.MsgReadReq), Kind: comm.FaultFail, After: 0, Limit: 1},
			}})
		}
		cfg.Fabric = fab
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Load(g); err != nil {
			t.Fatal(err)
		}
		src, _ := c.AddPropF64("src")
		dst, _ := c.AddPropF64("dst")
		if tc.fault {
			if err := runPull(t, c, g, src, dst, false); err == nil {
				t.Fatal("job succeeded despite injected failure")
			}
		} else {
			// The healthy path: jobs and a barrier, then Shutdown must stop
			// every machine's main goroutine with no abort behind it.
			for i := 0; i < 3; i++ {
				if err := runPull(t, c, g, src, dst, true); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Barrier(); err != nil {
				t.Fatal(err)
			}
		}
		c.Shutdown()
		fab.Close()
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d -> %d\n%s",
				base, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFaultStaleFailureMissesLaterJobs: a machine's job runtime outlives its
// jobs, and a copier, the abort watcher or Cancel may still hold it from an
// earlier job's curJob. A failure naming that earlier job must land on none
// of the jobs after it, however it interleaves with their resets.
func TestFaultStaleFailureMissesLaterJobs(t *testing.T) {
	c := bootCluster(t, testGraph(t), faultCfg(2))
	p, _ := c.AddPropF64("p")
	spec := JobSpec{Name: "rerun", Iter: IterNodes, Task: &nodeInit{p: p}}
	if _, err := c.RunJob(spec); err != nil {
		t.Fatal(err)
	}
	m := c.machines[1]
	jr, stale := &m.jr, m.jr.id.Load()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			m.abortJob(jr, stale, errors.New("straggler of an earlier job"))
			runtime.Gosched()
		}
	}()
	for i := 0; i < 200; i++ {
		if _, err := c.RunJob(spec); err != nil {
			t.Errorf("job %d after the stale failure: %v", i, err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// recoveryGate opens once post-abort recovery has polled the victim's
// transport a third time (recoverAfterAbort quiesces every sender once per
// round): an event only a recovery that is still waiting can produce. It is
// what the parked copier below waits on, so "recovery waited for the copier"
// is an outcome the test reads off, not a race it times.
type recoveryGate struct {
	comm.Fabric
	victim int
	armed  atomic.Bool
	rounds atomic.Int32
	once   sync.Once
	open   chan struct{}
}

func (g *recoveryGate) release() { g.once.Do(func() { close(g.open) }) }

func (g *recoveryGate) InMemory() bool { return comm.InMemoryFabric(g.Fabric) }

func (g *recoveryGate) Endpoint(m int) (comm.Endpoint, error) {
	ep, err := g.Fabric.Endpoint(m)
	if err != nil {
		return nil, err
	}
	return &recoveryGateEndpoint{Endpoint: ep, gate: g, victim: m == g.victim}, nil
}

type recoveryGateEndpoint struct {
	comm.Endpoint
	gate   *recoveryGate
	victim bool
}

func (e *recoveryGateEndpoint) Quiesce() {
	if q, ok := e.Endpoint.(interface{ Quiesce() }); ok {
		q.Quiesce()
	}
	if e.victim && e.gate.armed.Load() && e.gate.rounds.Add(1) == 3 {
		e.gate.release()
	}
}

// rmiOnceTask sends exactly one RMI in the whole job: machine 0's node 0
// calls method on machine 1.
type rmiOnceTask struct {
	NoReads
	method uint32
}

func (k *rmiOnceTask) RunNodes(c *Ctx, nodes *Cursor) { perNode(c, nodes, k.node) }

func (k *rmiOnceTask) node(c *Ctx) {
	if c.Machine() == 0 && c.Node == 0 {
		c.CallRMI(1, k.method, []byte{1})
	}
}

func (k *rmiOnceTask) RMIDone(*Ctx, []byte) {}

// TestFaultRecoveryWaitsForCopierMidServe: a request frame a copier has
// dequeued and not finished serving must hold post-abort recovery. Over TCP
// such a frame sits in the receiving transport's own buffer, which no engine
// pool accounts for, and it has left the router's queue — so a recovery that
// only looks at pools and queue length declares the cluster quiet, resets the
// drain counters and returns with the copier still inside the aborted job's
// frame (a write frame finishing then wedges every later drain at applied >
// sent). Here the one request frame of the job parks its copier in an RMI
// handler, the job is canceled, and the handler is let go only by recovery's
// third polling round: RunJob may not return before the copier is done.
func TestFaultRecoveryWaitsForCopierMidServe(t *testing.T) {
	cfg := faultCfg(2)
	cfg.Timeout = time.Minute
	gate := &recoveryGate{Fabric: innerFabric(t, cfg, true), victim: 1, open: make(chan struct{})}
	defer gate.Close()
	defer gate.release() // a failing run must still let the copier go before Shutdown
	cfg.Fabric = gate
	c := bootCluster(t, faultGraph(t), cfg)

	entered := make(chan struct{})
	var served atomic.Int32
	method := c.RegisterRMI(func(m *Machine) comm.RMIHandler {
		return func(int, []byte) []byte {
			if served.Load() == 0 {
				close(entered)
				select {
				case <-gate.open:
				case <-time.After(30 * time.Second):
					t.Error("the parked copier was never released")
				}
			}
			served.Add(1)
			return nil
		}
	})
	spec := JobSpec{Name: "rmi-once", Iter: IterNodes, Task: &rmiOnceTask{method: method}}
	cause := errors.New("cancel with a copier mid-serve")
	go func() {
		<-entered
		gate.armed.Store(true)
		c.Cancel(cause)
	}()
	_, err := c.RunJob(spec)
	if !errors.Is(err, ErrJobAborted) || !errors.Is(err, cause) {
		t.Fatalf("RunJob = %v, want ErrJobAborted wrapping the cancel cause", err)
	}
	if served.Load() != 1 {
		t.Fatal("RunJob returned from an aborted job while a copier was still serving one of its request frames")
	}
	for _, m := range c.machines {
		if n := m.router.PendingRequests(); n != 0 {
			t.Errorf("machine %d: %d request frames still in flight after recovery", m.id, n)
		}
	}
	c.Uncancel()
	settleQuiescent(t, c)
	if _, err := c.RunJob(spec); err != nil || served.Load() != 2 {
		t.Fatalf("rerun after Uncancel: err=%v, handler ran %d times", err, served.Load())
	}
}
