package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/reduce"
	"repro/internal/store"
)

// Cluster assembles and drives the simulated machines. Execution is SPMD
// underneath — every collective operation runs with all machine main
// goroutines participating over the fabric — but the Cluster presents a
// driver-style API so algorithms read top-down like the paper's Figure 2
// application skeleton.
type Cluster struct {
	cfg       Config
	fabric    comm.Fabric
	ownFabric bool
	machines  []*Machine
	meta      []propMeta
	layout    partition.Layout
	numNodes  int
	numEdges  int64
	freeProps []PropID
	loaded    bool
	shut      bool
	// sections numbers the SPMD sections: each job (its id) and driver-side
	// collective (section) takes the next, which its frames carry.
	sections uint64
	loads    uint64 // installs so far; RunJob refuses a frontier of an earlier one

	// The fan-out's reused state (parallel): one error slot per machine and
	// the join. RunJob hands every machine runJobFn, which runs spec as job
	// sections and leaves each machine's stats in results.
	errs     []error
	done     sync.WaitGroup
	spec     JobSpec
	runJobFn func(m *Machine) error
	results  []machineJobStats

	// Out-of-core accounting state, set by LoadStore and cleared by install:
	// the store-file load the machines alias, plus the stats snapshot already
	// flushed into the obs registry — pollOOCStats publishes deltas against
	// it after every job so /debug/metrics and server stats see cumulative
	// decode/residency counters.
	ooc     *store.Load
	oocBase store.LoadStats

	// canceled is the external cancellation latch (Cancel/Uncancel): the
	// sticky cause, nil while the cluster accepts jobs. Every machine holds a
	// pointer to it and checks it as it publishes a job.
	canceled atomic.Pointer[error]
}

// ErrJobAborted wraps every error RunJob returns for a job that started and
// then failed (transport fault, timeout, dead machine, protocol violation).
// errors.Is(err, ErrJobAborted) distinguishes an aborted job from a
// configuration error; the root cause stays in the chain. After an aborted
// job the cluster has recovered: buffers are back in their pools and the
// next RunJob starts clean (property values touched by the failed job are
// undefined).
var ErrJobAborted = errors.New("core: job aborted")

// errShutdown is what every cluster-wide operation returns after Shutdown:
// the machines' goroutines are gone, and nothing is handed to them.
var errShutdown = errors.New("core: cluster is shut down")

// NewCluster boots a cluster per cfg. Call Load before registering
// properties or running jobs, and Shutdown when done.
func NewCluster(cfg Config) (*Cluster, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg, fabric: cfg.Fabric}
	if c.fabric == nil {
		c.fabric, c.ownFabric = NewInProcFabric(cfg), true
	}
	c.errs = make([]error, cfg.NumMachines)
	c.results = make([]machineJobStats, cfg.NumMachines)
	c.runJobFn = func(m *Machine) error {
		st, err := m.runJob(&c.spec, c.sections)
		c.results[m.id] = st
		return err
	}
	c.machines = make([]*Machine, cfg.NumMachines)
	ledgers := make([]*comm.Metrics, cfg.NumMachines)
	for m := range c.machines {
		ep, err := c.fabric.Endpoint(m)
		if err != nil {
			return nil, fmt.Errorf("core: machine %d endpoint: %w", m, err)
		}
		ledgers[m] = ep.Metrics()
		c.machines[m] = newMachine(&c.cfg, m, ep, &c.canceled)
	}
	// The registry reads each machine's traffic from its endpoint's ledger.
	// Nothing records into it before the first job.
	c.cfg.Obs.Attach(cfg.NumMachines, ledgers...)
	return c, nil
}

// Obs returns the cluster's observability registry, or nil when disabled.
func (c *Cluster) Obs() *obs.Registry { return c.cfg.Obs }

// Config returns the cluster's (normalized) configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Load cuts g edge-balanced across the machines (paper §3.3) and builds each
// machine's local store. Properties registered before Load are discarded;
// register them after. Any other cut or replica cap goes through LoadPlan.
func (c *Cluster) Load(g *graph.Graph) error {
	layout, err := partition.Compute(g, c.cfg.NumMachines, partition.EdgeBalanced)
	if err != nil {
		return err
	}
	return c.loadGraph(g, layout, nil)
}

// LoadPlan loads g with an explicit ownership layout instead of Load's
// edge-balanced cut — the entry point for a cut made outside the engine, such
// as a vertex-balanced one (partition.Compute) or a deliberately skewed one
// (partition.SkewedLayout) — and a replica cap: a non-nil ghosts (§3.3; e.g.
// partition.SelectTopGhosts, empty for none) holds the only vertices a machine
// may replicate; nil, what Load passes, keeps every referenced address.
// Like Load, it discards all registered properties; re-register and re-fill
// after the reload.
func (c *Cluster) LoadPlan(g *graph.Graph, layout partition.Layout, ghosts *partition.GhostSet) error {
	if layout.NumMachines != c.cfg.NumMachines {
		return fmt.Errorf("core: plan layout has %d machines, cluster has %d",
			layout.NumMachines, c.cfg.NumMachines)
	}
	if err := layout.Validate(int64(g.NumNodes())); err != nil {
		return fmt.Errorf("core: plan layout: %w", err)
	}
	return c.loadGraph(g, layout, ghosts)
}

// loadGraph is the shared body of Load/LoadPlan: every machine's section of g
// comes off the heap already numbered (store.SectionOf). A non-nil ghost set
// becomes the bitmap the machines share of the only vertices their remote sets
// will hold.
func (c *Cluster) loadGraph(g *graph.Graph, layout partition.Layout, ghosts *partition.GhostSet) error {
	var keep []uint64
	if ghosts != nil {
		keep = make([]uint64, (g.NumNodes()+63)/64)
		for _, v := range ghosts.Nodes {
			if int(v) >= g.NumNodes() {
				return fmt.Errorf("core: ghost %d outside the graph's %d nodes", v, g.NumNodes())
			}
			keep[v>>6] |= 1 << (v & 63)
		}
	}
	return c.install(layout, g.NumNodes(), g.NumEdges(), nil, func(me int) store.Section {
		return store.SectionOf(g, layout, me, keep)
	})
}

// install is the one tail of every load, from the heap or from a store file
// (ld non-nil): adopt the layout, discard the registered properties, and
// install on every machine the local store of its section.
func (c *Cluster) install(layout partition.Layout, nodes int, edges int64, ld *store.Load, section func(me int) store.Section) error {
	c.layout = layout
	c.numNodes = nodes
	c.numEdges = edges
	c.meta = nil
	c.freeProps = nil
	c.ooc = nil
	c.loads++
	err := c.parallel(func(m *Machine) error {
		m.install(newLocalStore(m.id, layout, section(m.id)), ld)
		return nil
	})
	if err != nil {
		return err
	}
	if ld != nil {
		// The decode cache outlives loads (it is the file's), so its counters
		// start from wherever an earlier load left them.
		c.ooc, c.oocBase = ld, ld.Stats()
	}
	c.loaded = true
	return nil
}

// ColumnWords returns the words one property column takes across the machines
// under the current load: each machine's owned nodes and one tail word per slot
// of its remote set (column). Zero before Load.
func (c *Cluster) ColumnWords() int64 {
	var words int64
	for _, m := range c.machines {
		if m.store != nil {
			words += int64(m.store.numLocal + len(m.store.remote.addr))
		}
	}
	return words
}

// NumNodes returns the loaded graph's node count.
func (c *Cluster) NumNodes() int { return c.numNodes }

// NumEdges returns the loaded graph's directed edge count.
func (c *Cluster) NumEdges() int64 { return c.numEdges }

// Layout returns the vertex partitioning.
func (c *Cluster) Layout() partition.Layout { return c.layout }

// Machines returns the number of machines.
func (c *Cluster) Machines() int { return c.cfg.NumMachines }

// parallel hands fn to every machine's long-lived main goroutine (mainLoop),
// waits for all of them, and returns the first error in machine order. All
// collective operations must happen inside such a section, on all machines.
// The hand-off starts no goroutine and allocates nothing: the error slots and
// the join are the cluster's, reused by every call. After Shutdown it hands
// off nothing and returns errShutdown. Driver-side: one section at a time.
func (c *Cluster) parallel(fn func(m *Machine) error) error {
	if c.shut {
		return errShutdown
	}
	c.done.Add(len(c.machines))
	for i, m := range c.machines {
		m.calls <- call{fn: fn, err: &c.errs[i], done: &c.done}
	}
	c.done.Wait()
	for _, err := range c.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// AddPropF64 registers a float64 node property on every machine and returns
// its id. Registration must happen after Load and outside jobs.
func (c *Cluster) AddPropF64(name string) (PropID, error) {
	return c.addProp(propMeta{name: name, kind: KindF64})
}

// AddPropI64 registers an int64 node property (bools are 0/1).
func (c *Cluster) AddPropI64(name string) (PropID, error) {
	return c.addProp(propMeta{name: name, kind: KindI64})
}

func (c *Cluster) addProp(meta propMeta) (PropID, error) {
	if !c.loaded {
		return 0, fmt.Errorf("core: AddProp %q before Load", meta.name)
	}
	if n := len(c.freeProps); n > 0 {
		id := c.freeProps[n-1]
		c.freeProps = c.freeProps[:n-1]
		c.meta[id] = meta
		for _, m := range c.machines {
			m.cols[id] = m.newCol(meta)
		}
		return id, nil
	}
	if len(c.meta) >= 1<<16 {
		return 0, fmt.Errorf("core: property id space exhausted")
	}
	id := PropID(len(c.meta))
	c.meta = append(c.meta, meta)
	for _, m := range c.machines {
		m.cols = append(m.cols, m.newCol(meta))
	}
	return id, nil
}

// DropProps releases temporary properties — the paper: "it is trivial to
// create or delete temporary properties". The load's next registrations reuse
// their ids and their heap columns; an off-heap column is released at once.
// Dropped ids must not be used afterwards; dropping one again is a no-op.
func (c *Cluster) DropProps(ids ...PropID) {
	for _, id := range ids {
		if int(id) >= len(c.meta) || c.meta[id].kind == kindDropped {
			continue
		}
		c.meta[id] = propMeta{name: "(dropped)", kind: kindDropped}
		for _, m := range c.machines {
			m.dropCol(id)
		}
		c.freeProps = append(c.freeProps, id)
	}
}

// RegisterRMI registers one remote method on every machine; build receives
// the machine, of which a handler can learn only its ID, and whatever else the
// handler needs it closes over. Returns the method id (identical
// cluster-wide). Tasks call it (Ctx.CallRMI); the handler runs on the target's
// copier while its workers run, and reads no property: a property's words
// reach another machine only through a declared remote read (JobSpec.ReadProps)
// and a reduction through the write path, visible at the owner from the job's
// drain on.
func (c *Cluster) RegisterRMI(build func(m *Machine) comm.RMIHandler) uint32 {
	var id uint32
	for _, m := range c.machines {
		id = m.rmi.Register(build(m))
	}
	return id
}

// RunJob executes one parallel region cluster-wide and returns its stats.
func (c *Cluster) RunJob(spec JobSpec) (JobStats, error) {
	if c.shut {
		return JobStats{}, fmt.Errorf("core: RunJob %q: %w", spec.Name, errShutdown)
	}
	if !c.loaded {
		return JobStats{}, fmt.Errorf("core: RunJob %q before Load", spec.Name)
	}
	if err := spec.validate(c.meta); err != nil {
		return JobStats{}, err
	}
	if f := spec.Source; f != nil && (f.c != c || f.load != c.loads) {
		return JobStats{}, fmt.Errorf("core: job %q sources frontier %q from another cluster or an earlier load", spec.Name, f.name)
	}
	for i, f := range spec.Build {
		if f == nil || f.c != c || f.load != c.loads {
			return JobStats{}, fmt.Errorf("core: job %q build slot %d is nil, from another cluster or from an earlier load", spec.Name, i)
		}
	}
	// Fail fast when canceled: a multi-superstep algorithm is a RunJob loop,
	// so this check is what stops the driver after Cancel fires mid-run.
	if cause := c.CancelCause(); cause != nil {
		return JobStats{}, fmt.Errorf("job %q: %w: %w", spec.Name, ErrJobAborted, cause)
	}
	before := c.TrafficSnapshot()
	c.sections++
	jobID := c.sections
	c.spec = spec
	c.cfg.Obs.BeginJob(jobID, spec.Name)
	start := time.Now()
	err := c.parallel(c.runJobFn)
	if err != nil {
		c.recoverAfterAbort()
		c.pollOOCStats()
		// The flight recorder snapshots after recovery so it sees the final
		// counter state of everything that did arrive before the abort.
		c.cfg.Obs.RecordAbort(jobID, spec.Name, err)
		// A broadcast abort flattens the originating error to a string, so
		// the winning machine error may have lost the cancellation cause;
		// if the latch is set, splice it back into the returned chain.
		if cause := c.CancelCause(); cause != nil && !errors.Is(err, ErrJobCanceled) {
			return JobStats{}, fmt.Errorf("job %q: %w: %w: %v", spec.Name, ErrJobAborted, cause, err)
		}
		return JobStats{}, fmt.Errorf("job %q: %w: %w", spec.Name, ErrJobAborted, err)
	}
	c.pollOOCStats() // before EndJob snapshots the job's counters into its report
	c.cfg.Obs.EndJob(jobID, time.Since(start))
	res := c.results[0]
	stats := JobStats{
		Duration:  time.Since(start),
		Traffic:   c.TrafficSnapshot().Sub(before),
		Breakdown: res.breakdown,
		Frontiers: res.frontiers,
	}
	// The driver-side duration also holds the hand-off to the machines' main
	// goroutines and the wait for the last of them to report; that difference
	// from machine 0's engine-measured duration is counted as Sync.
	stats.Breakdown.Sync += stats.Duration - res.duration
	return stats, nil
}

// pollOOCStats publishes the decode-cache and residency-window counters an
// out-of-core run accumulated since the last poll into the obs registry (as
// machine-0 counters — both structures are process-wide, shared across the
// simulated machines). Driver-side, called between jobs; deltas against the
// flushed bases keep the registry cumulative even though the underlying
// stats survive across jobs and across pool jobs on the same open file.
func (c *Cluster) pollOOCStats() {
	reg := c.cfg.Obs
	if !reg.Attached() {
		return
	}
	if c.ooc == nil {
		return
	}
	s, base := c.ooc.Stats(), c.oocBase
	reg.Add(0, obs.CtrDecodeHits, s.Decode.Hits-base.Decode.Hits)
	reg.Add(0, obs.CtrDecodeMisses, s.Decode.Misses-base.Decode.Misses)
	reg.Add(0, obs.CtrDecodedBytes, s.Decode.DecodedBytes-base.Decode.DecodedBytes)
	reg.Add(0, obs.CtrDecodeEvictedBytes, s.Decode.EvictedBytes-base.Decode.EvictedBytes)
	reg.Add(0, obs.CtrResidencyTouchedBytes, s.Residency.TouchedBytes-base.Residency.TouchedBytes)
	reg.Add(0, obs.CtrResidencyEvictedBytes, s.Residency.EvictedBytes-base.Residency.EvictedBytes)
	c.oocBase = s
}

// TrafficSnapshot sums the transport counters over all endpoints.
func (c *Cluster) TrafficSnapshot() comm.Snapshot {
	var s comm.Snapshot
	for _, m := range c.machines {
		s = s.Add(m.ep.Metrics().Snapshot())
	}
	return s
}

// Barrier synchronizes all machines; exposed for benchmarks (Figure 5b
// measures barrier latency directly).
func (c *Cluster) Barrier() error {
	return c.section(func(m *Machine) error { return m.col.Barrier() })
}

// section runs fn's collectives on every machine as the next SPMD section, so
// a control frame of an earlier one is released on arrival.
func (c *Cluster) section(fn func(m *Machine) error) error {
	c.sections++
	sec := uint32(c.sections)
	return c.parallel(func(m *Machine) error {
		m.col.Begin(sec)
		return fn(m)
	})
}

// Shutdown stops all machines and tears down an internally created fabric.
// Idempotent.
func (c *Cluster) Shutdown() {
	if c.shut {
		return
	}
	c.shut = true
	for _, m := range c.machines {
		m.shutdown()
	}
	if c.ownFabric {
		c.fabric.Close()
	}
}

// --- driver-side property access -------------------------------------------
//
// These helpers run at sequential-region time (no job in flight). Gather and
// Set access machine memory directly — they are result extraction and
// initialization, not part of the timed execution model.

func (c *Cluster) checkProp(p PropID, kind PropKind) {
	if int(p) >= len(c.meta) || c.meta[p].kind != kind {
		panic(fmt.Sprintf("core: property %d is not a registered %v property", p, kind))
	}
}

// GatherF64 assembles property p's full O(N) array in global node order.
func (c *Cluster) GatherF64(p PropID) []float64 {
	c.checkProp(p, KindF64)
	out := make([]float64, c.numNodes)
	c.mustParallel(func(m *Machine) {
		col := m.cols[p]
		base := int(c.layout.Starts[m.id])
		for i := 0; i < m.store.numLocal; i++ {
			out[base+i] = col.getF64(i)
		}
	})
	return out
}

// GatherI64 assembles integer property p's full array in global node order.
func (c *Cluster) GatherI64(p PropID) []int64 {
	c.checkProp(p, KindI64)
	out := make([]int64, c.numNodes)
	c.mustParallel(func(m *Machine) {
		col := m.cols[p]
		base := int(c.layout.Starts[m.id])
		for i := 0; i < m.store.numLocal; i++ {
			out[base+i] = col.getI64(i)
		}
	})
	return out
}

// FillF64 sets property p to v on every node.
func (c *Cluster) FillF64(p PropID, v float64) {
	c.checkProp(p, KindF64)
	c.mustParallel(func(m *Machine) {
		col := m.cols[p]
		for i := 0; i < m.store.numLocal; i++ {
			col.setF64(i, v)
		}
	})
}

// FillI64 sets integer property p to v on every node.
func (c *Cluster) FillI64(p PropID, v int64) {
	c.checkProp(p, KindI64)
	c.mustParallel(func(m *Machine) {
		col := m.cols[p]
		for i := 0; i < m.store.numLocal; i++ {
			col.setI64(i, v)
		}
	})
}

// FillByNodeF64 sets property p per node from fn(global id). fn must be safe
// for concurrent calls.
func (c *Cluster) FillByNodeF64(p PropID, fn func(graph.NodeID) float64) {
	c.checkProp(p, KindF64)
	c.mustParallel(func(m *Machine) {
		col := m.cols[p]
		for i := 0; i < m.store.numLocal; i++ {
			col.setF64(i, fn(m.store.globalOf(uint32(i))))
		}
	})
}

// FillByNodeI64 sets integer property p per node from fn(global id).
func (c *Cluster) FillByNodeI64(p PropID, fn func(graph.NodeID) int64) {
	c.checkProp(p, KindI64)
	c.mustParallel(func(m *Machine) {
		col := m.cols[p]
		for i := 0; i < m.store.numLocal; i++ {
			col.setI64(i, fn(m.store.globalOf(uint32(i))))
		}
	})
}

// SetNodeF64 writes one node's value of property p.
func (c *Cluster) SetNodeF64(v graph.NodeID, p PropID, val float64) {
	c.checkProp(p, KindF64)
	owner := c.layout.Owner(v)
	c.machines[owner].cols[p].setF64(int(c.layout.LocalOffset(v)), val)
}

// SetNodeI64 writes one node's value of integer property p.
func (c *Cluster) SetNodeI64(v graph.NodeID, p PropID, val int64) {
	c.checkProp(p, KindI64)
	owner := c.layout.Owner(v)
	c.machines[owner].cols[p].setI64(int(c.layout.LocalOffset(v)), val)
}

// GetNodeF64 reads one node's value of property p.
func (c *Cluster) GetNodeF64(v graph.NodeID, p PropID) float64 {
	c.checkProp(p, KindF64)
	owner := c.layout.Owner(v)
	return c.machines[owner].cols[p].getF64(int(c.layout.LocalOffset(v)))
}

// GetNodeI64 reads one node's value of integer property p.
func (c *Cluster) GetNodeI64(v graph.NodeID, p PropID) int64 {
	c.checkProp(p, KindI64)
	owner := c.layout.Owner(v)
	return c.machines[owner].cols[p].getI64(int(c.layout.LocalOffset(v)))
}

// ReduceMappedF64 folds fn(value) of property p over all nodes with op,
// using local folds plus one collective — e.g. a sum of squares for L2
// normalization without materializing a temporary property.
func (c *Cluster) ReduceMappedF64(p PropID, op reduce.Op, fn func(float64) float64) (float64, error) {
	c.checkProp(p, KindF64)
	results := make([]float64, len(c.machines))
	err := c.section(func(m *Machine) error {
		col := m.cols[p]
		acc := reduce.BottomF64(op)
		for i := 0; i < m.store.numLocal; i++ {
			acc = reduce.ApplyF64(op, acc, fn(col.getF64(i)))
		}
		vals := []float64{acc}
		if err := m.col.AllReduceF64(vals, op); err != nil {
			return err
		}
		results[m.id] = vals[0]
		return nil
	})
	return results[0], err
}

// ReduceI64 folds integer property p over all nodes with op.
func (c *Cluster) ReduceI64(p PropID, op reduce.Op) (int64, error) {
	c.checkProp(p, KindI64)
	results := make([]int64, len(c.machines))
	err := c.section(func(m *Machine) error {
		col := m.cols[p]
		acc := reduce.BottomI64(op)
		for i := 0; i < m.store.numLocal; i++ {
			acc = reduce.ApplyI64(op, acc, col.getI64(i))
		}
		vals := []int64{acc}
		if err := m.col.AllReduceI64(vals, op); err != nil {
			return err
		}
		results[m.id] = vals[0]
		return nil
	})
	return results[0], err
}

// PoolsQuiescent reports whether every buffer pool has all buffers returned;
// tests assert it between jobs (leak detection). The job protocol guarantees
// every frame was delivered, but the last Release can trail the response's
// arrival — an async sender goroutine's, or a copier's of the request it just
// answered — so senders are quiesced and a straggler gets half a second to
// come home before the pools count as leaking.
func (c *Cluster) PoolsQuiescent() bool {
	return c.settle(c.poolsHome)
}

// settle quiesces the senders and runs quiet until it reports true, at most
// 500 times a millisecond apart; it reports whether quiet did.
func (c *Cluster) settle(quiet func() bool) bool {
	for round := 0; round < 500; round++ {
		c.quiesceSenders()
		if quiet() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// quiesceSenders waits out the transports' asynchronous send queues.
func (c *Cluster) quiesceSenders() {
	for _, m := range c.machines {
		if q, ok := m.ep.(interface{ Quiesce() }); ok {
			q.Quiesce()
		}
	}
}

// poolsHome reports whether no machine has a pooled buffer checked out.
func (c *Cluster) poolsHome() bool {
	for _, m := range c.machines {
		if m.reqPool.Outstanding() != 0 || m.respPool.Outstanding() != 0 ||
			m.ctrlPool.Outstanding() != 0 || m.abortPool.Outstanding() != 0 {
			return false
		}
	}
	return true
}

// recoverAfterAbort waits, after a failed job, for the cluster to go quiet: it
// quiesces async senders, lets copiers finish what arrived and drains stale
// responses and control frames to their pools, until no request is pending and
// every pool is home. It repairs nothing: a frame of the aborted job arriving
// later carries its section and is dropped on arrival.
func (c *Cluster) recoverAfterAbort() {
	c.settle(func() bool {
		for _, m := range c.machines {
			m.drainStale()
		}
		for _, m := range c.machines {
			if m.router.PendingRequests() != 0 {
				return false
			}
		}
		return c.poolsHome()
	})
}

func (c *Cluster) mustParallel(fn func(m *Machine)) {
	if err := c.parallel(func(m *Machine) error { fn(m); return nil }); err != nil {
		panic(err)
	}
}
