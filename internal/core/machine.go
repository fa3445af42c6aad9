package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/reduce"
	"repro/internal/store"
)

// Machine is one simulated PGX.D process (Figure 1: "the same program is
// instantiated on each machine in the cluster"): a Task Manager (the worker
// goroutines and chunk scheduler), a Data Manager (localStore + property
// columns + remote sets), and a Communication Manager (router, copiers,
// buffer pools, collectives).
type Machine struct {
	id  int
	cfg *Config

	ep        comm.Endpoint
	router    *comm.Router
	col       *comm.Collectives
	reqPool   *comm.Pool
	respPool  *comm.Pool
	ctrlPool  *comm.Pool
	abortPool *comm.Pool
	rmi       comm.RMIRegistry

	// serialized is set when the fabric copies frames onto a wire instead of
	// handing them over by reference. Its one reader is worker.sendFlushed's
	// codec.wire_ratio shim, and it goes when that does.
	serialized bool

	// curJob points at the machine's job runtime (jr) while a job is in
	// flight, so goroutines outside the job's call tree (copiers, the abort
	// watcher) can fail it, naming the job by the id they read. Nil between
	// jobs.
	curJob atomic.Pointer[jobRuntime]
	// pendingAbort parks a remote abort announcement that raced ahead of
	// the local job start; runJob claims it when the ids match.
	pendingAbort atomic.Pointer[pendingAbort]
	// canceled is the cluster's cancellation latch (Cluster.Cancel), which
	// publish checks right after installing curJob.
	canceled *atomic.Pointer[error]

	store *localStore
	cols  []*column
	// mirrors are the word buffers mirrored jobs prefetch their read props
	// into (mirror.go): allocated like columns, reused by every later job and
	// dropped with the columns.
	mirrors []*column

	// ooc is the store-file load this machine's local store aliases (nil for
	// in-memory loads): workers claim each chunk's rows through it before
	// reading them.
	ooc *store.Load

	// offHeapCols moves property columns to anonymous mmap — set for
	// out-of-core loads with a resident budget, so the O(N) columns stay off
	// the GC heap and release eagerly.
	offHeapCols bool

	// spill is the write backlog: copiers stash inbound write frames into it
	// while a job is armed and the drain loop replays them; see spill.go.
	spill *spillState
	// acts is the replay's write-activation scratch (applyWrites), reused.
	acts []uint32

	// chunks[it] is the scheduling chunk list of iterator it under the
	// current load: node-count chunks for IterNodes, edge-balanced otherwise.
	// chunkDiv is the shape's chunk granularity, which cuts these and every
	// sparse frontier's chunks.
	chunks   [IterBothEdges + 1][]partition.Chunk
	chunkDiv int

	workers []*worker
	// calls hands the machine's main goroutine (mainLoop) what to run: every
	// job and every other section of Cluster.parallel. jr is the one job
	// runtime that goroutine resets for each job. loops joins the main,
	// copier and abort-watcher goroutines at shutdown.
	calls chan call
	jr    jobRuntime
	loops sync.WaitGroup

	// Cumulative counts of remote write records sent and applied; their
	// cluster-wide equality is the termination condition for jobs with
	// remote pushes ("a particular job completes when the task list is
	// empty and there are no unfinished remote requests").
	writesSent    atomic.Int64
	writesApplied atomic.Int64

	// scratch vectors for the termination lanes and the built frontiers'
	// stats, reused across jobs.
	scratchLanes     []int64
	scratchFrontiers []FrontierStats
}

// ID returns this machine's id in [0, NumMachines).
func (m *Machine) ID() int { return m.id }

// newMachine boots machine id over its endpoint: router (poller), pools,
// collectives, copier pool, and the persistent main and worker goroutines.
func newMachine(cfg *Config, id int, ep comm.Endpoint, canceled *atomic.Pointer[error]) *Machine {
	m := &Machine{id: id, cfg: cfg, ep: ep, canceled: canceled, calls: make(chan call, 1)}
	m.jr.abortCh = make(chan struct{})
	m.serialized = cfg.Fabric != nil && !comm.InMemoryFabric(cfg.Fabric) // nil: NewCluster's own in-process fabric
	m.spill = newSpillState(cfg)
	sh := shapeOf(cfg)
	m.chunkDiv = sh.chunkDiv
	m.reqPool = comm.NewPool(sh.req, cfg.BufferSize)
	m.respPool = comm.NewPool(sh.resp, cfg.BufferSize)
	m.ctrlPool = comm.NewPool(sh.ctrl, cfg.BufferSize)
	m.router = comm.NewRouter(ep, comm.RouterConfig{
		NumWorkers: cfg.Workers,
		RespDepth:  sh.respQueue,
		ReqDepth:   sh.reqQueue,
		CtrlDepth:  sh.ctrl,
	})
	m.col = comm.NewCollectives(ep, m.router.Ctrl(), m.ctrlPool)
	m.col.SetTimeout(cfg.Timeout)
	m.workers = make([]*worker, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		m.workers[w] = newWorker(m, w)
		go m.workers[w].loop()
	}
	m.loops.Add(cfg.Copiers)
	for cp := 0; cp < cfg.Copiers; cp++ {
		go m.copierLoop()
	}
	// The abort pool's payload is just an error string.
	m.abortPool = comm.NewPool(sh.abort, min(512, cfg.BufferSize))
	m.loops.Add(2)
	go m.abortWatcher()
	go m.mainLoop()
	return m
}

// call is one hand-off to a machine's main goroutine: the section to run,
// where its error goes and whom to tell. Cluster.parallel sends the same fn
// to every machine.
type call struct {
	fn   func(m *Machine) error
	err  *error
	done *sync.WaitGroup
}

// mainLoop is the machine's main goroutine, the one that runs Machine.runJob
// and every collective: it runs the calls it is handed one at a time, for the
// life of the machine, and exits when shutdown closes calls. One goroutine for
// every job means its stack grows to runJob's depth once, not once per job.
func (m *Machine) mainLoop() {
	defer m.loops.Done()
	for c := range m.calls {
		*c.err = c.fn(m)
		c.done.Done()
	}
}

// pendingAbort records a MsgAbort that arrived for a job this machine has
// not started yet (announcements can outrun the SPMD fan-out).
type pendingAbort struct {
	id  uint64
	err error
}

// abortWatcher consumes inbound MsgAbort frames for the life of the
// machine, failing the matching local job so no machine hangs waiting on a
// peer that already gave up.
func (m *Machine) abortWatcher() {
	defer m.loops.Done()
	for buf := range m.router.AbortQueue() {
		h := buf.Header()
		err := fmt.Errorf("core: machine %d aborted job %d: %s", h.Src, h.Aux, buf.Payload())
		buf.Release()
		if jr := m.curJob.Load(); jr != nil && jr.id.Load() == h.Aux {
			jr.fail(h.Aux, err)
		} else {
			m.pendingAbort.Store(&pendingAbort{id: h.Aux, err: err})
		}
	}
}

// abortJob fails job id on jr with err; the first failure on this machine
// announces the abort to every peer so they stop waiting on us.
func (m *Machine) abortJob(jr *jobRuntime, id uint64, err error) {
	if jr.fail(id, err) {
		m.broadcastAbort(id, err)
	}
}

// abortCurrent fails whatever job is running, if any — the entry point for
// goroutines (copiers) that serve traffic independent of job scope. With no
// job in flight the error has no job to fail; it has already been counted
// in the transport metrics.
func (m *Machine) abortCurrent(err error) {
	if jr := m.curJob.Load(); jr != nil {
		m.abortJob(jr, jr.id.Load(), err)
	}
}

// broadcastAbort sends MsgAbort(jobID, err) to every peer, best-effort:
// frames come from the small dedicated pool without blocking, and send
// failures are ignored — a peer that misses the announcement still fails
// via its timeout (Config.Timeout).
func (m *Machine) broadcastAbort(jobID uint64, err error) {
	msg := err.Error()
	for d := 0; d < m.cfg.NumMachines; d++ {
		if d == m.id {
			continue
		}
		buf, ok := m.abortPool.TryAcquire()
		if !ok {
			return
		}
		buf.Reset(comm.Header{
			Type:   comm.MsgAbort,
			Worker: comm.CtrlWorker,
			Src:    uint16(m.id),
			Aux:    jobID,
		})
		text := msg
		if room := buf.Room(); len(text) > room {
			text = text[:room]
		}
		buf.AppendBytes([]byte(text))
		m.ep.Send(d, buf) // ownership transferred; failure already released it
	}
}

// install makes st the machine's current load — in memory (ld nil), or a
// store file's section under its load handle — dropping the previous load's
// columns, and precomputes the scheduling chunks of each iterator, about
// eight per worker.
func (m *Machine) install(st *localStore, ld *store.Load) {
	m.store = st
	m.releaseCols()
	m.ooc, m.offHeapCols = ld, ld != nil && ld.Windowed()
	n, div := st.numLocal, m.chunkDiv
	m.chunks[IterNodes] = partition.NodeChunks(n, n/div+1)
	for it := IterOutEdges; it <= IterBothEdges; it++ {
		if m.cfg.Ablate.Has(AblateEdgeChunking) {
			m.chunks[it] = m.chunks[IterNodes]
			continue
		}
		rows := st.rowsFor(it)
		m.chunks[it] = partition.EdgeChunks(rows, rows[n]/int64(div)+1)
	}
}

// addProp allocates this machine's column for a newly registered property.
func (m *Machine) addProp(meta propMeta) {
	m.cols = append(m.cols, m.newCol(meta))
}

// newCol builds one column for this machine's current load, off-heap when
// the load asked for it.
func (m *Machine) newCol(meta propMeta) *column {
	return newColumn(meta.kind, m.store.numLocal, m.cfg.Workers, m.offHeapCols)
}

// releaseCols drops every column, returning off-heap backings to the kernel.
func (m *Machine) releaseCols() {
	for _, col := range m.cols {
		col.release()
	}
	for _, buf := range m.mirrors {
		buf.release()
	}
	m.cols, m.mirrors = nil, nil
}

// machineJobStats is runJob's per-machine result; the cluster reports
// machine 0's (the collectives make the global fields identical everywhere).
// frontiers aliases machine scratch the next job overwrites.
type machineJobStats struct {
	duration  time.Duration
	breakdown Breakdown
	frontiers []FrontierStats
}

// runJob executes one parallel region on this machine. Every machine's main
// goroutine runs this concurrently (SPMD); the collectives inside keep them
// in lockstep. The body is §3's protocol, one phase per call, and each span
// kind of the main goroutine is recorded by exactly the phase named:
//
//	newJobRuntime   what this machine iterates and feeds; no traffic
//	publish         spill, curJob, collectives' abort; unpublish on every exit
//	startBarrier    barrier(0): every machine has published
//	taskPhase       task_phase: the workers run the task list dry (RTC),
//	                mirrors prefetched first, accumulators shipped last
//	drainWrites     barrier(1), the first round: all task lists empty, all
//	                reads answered; write_drain, the rounds after it: until
//	                every remote write has been applied
//
// A healthy job is two collectives — the start barrier and one drain round —
// plus a drain round for every time the applied count had not caught up.
// Which collectives run, and in which order, is decided here and nowhere
// else: every machine must make the same calls whatever its local state.
func (m *Machine) runJob(spec *JobSpec, jobID uint64) (machineJobStats, error) {
	reg := m.cfg.Obs // every registry method is a no-op on nil
	defer reg.Span(m.id, obs.WorkerMain, obs.SpanJob, jobID, reg.Clock(), 0)
	jr := m.newJobRuntime(spec, jobID)
	m.publish(jr)
	defer m.unpublish()
	if err := m.startBarrier(jr); err != nil {
		return machineJobStats{}, m.jobFail(jr, err)
	}
	if err := m.taskPhase(jr); err != nil {
		return machineJobStats{}, m.jobFail(jr, err)
	}
	if err := m.drainWrites(jr); err != nil {
		return machineJobStats{}, m.jobFail(jr, err)
	}
	return m.jobStats(jr), nil
}

// jobFail turns err into the job's failure: it is recorded (first error
// wins), announced to peers, and the job's root cause — which may be an
// earlier error from elsewhere, or err itself when a phase reports a job that
// has already failed — is returned as this machine's result.
func (m *Machine) jobFail(jr *jobRuntime, err error) error {
	m.abortJob(jr, jr.id.Load(), err)
	if root := jr.Err(); root != nil {
		return root
	}
	return err
}

// iterViews[it] is the range of localStore.views (out, in) that iterator it
// walks per node, in dispatch order.
var iterViews = [...][2]int{IterNodes: {0, 0}, IterOutEdges: {0, 1}, IterInEdges: {1, 2}, IterBothEdges: {0, 2}}

// newJobRuntime resets the machine's one job runtime for job jobID and
// resolves spec against this machine's partition: which chunks its workers
// claim and through which CSR views, which frontier members they visit, which
// frontiers and write-activations the job feeds, and which column words one
// goroutine owns during the job. The plan is replaced whole; the latch moves
// to jobID (jobRuntime.reset). No traffic; of the machine's state only the
// columns' ownership flags and views are written, which nothing reads between
// jobs.
func (m *Machine) newJobRuntime(spec *JobSpec, jobID uint64) *jobRuntime {
	span := iterViews[spec.Iter]
	jr := &m.jr
	jr.jobPlan = jobPlan{spec: spec, chunks: m.chunks[spec.Iter], views: m.store.views[span[0]:span[1]]}
	jr.reset(jobID)
	if len(jr.views) > 0 {
		jr.row = spec.Task.(RowTask)
		jr.ooc, jr.cursors = m.ooc, m.ooc != nil && m.ooc.File().Compressed()
	} else if t, ok := spec.Task.(NodeTask); ok {
		jr.node = t
	} else {
		jr.nodeRun = spec.Task.(runTask)
	}

	// Frontier-sourced iteration: restrict the chunk list to this machine's
	// local frontier. Sparse frontiers get an edge-balanced cut of the
	// member list; dense ones keep node-id chunks, dropping those whose
	// bitmap range is all-inactive. An empty local frontier skips worker
	// dispatch entirely — but every collective of the schedule still runs,
	// because the machine's peers may have members and the SPMD schedule must
	// agree.
	if spec.Source != nil {
		srcMF := spec.Source.machines[m.id]
		switch {
		case srcMF.count == 0:
			jr.emptySkip = true
			jr.chunks = nil
		case srcMF.dense:
			jr.frontBits = srcMF.bits
			jr.chunks = srcMF.denseChunks(jr.chunks)
		default:
			jr.frontList = srcMF.sparse
			jr.chunks = srcMF.listChunks(spec.Iter, m.chunkDiv)
		}
	}
	if len(spec.Build) > 0 {
		jr.builds = jr.buildsBuf[:0]
		for _, f := range spec.Build {
			bf := f.machines[m.id]
			bf.beginBuild()
			jr.builds = append(jr.builds, bf)
		}
		jr.buildsBuf = jr.builds
	}
	// Write-activation (WriteSpec.ActivateInto): a per-property slot index
	// workers and the drain's replay consult on every reduce-write apply. Nil
	// when the job has no activating specs, keeping the common write path
	// branchless.
	for _, ws := range spec.WriteProps {
		if ws.ActivateInto > 0 {
			if jr.activate == nil {
				jr.activate = slices.Grow(jr.activateBuf[:0], len(m.cols))[:len(m.cols)]
				for i := range jr.activate {
					jr.activate[i] = -1
				}
				jr.activateBuf = jr.activate
			}
			jr.activate[ws.Prop] = int8(ws.ActivateInto - 1)
		}
	}
	// Single-writer columns. A copier reads only the declared ReadProps
	// (serveReads) and the drain's replay runs after the workers joined, so a
	// column outside ReadProps has only this machine's workers in the task
	// phase: with one worker, only that one; with several, only a node's own
	// worker at the node's word unless some worker reduces into the column as a
	// neighbor, which a job declares (WriteProps).
	one := m.cfg.Workers == 1
	for p, col := range m.cols {
		if col == nil {
			continue
		}
		read := jr.reads(PropID(p))
		reduced := slices.ContainsFunc(spec.WriteProps, func(ws WriteSpec) bool { return ws.Prop == PropID(p) })
		col.single = one && !read
		col.owned = !read && (one || !reduced)
		col.view = col.vals // mirrorJob points a mirrored property's at its mirror
	}
	return jr
}

// reads reports whether the job declares p among its ReadProps: the only
// properties another machine may read during it.
func (jr *jobRuntime) reads(p PropID) bool { return slices.Contains(jr.spec.ReadProps, p) }

// publish makes jr the machine's current job before any traffic, so copiers
// and the abort watcher can fail it, and points the collectives at its abort
// channel. The backlog is armed first: the start barrier orders the curJob
// install before any peer's first write frame, so the backlog sees every frame
// of this job. A remote abort announcement may already be parked if a
// fast peer failed before we even got here. The cancellation latch is read
// after the install and Cluster.Cancel sets it before looking for a current
// job, so one of the two sees the other: a Cancel is never lost in the window
// between RunJob's entry check and this point.
func (m *Machine) publish(jr *jobRuntime) {
	m.spill.begin(jr.id.Load())
	m.curJob.Store(jr)
	if pa := m.pendingAbort.Swap(nil); pa != nil && pa.id == jr.id.Load() {
		jr.fail(pa.id, pa.err)
	}
	if cause := m.canceled.Load(); cause != nil {
		m.abortJob(jr, jr.id.Load(), *cause)
	}
	m.col.SetAbort(jr.abortCh)
}

// unpublish is publish's undo, deferred by runJob so success, failure and
// abort alike leave no current job; the backlog reset discards anything
// unreplayed and removes the temp file.
func (m *Machine) unpublish() {
	m.col.SetAbort(nil)
	m.curJob.Store(nil)
	m.spill.reset()
}

// The two synchronization points of a job, as the barrier span's arg.
const (
	barrierStart = 0 // before the task phase: a collective barrier
	barrierEnd   = 1 // after it: the first round of the write drain
)

// startBarrier is the job's one plain barrier: no machine starts its task
// phase before every machine has published the job.
func (m *Machine) startBarrier(jr *jobRuntime) error {
	t := m.cfg.Obs.Clock()
	err := m.col.Barrier()
	m.barrierSpan(jr, barrierStart, t)
	return err
}

// barrierSpan records a synchronization point entered at t: the barrier span
// and a HistBarrier sample of the wait.
func (m *Machine) barrierSpan(jr *jobRuntime, which uint64, t int64) {
	reg := m.cfg.Obs
	reg.Span(m.id, obs.WorkerMain, obs.SpanBarrier, jr.id.Load(), t, which)
	reg.Observe(m.id, obs.HistBarrier, time.Duration(reg.Clock()-t))
}

// taskPhase hands the job to the workers and waits for their task lists and
// continuations to run dry (the task_phase span). Workers unwind on failure
// without an error return path; the job runtime carries the root cause. The
// job is set up against the load's remote set first (remoteJob), outside the
// span and ahead of t0: a mirror's first allocation billed to this job's
// worker end times would reach the Figure 6c breakdown.
func (m *Machine) taskPhase(jr *jobRuntime) error {
	reg := m.cfg.Obs
	if !jr.emptySkip {
		m.remoteJob(jr)
	}
	jr.t0 = time.Now()
	t := reg.Clock()
	if !jr.emptySkip {
		jr.wg.Add(len(m.workers))
		for _, w := range m.workers {
			w.jobCh <- jr
		}
		jr.wg.Wait()
		// Worker end times, the raw data of Figure 6c. A machine that skipped
		// dispatch keeps zeros: its workers' end times are stale from an
		// earlier job.
		jr.endMin = 1 << 62
		for _, w := range m.workers {
			d := w.endTime.Sub(jr.t0).Nanoseconds()
			jr.endMin, jr.endMax = min(jr.endMin, d), max(jr.endMax, d)
		}
	}
	reg.Span(m.id, obs.WorkerMain, obs.SpanTaskPhase, jr.id.Load(), t, 0)
	if err := jr.Err(); err != nil {
		return err
	}
	// Built frontiers finalize now: kernel activations (Ctx.Activate) come
	// only from this machine's own workers, so the shard merge is final once
	// the local task phase joined. Write-activations from remote machines land
	// when the drain replays their records, once per drainWrites round ahead of
	// its staging, so the converging round's stats are complete.
	for _, bf := range jr.builds {
		bf.finalize()
	}
	return nil
}

// drainLanes is the termination allreduce's vector, and the one place its
// layout is written down:
//
//	2                       cumulative remote write records sent, applied
//	3 per JobSpec.Build     the built frontier's count, out- and in-degree sum
//	nm                      lane i: when machine i's first worker ran dry
//	nm                      lane i: when machine i's last worker ran dry
//
// Frontier stats ride here instead of a separate O(V)-scan reduce per
// convergence check. Each machine contributes only its own per-machine lanes,
// so the sums reconstruct the full vectors — the worker end times behind the
// Figure 6c breakdown — at no additional collective cost.
type drainLanes struct {
	vals []int64
	ends int // offset of the first per-machine (worker end) lane
	nm   int
}

// newDrainLanes lays the vector out over the machine's lane scratch.
func (m *Machine) newDrainLanes(jr *jobRuntime) drainLanes {
	l := drainLanes{ends: 2 + 3*len(jr.builds), nm: m.cfg.NumMachines}
	n := l.ends + 2*l.nm
	if cap(m.scratchLanes) < n {
		m.scratchLanes = make([]int64, n)
	}
	l.vals = m.scratchLanes[:n]
	return l
}

func (l drainLanes) sent() int64    { return l.vals[0] }
func (l drainLanes) applied() int64 { return l.vals[1] }

func (l drainLanes) setWrites(sent, applied int64) { l.vals[0], l.vals[1] = sent, applied }

func (l drainLanes) setFrontier(i int, bf *machineFrontier) {
	l.vals[2+3*i], l.vals[3+3*i], l.vals[4+3*i] = int64(bf.count), bf.outDegSum, bf.inDegSum
}

func (l drainLanes) frontier(i int) FrontierStats {
	return FrontierStats{Count: l.vals[2+3*i], OutDeg: l.vals[3+3*i], InDeg: l.vals[4+3*i]}
}

// perMachine returns the k-th block of per-machine lanes.
func (l drainLanes) perMachine(k int) []int64 { return l.vals[l.ends+k*l.nm : l.ends+(k+1)*l.nm] }

func (l drainLanes) endMin() []int64 { return l.perMachine(0) }
func (l drainLanes) endMax() []int64 { return l.perMachine(1) }

// stageLanes writes this machine's contribution to one round. Every lane is
// rewritten each round: the allreduce overwrote the vector with sums.
func (m *Machine) stageLanes(jr *jobRuntime) {
	l := jr.lanes
	l.setWrites(m.writesSent.Load(), m.writesApplied.Load())
	for i, bf := range jr.builds {
		l.setFrontier(i, bf)
	}
	clear(l.vals[l.ends:])
	l.endMin()[m.id], l.endMax()[m.id] = jr.endMin, jr.endMax
}

// drainRound is one round of the termination allreduce. The write backlog is
// replayed before this round's applied count is staged: a round that observes
// sent == applied has replayed every frame that arrived before it. Frames
// landing during replay stash for the next round, which the unchanged sent
// total forces. The staged vector is summed a buffer's worth of lanes per
// collective — one, unless BufferSize is a few dozen bytes.
func (m *Machine) drainRound(jr *jobRuntime) error {
	if err := m.replaySpill(jr); err != nil {
		return err
	}
	m.stageLanes(jr)
	vals, maxVals := jr.lanes.vals, m.valsPerFrame()
	for len(vals) > 0 {
		n := min(len(vals), maxVals)
		if err := m.col.AllReduceI64(vals[:n], reduce.Sum); err != nil {
			return err
		}
		vals = vals[n:]
	}
	return nil
}

// drainWrites is the job's end barrier and its termination detection for
// buffered remote writes in one loop of lane allreduces. A machine stages its
// first round only after its own workers joined, so when that round returns
// every machine's task list is empty, every read is answered and every
// cumulative sent count is final — all an end barrier would assert; the round
// is recorded as the barrier(1) span and a HistBarrier sample, since what it
// measures is the wait for the slowest machine's task phase. The rounds after
// it (the write_drain span, whose arg counts them) repeat until the
// cluster-wide applied count catches up; a job whose writes all landed during
// the task phase has none. The deadline is the fault detector: a write frame
// lost on the wire would otherwise keep this loop (and hence the whole
// cluster) spinning forever.
func (m *Machine) drainWrites(jr *jobRuntime) error {
	reg := m.cfg.Obs
	t := reg.Clock()
	var deadline time.Time
	if m.cfg.Timeout > 0 {
		deadline = time.Now().Add(m.cfg.Timeout)
	}
	jr.lanes = m.newDrainLanes(jr)
	for round := uint64(0); ; round++ {
		err := m.drainRound(jr)
		if round == 0 {
			m.barrierSpan(jr, barrierEnd, t)
			t = reg.Clock()
		}
		if err != nil {
			return err
		}
		if jr.lanes.sent() == jr.lanes.applied() {
			reg.Span(m.id, obs.WorkerMain, obs.SpanWriteDrain, jr.id.Load(), t, round)
			return nil
		}
		if err := jr.Err(); err != nil {
			return err
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return fmt.Errorf("core: machine %d: write drain timed out after %v (sent=%d applied=%d)", m.id, m.cfg.Timeout, jr.lanes.sent(), jr.lanes.applied())
		}
		runtime.Gosched()
	}
}

// jobStats closes the job out of the converged lanes, with no traffic of its
// own: its duration, the built frontiers' cluster-wide stats, and the Figure
// 6c decomposition from the per-machine worker end times — the earliest
// worker end anywhere (fully-parallel boundary), the earliest machine end
// (inter-machine boundary) and the latest (job end).
func (m *Machine) jobStats(jr *jobRuntime) machineJobStats {
	total := time.Since(jr.t0)
	l := jr.lanes
	fully, minMachineEnd, jobEnd := slices.Min(l.endMin()), slices.Min(l.endMax()), slices.Max(l.endMax())
	st := machineJobStats{duration: total}
	if n := len(jr.builds); n > 0 {
		if cap(m.scratchFrontiers) < n {
			m.scratchFrontiers = make([]FrontierStats, n)
		}
		st.frontiers = m.scratchFrontiers[:n]
		for i := range st.frontiers {
			st.frontiers[i] = l.frontier(i)
		}
	}
	st.breakdown = Breakdown{
		FullyParallel: time.Duration(fully),
		IntraMachine:  time.Duration(minMachineEnd - fully),
		InterMachine:  time.Duration(jobEnd - minMachineEnd),
		Sync:          total - time.Duration(jobEnd),
	}
	return st
}

// valsPerFrame is how many 8-byte values one collective frame carries.
func (m *Machine) valsPerFrame() int { return (m.cfg.BufferSize - comm.HeaderSize) / 8 }

// drainStale releases any straggler frames parked in the machine's inbound
// queues — late responses to aborted requests, leftover control frames from
// collectives the peers never completed. Called only by the cluster's
// post-abort recovery, when no job is in flight and the machine's main
// goroutine and workers are idle (so this goroutine is the only receiver).
func (m *Machine) drainStale() {
	for _, w := range m.workers {
		for {
			select {
			case buf, ok := <-w.respCh:
				if !ok {
					return
				}
				delete(w.stale, uint32(buf.Header().Aux))
				buf.Release()
				continue
			default:
			}
			break
		}
	}
	for {
		select {
		case buf, ok := <-m.router.Ctrl():
			if !ok {
				return
			}
			buf.Release()
			continue
		default:
		}
		return
	}
}

// shutdown stops the main goroutine, the workers, copiers, and poller.
// Outstanding frames are drained and returned to their pools.
func (m *Machine) shutdown() {
	close(m.calls)
	for _, w := range m.workers {
		close(w.jobCh)
	}
	m.router.Shutdown()
	m.loops.Wait()
	m.releaseCols()
}
