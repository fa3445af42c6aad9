package core

import (
	"fmt"
	"runtime"
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

// Machine is one simulated PGX.D process (Figure 1: "the same program is
// instantiated on each machine in the cluster"): a Task Manager (the worker
// goroutines and chunk scheduler), a Data Manager (localStore + property
// columns + ghost synchronization), and a Communication Manager (router,
// copiers, buffer pools, collectives).
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

	// compress selects the sorted delta-varint wire encoding for flush
	// buffers and ghost-merge collectives: on unless the fabric hands frames
	// over in memory or the run ablates it.
	compress bool

	// curJob points at the running job's runtime while a parallel region is
	// in flight, so goroutines outside the job's call tree (copiers, the
	// abort watcher) can fail it. Nil between jobs.
	curJob atomic.Pointer[jobRuntime]
	// pendingAbort parks a remote abort announcement that raced ahead of
	// the local job start; runJob claims it when the ids match.
	pendingAbort atomic.Pointer[pendingAbort]

	store      *localStore
	ghostOwned []int64
	cols       []*column

	// residency is the shared out-of-core residency window (nil for
	// in-memory loads): workers advise claimed chunks in through it and it
	// advises the oldest ranges out past the configured budget.
	residency *store.Residency

	// dec is the compressed store file's decode cache (nil unless the
	// current load came from a CSR v3 file): this machine's refs live in its
	// arenas and workers pin the blocks under each claimed chunk.
	dec *store.DecodeCache

	// offHeapCols moves property columns to anonymous mmap — set for
	// out-of-core loads with a resident budget, so the O(N) columns stay off
	// the GC heap and release eagerly.
	offHeapCols bool

	// spill is the spillable write buffer (nil unless Config.SpillWrites):
	// copiers defer inbound write frames into it while a job is armed and the
	// drain loop replays them; see spill.go.
	spill *spillState

	chunksOut  []partition.Chunk
	chunksIn   []partition.Chunk
	chunksBoth []partition.Chunk
	chunksNode []partition.Chunk

	workers  []*worker
	copierWG sync.WaitGroup

	// Cumulative counts of remote write records sent and applied; their
	// cluster-wide equality is the termination condition for jobs with
	// remote pushes ("a particular job completes when the task list is
	// empty and there are no unfinished remote requests").
	writesSent    atomic.Int64
	writesApplied atomic.Int64

	// scratch vectors for ghost-sync collectives, reused across jobs.
	scratchF64 []float64
	scratchI64 []int64

	// loadHints[i] is machine i's task-phase wall time in the last completed
	// job, gathered via extra lanes on the write-drain allreduce at no
	// additional collective cost. Workers consult it at the start of the
	// next job's steal phase to pick the most loaded victim first;
	// loadTotals accumulates the same lanes across jobs for the
	// repartitioner. Written only by the machine's main goroutine between
	// jobs (the worker dispatch channel orders the write before any read).
	loadHints  []int64
	loadTotals []int64

	// degMass[i] is machine i's in+out degree sum under the current layout —
	// the static load estimate the steal phase uses to tell a structurally
	// skewed cut (steal from the straggler every job) from a balanced one
	// (steal only on strong dynamic-skew evidence). Written at load time,
	// read by workers; Load's cluster barrier orders the write.
	degMass []int64
}

// ID returns this machine's id in [0, NumMachines).
func (m *Machine) ID() int { return m.id }

// newMachine boots machine id over its endpoint: router (poller), pools,
// collectives, copier pool, and the persistent worker goroutines.
func newMachine(cfg *Config, id int, ep comm.Endpoint, compress bool) *Machine {
	m := &Machine{id: id, cfg: cfg, ep: ep, compress: compress}
	m.spill = newSpillState(cfg)
	m.reqPool = comm.NewPool(cfg.ReqBuffers, cfg.BufferSize)
	m.respPool = comm.NewPool(cfg.RespBuffers, cfg.BufferSize)
	m.ctrlPool = comm.NewPool(4*cfg.NumMachines+8, cfg.BufferSize)
	m.router = comm.NewRouter(ep, comm.RouterConfig{
		NumWorkers: cfg.Workers,
		// A worker's in-flight responses are bounded by the request pool, so
		// this depth guarantees the poller never blocks on a worker queue.
		RespDepth: cfg.ReqBuffers + 2,
		// Inbound requests are bounded by the senders' request pools.
		ReqDepth:  cfg.NumMachines*cfg.ReqBuffers + 4,
		CtrlDepth: 4*cfg.NumMachines + 8,
	})
	m.col = comm.NewCollectives(ep, m.router.Ctrl(), m.ctrlPool)
	// Ghost-merge reductions ride int64 allreduces; compress them exactly
	// when the flush paths do. SPMD: every machine of the cluster shares one
	// Config and fabric, so the setting always agrees.
	m.col.SetCompression(compress)
	m.workers = make([]*worker, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		m.workers[w] = newWorker(m, w)
		go m.workers[w].loop()
	}
	m.copierWG.Add(cfg.Copiers)
	for cp := 0; cp < cfg.Copiers; cp++ {
		go m.copierLoop()
	}
	// Small dedicated pool for outbound abort announcements: aborts must
	// never compete with (possibly exhausted) request/response pools, and
	// the payload is just an error string.
	abortBuf := 512
	if abortBuf > cfg.BufferSize {
		abortBuf = cfg.BufferSize
	}
	m.abortPool = comm.NewPool(cfg.NumMachines+2, abortBuf)
	m.copierWG.Add(1)
	go m.abortWatcher()
	return m
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
	defer m.copierWG.Done()
	for buf := range m.router.AbortQueue() {
		h := buf.Header()
		err := fmt.Errorf("core: machine %d aborted job %d: %s", h.Src, h.Aux, buf.Payload())
		buf.Release()
		if jr := m.curJob.Load(); jr != nil && jr.id == h.Aux {
			jr.fail(err)
		} else {
			m.pendingAbort.Store(&pendingAbort{id: h.Aux, err: err})
		}
	}
}

// abortJob fails jr with err; the first failure on this machine announces
// the abort to every peer so they stop waiting on us.
func (m *Machine) abortJob(jr *jobRuntime, err error) {
	if jr.fail(err) {
		m.broadcastAbort(jr.id, err)
	}
}

// abortCurrent fails whatever job is running, if any — the entry point for
// goroutines (copiers) that serve traffic independent of job scope. With no
// job in flight the error has no job to fail; it has already been counted
// in the transport metrics.
func (m *Machine) abortCurrent(err error) {
	if jr := m.curJob.Load(); jr != nil {
		m.abortJob(jr, err)
	}
}

// broadcastAbort sends MsgAbort(jobID, err) to every peer, best-effort:
// frames come from the small dedicated pool without blocking, and send
// failures are ignored — a peer that misses the announcement still fails
// via its request or collective timeout.
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

// load installs machine id's partition of g and precomputes scheduling
// chunks for each iterator orientation.
func (m *Machine) load(g *graph.Graph, layout partition.Layout, ghosts *partition.GhostSet) {
	m.store = buildLocalStore(g, layout, ghosts, m.id)
	m.ghostOwned = m.store.ghostOwnership()
	m.releaseCols()
	m.loadHints, m.loadTotals = nil, nil
	m.degMass = layout.DegreeMass(g)
	m.residency = nil
	m.dec = nil
	m.offHeapCols = false
	m.rebuildChunks()
}

// rebuildChunks recomputes chunk lists under the current chunking config.
func (m *Machine) rebuildChunks() {
	n := m.store.numLocal
	m.chunksNode = partition.NodeChunks(n, n/(8*m.cfg.Workers)+1)
	if m.cfg.Ablate.Has(AblateEdgeChunking) {
		m.chunksOut, m.chunksIn, m.chunksBoth = m.chunksNode, m.chunksNode, m.chunksNode
		return
	}
	target := m.cfg.ChunkTargetEdges
	outTarget, inTarget, bothTarget := target, target, target
	if target <= 0 {
		outTarget = m.store.outRows[n]/int64(8*m.cfg.Workers) + 1
		inTarget = m.store.inRows[n]/int64(8*m.cfg.Workers) + 1
		bothTarget = m.store.bothRows[n]/int64(8*m.cfg.Workers) + 1
	}
	m.chunksOut = partition.EdgeChunks(m.store.outRows, outTarget)
	m.chunksIn = partition.EdgeChunks(m.store.inRows, inTarget)
	m.chunksBoth = partition.EdgeChunks(m.store.bothRows, bothTarget)
}

// addProp allocates this machine's column for a newly registered property.
func (m *Machine) addProp(meta propMeta) {
	m.cols = append(m.cols, m.newCol(meta))
}

// newCol builds one column for this machine's current load, off-heap when
// the load asked for it.
func (m *Machine) newCol(meta propMeta) *column {
	return newColumn(meta.kind, m.store.numLocal, m.store.ghosts.Len(), m.cfg.Workers, m.offHeapCols)
}

// releaseCols drops every column, returning off-heap backings to the kernel.
func (m *Machine) releaseCols() {
	for _, col := range m.cols {
		col.release()
	}
	m.cols = nil
}

// machineJobStats is runJob's per-machine result; the cluster reports
// machine 0's (the collectives make the global fields identical everywhere).
type machineJobStats struct {
	duration  time.Duration
	breakdown Breakdown
	frontiers []FrontierStats
}

// runJob executes one parallel region on this machine. Every machine's main
// goroutine runs this concurrently (SPMD); the collectives inside keep them
// in lockstep. The sequence implements §3 end to end:
//
//  1. ghost read-sync: owners' values propagate to every ghost copy
//  2. ghost write-props reset to the reduction's bottom value
//  3. start barrier, then the workers drain the chunked task list,
//     buffering remote requests and running continuations (RTC)
//  4. barrier: all machines' task lists empty, all reads answered
//  5. write-drain: allreduce (sent, applied) until every buffered remote
//     write has been applied by a copier somewhere
//  6. ghost write merge: worker-private → machine (stage one), then
//     machine partials → owner via an op-allreduce (stage two)
//
// jobFail turns err into the job's failure: it is recorded (first error
// wins), announced to peers, and the job's root cause — which may be an
// earlier error from elsewhere — is returned as this machine's result.
func (m *Machine) jobFail(jr *jobRuntime, err error) error {
	m.abortJob(jr, err)
	if root := jr.Err(); root != nil {
		return root
	}
	return err
}

// obsBarrier wraps one collective barrier with a span + histogram sample
// when observability is attached. arg distinguishes the pre-task (0) and
// post-task (1) barriers in the trace.
func (m *Machine) obsBarrier(jobID, arg uint64) error {
	reg := m.cfg.Obs
	if reg == nil {
		return m.col.Barrier()
	}
	t := reg.Clock()
	err := m.col.Barrier()
	reg.Span(m.id, obs.WorkerMain, obs.SpanBarrier, jobID, t, arg)
	reg.Observe(m.id, obs.HistBarrier, time.Duration(reg.Clock()-t))
	return err
}

func (m *Machine) runJob(spec *JobSpec, jobID uint64) (machineJobStats, error) {
	jr := &jobRuntime{spec: spec, id: jobID, abortCh: make(chan struct{}), res: m.residency}
	if spec.Steal != nil && m.cfg.stealingOn() {
		jr.steal = &stealRuntime{stolenNS: make([]int64, m.cfg.NumMachines)}
	}
	reg := m.cfg.Obs
	jobClock := reg.Clock()
	if reg != nil {
		defer func() { reg.Span(m.id, obs.WorkerMain, obs.SpanJob, jobID, jobClock, 0) }()
	}
	switch spec.Iter {
	case IterNodes:
		jr.chunks = m.chunksNode
	case IterOutEdges:
		jr.chunks = m.chunksOut
		jr.rows, jr.refs, jr.weights = m.store.outRows, m.store.outRefs, m.store.outWeights
		jr.dec, jr.decMach, jr.orient = m.dec, m.id, store.OrientOut
	case IterInEdges:
		jr.chunks = m.chunksIn
		jr.rows, jr.refs, jr.weights = m.store.inRows, m.store.inRefs, m.store.inWeights
		jr.dec, jr.decMach, jr.orient = m.dec, m.id, store.OrientIn
	case IterBothEdges:
		jr.chunks = m.chunksBoth
		jr.rows, jr.refs, jr.weights = m.store.outRows, m.store.outRefs, m.store.outWeights
		jr.rows2, jr.refs2, jr.weights2 = m.store.inRows, m.store.inRefs, m.store.inWeights
		jr.dec, jr.decMach, jr.orient = m.dec, m.id, store.OrientOut
	}
	if spec.Iter != IterNodes {
		// One dispatch shape: workers hand rows to a RowTask. A per-edge Task
		// gets the adapter here, once per job.
		jr.row = rowForm(spec.Task)
	}

	// Frontier-sourced iteration: restrict the chunk list to this machine's
	// local frontier. Sparse frontiers get an edge-balanced cut of the
	// member list; dense ones keep node-id chunks, dropping those whose
	// bitmap range is all-inactive. An empty local frontier skips worker
	// dispatch entirely — but every collective below still runs, because the
	// machine's peers may have members and the SPMD schedule must agree.
	emptySkip := false
	if spec.Source != nil {
		srcMF := spec.Source.machines[m.id]
		switch {
		case m.cfg.Ablate.Has(AblateSparseFrontier):
			// Ablation: dense-filter fallback — scan every chunk, test the
			// membership bit per node, never skip an empty machine.
			jr.frontBits = srcMF.bits
		case srcMF.count == 0:
			// With stealing on, the workers still dispatch: an empty local
			// frontier is exactly when this machine has idle cycles to steal
			// with (and residual grant chunks can only be run by workers).
			if jr.steal == nil {
				emptySkip = true
			}
			jr.chunks = nil
		case srcMF.dense:
			jr.frontBits = srcMF.bits
			jr.chunks = srcMF.denseChunks(jr.chunks)
		default:
			jr.frontList = srcMF.sparse
			jr.chunks = srcMF.listChunks(spec.Iter, m.cfg.Workers)
		}
	}
	if len(spec.Build) > 0 {
		jr.builds = make([]*machineFrontier, len(spec.Build))
		for i, f := range spec.Build {
			bf := f.machines[m.id]
			bf.beginBuild()
			jr.builds[i] = bf
		}
	}
	// Write-activation (WriteSpec.ActivateInto): a per-property slot index
	// copiers and workers consult on every reduce-write apply. Nil when the
	// job has no activating specs, keeping the common write path branchless.
	for _, ws := range spec.WriteProps {
		if ws.ActivateInto > 0 {
			if jr.activate == nil {
				jr.activate = make([]int8, len(m.cols))
				for i := range jr.activate {
					jr.activate[i] = -1
				}
			}
			jr.activate[ws.Prop] = int8(ws.ActivateInto - 1)
		}
	}

	// Publish the job before any traffic so copiers and the abort watcher
	// can fail it, and point the collectives at its abort channel. A remote
	// abort announcement may already be parked if a fast peer failed before
	// we even got here.
	// Arm the spill before publishing the job: the pre-task barrier orders
	// curJob install before any peer's first write frame, so an armed spill
	// sees every frame of this job. The deferred reset (success, failure, or
	// abort alike) discards any unreplayed backlog and removes the temp file.
	m.spill.begin()
	defer m.spill.reset()
	m.curJob.Store(jr)
	defer m.curJob.Store(nil)
	if pa := m.pendingAbort.Swap(nil); pa != nil && pa.id == jobID {
		jr.fail(pa.err)
	}
	m.col.SetAbort(jr.abortCh)
	m.col.SetTimeout(m.cfg.CollectiveTimeout)
	defer func() {
		m.col.SetAbort(nil)
		m.col.SetTimeout(0)
	}()

	numGhost := m.store.ghosts.Len()
	if numGhost > 0 {
		for _, p := range spec.ReadProps {
			syncClock := reg.Clock()
			if err := m.syncGhostRead(p); err != nil {
				return machineJobStats{}, m.jobFail(jr, err)
			}
			reg.Span(m.id, obs.WorkerMain, obs.SpanGhostReadSync, jobID, syncClock, uint64(p))
		}
		for _, ws := range spec.WriteProps {
			if ws.ActivateInto > 0 {
				continue // activating writes bypass ghost accumulation
			}
			col := m.cols[ws.Prop]
			bottom := col.bottomWord(ws.Op)
			for s := 0; s < numGhost; s++ {
				col.store(col.numLocal+s, bottom)
			}
		}
		// With an empty local frontier the workers never run, so their
		// private ghost segments stay stale from an earlier job — they must
		// not be merged. The shared ghost copies were just re-bottomed, so
		// stage two still contributes clean identity partials. Activating
		// specs never privatize: their writes must reach the owner (and
		// activate there) before the termination allreduce, not sit in ghost
		// partials until after it.
		if !m.cfg.Ablate.Has(AblateGhostPrivatization) && !emptySkip {
			for _, ws := range spec.WriteProps {
				if ws.ActivateInto == 0 {
					jr.privProps = append(jr.privProps, ws)
				}
			}
		}
	}

	if err := m.obsBarrier(jobID, 0); err != nil {
		return machineJobStats{}, m.jobFail(jr, err)
	}
	t0 := time.Now()
	taskClock := reg.Clock()

	if !emptySkip {
		jr.wg.Add(len(m.workers))
		for _, w := range m.workers {
			w.jobCh <- jr
		}
		jr.wg.Wait()
	}
	taskNS := time.Since(t0).Nanoseconds()
	reg.Span(m.id, obs.WorkerMain, obs.SpanTaskPhase, jobID, taskClock, 0)

	// Workers unwound on failure without an error return path; the job
	// runtime carries the root cause.
	if err := jr.Err(); err != nil {
		return machineJobStats{}, err
	}

	// Built frontiers finalize now: kernel activations (Ctx.Activate) come
	// only from this machine's own workers, so the shard merge is final once
	// the local task phase joined. Write-activations from remote machines may
	// still be in flight — they buffer copier-side and drain into the
	// membership once per allreduce round below, so the converging round's
	// stats are complete.
	for _, bf := range jr.builds {
		bf.finalize()
	}

	if err := m.obsBarrier(jobID, 1); err != nil {
		return machineJobStats{}, m.jobFail(jr, err)
	}

	// Termination detection for buffered remote writes: cumulative sent
	// counts are final once every machine passed the barrier above, so loop
	// until the cluster-wide applied count catches up. The deadline is the
	// fault detector: a write frame lost on the wire would otherwise keep
	// this loop (and hence the whole cluster) spinning forever.
	//
	// Built-frontier stats piggyback on the same allreduce — three extra
	// lanes per Build slot instead of the separate O(V)-scan ReduceI64 the
	// traversal algorithms used for convergence checks. The locals are
	// re-staged each round (the allreduce overwrites the vector with sums),
	// and each round first drains copier-buffered write-activations: loading
	// writesApplied (acquire) before taking the buffer's lock means a round
	// that observes the final applied count also observes every activation
	// those applies buffered, so the converging round's stats are complete.
	var drainDeadline time.Time
	if m.cfg.RequestTimeout > 0 {
		drainDeadline = time.Now().Add(m.cfg.RequestTimeout)
	}
	// Per-machine task-phase times ride the same allreduce as NumMachines
	// additional lanes (each machine contributes only its own lane, so the
	// sums reconstruct the full vector): the load hints steering the next
	// job's steal phase and, accumulated, the repartitioner's telemetry.
	drainClock := reg.Clock()
	nm := m.cfg.NumMachines
	base := 2 + 3*len(jr.builds)
	lanes := base + nm
	// Steal attribution: when this job could be stolen from, 2*nm more lanes
	// ride the allreduce so stolen work is billed to the victim, not the
	// thief. Lane base+nm+i sums, over all thieves, the wall-equivalent time
	// spent on machine i's nodes (per-worker CPU time divided by the worker
	// count — the same conversion taskNS implies for a saturated phase); lane
	// base+2nm+j is machine j's total such time as a thief. Every machine
	// computes the same adjusted totals from the same sums, so the
	// repartitioner's telemetry stays cluster-wide consistent.
	var stolenFor []int64
	var stolenTotal int64
	if jr.steal != nil {
		lanes += 2 * nm
		stolenFor = make([]int64, nm)
		for i := range stolenFor {
			stolenFor[i] = jr.steal.stolenNS[i] / int64(m.cfg.Workers)
			stolenTotal += stolenFor[i]
		}
	}
	vals := make([]int64, lanes)
	var spillDec *wireDec
	if m.spill != nil {
		spillDec = new(wireDec)
	}
	for {
		// Replay the spilled backlog before staging this round's applied
		// count: a round that observes sent == applied has replayed every
		// frame that arrived before it. Frames landing during replay buffer
		// for the next round, which the unchanged sent total forces.
		if m.spill != nil {
			if _, err := m.replaySpill(spillDec); err != nil {
				return machineJobStats{}, m.jobFail(jr, err)
			}
		}
		vals[0], vals[1] = m.writesSent.Load(), m.writesApplied.Load()
		for i, bf := range jr.builds {
			if jr.activate != nil {
				bf.drainRemote()
			}
			vals[2+3*i] = int64(bf.count)
			vals[3+3*i] = bf.outDegSum
			vals[4+3*i] = bf.inDegSum
		}
		for i := base; i < lanes; i++ {
			vals[i] = 0
		}
		vals[base+m.id] = taskNS
		if jr.steal != nil {
			copy(vals[base+nm:base+2*nm], stolenFor)
			vals[base+2*nm+m.id] = stolenTotal
		}
		if err := m.col.AllReduceI64(vals, reduce.Sum); err != nil {
			return machineJobStats{}, m.jobFail(jr, err)
		}
		if vals[0] == vals[1] {
			break
		}
		if err := jr.Err(); err != nil {
			return machineJobStats{}, err
		}
		if !drainDeadline.IsZero() && time.Now().After(drainDeadline) {
			return machineJobStats{}, m.jobFail(jr, fmt.Errorf("core: machine %d: write drain timed out after %v (sent=%d applied=%d)", m.id, m.cfg.RequestTimeout, vals[0], vals[1]))
		}
		runtime.Gosched()
	}
	if len(m.loadHints) != nm {
		m.loadHints = make([]int64, nm)
		m.loadTotals = make([]int64, nm)
	}
	// loadHints stay raw: the steal phase wants observed wall times (who is
	// the straggler right now). loadTotals get the attribution correction —
	// time thieves spent on machine i's nodes moves from the thieves' columns
	// to i's — clamped at zero since the conversion is an estimate.
	copy(m.loadHints, vals[base:base+nm])
	for i := 0; i < nm; i++ {
		adj := vals[base+i]
		if jr.steal != nil {
			adj += vals[base+nm+i] - vals[base+2*nm+i]
			if adj < 0 {
				adj = 0
			}
		}
		m.loadTotals[i] += adj
	}
	reg.Span(m.id, obs.WorkerMain, obs.SpanWriteDrain, jobID, drainClock, 0)

	if numGhost > 0 && len(spec.WriteProps) > 0 {
		mergeClock := reg.Clock()
		if err := m.mergeGhostWrites(jr); err != nil {
			return machineJobStats{}, m.jobFail(jr, err)
		}
		reg.Span(m.id, obs.WorkerMain, obs.SpanGhostMerge, jobID, mergeClock, 0)
	}
	total := time.Since(t0)

	// Breakdown (Figure 6c) from per-worker end times, folded into a single
	// Min-allreduce: min worker end (fully-parallel boundary), min machine
	// end (inter-machine boundary), and -max machine end (job end). A
	// machine that skipped dispatch contributes zero (its workers' end times
	// are stale from an earlier job).
	eMin, eMax := int64(1<<62), int64(0)
	if emptySkip {
		eMin = 0
	} else {
		for _, w := range m.workers {
			d := w.endTime.Sub(t0).Nanoseconds()
			if d < eMin {
				eMin = d
			}
			if d > eMax {
				eMax = d
			}
		}
	}
	tv := []int64{eMin, eMax, -eMax}
	if err := m.col.AllReduceI64(tv, reduce.Min); err != nil {
		return machineJobStats{}, m.jobFail(jr, err)
	}
	fully, minMachineEnd, jobEnd := tv[0], tv[1], -tv[2]
	st := machineJobStats{duration: total}
	if n := len(jr.builds); n > 0 {
		st.frontiers = make([]FrontierStats, n)
		for i := range st.frontiers {
			st.frontiers[i] = FrontierStats{Count: vals[2+3*i], OutDeg: vals[3+3*i], InDeg: vals[4+3*i]}
		}
	}
	st.breakdown = Breakdown{
		FullyParallel: time.Duration(fully),
		IntraMachine:  time.Duration(minMachineEnd - fully),
		InterMachine:  time.Duration(jobEnd - minMachineEnd),
		Sync:          total - time.Duration(jobEnd),
	}
	return st, nil
}

// syncGhostRead refreshes every ghost copy of property p from its owner
// (paper §3.3: "for properties that are to be read in the parallel region,
// PGX.D copies the original values into the ghost nodes prior to the
// execution step"). Implemented as a chunked sum-allreduce in which only the
// owner contributes a non-identity value.
func (m *Machine) syncGhostRead(p PropID) error {
	col := m.cols[p]
	ng := m.store.ghosts.Len()
	maxVals := (m.cfg.BufferSize - comm.HeaderSize) / 8
	for base := 0; base < ng; base += maxVals {
		n := ng - base
		if n > maxVals {
			n = maxVals
		}
		switch col.kind {
		case KindF64:
			vals := m.scratchF64[:0]
			for i := 0; i < n; i++ {
				v := 0.0
				if own := m.ghostOwned[base+i]; own >= 0 {
					v = col.getF64(int(own))
				}
				vals = append(vals, v)
			}
			m.scratchF64 = vals
			if err := m.col.AllReduceF64(vals, reduce.Sum); err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				col.setF64(col.numLocal+base+i, vals[i])
			}
		case KindI64:
			vals := m.scratchI64[:0]
			for i := 0; i < n; i++ {
				v := int64(0)
				if own := m.ghostOwned[base+i]; own >= 0 {
					v = col.getI64(int(own))
				}
				vals = append(vals, v)
			}
			m.scratchI64 = vals
			if err := m.col.AllReduceI64(vals, reduce.Sum); err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				col.setI64(col.numLocal+base+i, vals[i])
			}
		}
	}
	return nil
}

// mergeGhostWrites performs the two-stage ghost reduction of §3.3: "first
// between cores and then between machines". Stage one folds each worker's
// private ghost segment into the machine-level ghost copy; stage two
// combines machine partials with an op-allreduce and lets each owner reduce
// the combined partial into the original node's value.
func (m *Machine) mergeGhostWrites(jr *jobRuntime) error {
	ng := m.store.ghosts.Len()
	maxVals := (m.cfg.BufferSize - comm.HeaderSize) / 8
	for _, ws := range jr.spec.WriteProps {
		if ws.ActivateInto > 0 {
			continue // bypassed ghost accumulation; nothing to merge
		}
		col := m.cols[ws.Prop]
		if len(jr.privProps) > 0 {
			for _, w := range m.workers {
				seg := w.privSeg[ws.Prop]
				if seg == nil {
					continue
				}
				for s := 0; s < ng; s++ {
					col.store(col.numLocal+s, col.mergeWords(ws.Op, col.load(col.numLocal+s), seg[s]))
				}
			}
		}
		for base := 0; base < ng; base += maxVals {
			n := ng - base
			if n > maxVals {
				n = maxVals
			}
			switch col.kind {
			case KindF64:
				vals := m.scratchF64[:0]
				for i := 0; i < n; i++ {
					vals = append(vals, col.getF64(col.numLocal+base+i))
				}
				m.scratchF64 = vals
				if err := m.col.AllReduceF64(vals, ws.Op); err != nil {
					return err
				}
				for i := 0; i < n; i++ {
					if own := m.ghostOwned[base+i]; own >= 0 {
						col.applyWord(int(own), ws.Op, WordF64(vals[i]))
					}
				}
			case KindI64:
				vals := m.scratchI64[:0]
				for i := 0; i < n; i++ {
					vals = append(vals, col.getI64(col.numLocal+base+i))
				}
				m.scratchI64 = vals
				if err := m.col.AllReduceI64(vals, ws.Op); err != nil {
					return err
				}
				for i := 0; i < n; i++ {
					if own := m.ghostOwned[base+i]; own >= 0 {
						col.applyWord(int(own), ws.Op, WordI64(vals[i]))
					}
				}
			}
		}
	}
	return nil
}

// Call invokes registered RMI method on machine dst from this machine's
// main goroutine (sequential region) and returns the response payload.
func (m *Machine) Call(dst int, method uint32, payload []byte) ([]byte, error) {
	buf := m.ctrlPool.Acquire()
	if len(payload) > buf.Room() {
		buf.Release()
		return nil, fmt.Errorf("core: RMI payload of %d bytes exceeds buffer size", len(payload))
	}
	buf.Reset(comm.Header{
		Type:   comm.MsgRMIReq,
		Worker: comm.CtrlWorker,
		Src:    uint16(m.id),
		Count:  1,
		Aux:    uint64(method) << 32,
	})
	buf.AppendBytes(payload)
	if err := m.ep.Send(dst, buf); err != nil {
		return nil, err
	}
	var timeoutCh <-chan time.Time
	if d := m.cfg.RequestTimeout; d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		timeoutCh = t.C
	}
	select {
	case resp, ok := <-m.router.RMIResp():
		if !ok {
			return nil, fmt.Errorf("core: machine %d shut down during RMI", m.id)
		}
		out := make([]byte, len(resp.Payload()))
		copy(out, resp.Payload())
		resp.Release()
		return out, nil
	case <-timeoutCh:
		return nil, fmt.Errorf("core: machine %d: RMI to machine %d timed out after %v", m.id, dst, m.cfg.RequestTimeout)
	}
}

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
	drain := func(ch <-chan *comm.Buffer) {
		for {
			select {
			case buf, ok := <-ch:
				if !ok {
					return
				}
				buf.Release()
				continue
			default:
			}
			break
		}
	}
	drain(m.router.Ctrl())
	drain(m.router.RMIResp())
}

// shutdown stops the workers, copiers, and poller. Outstanding frames are
// drained and returned to their pools.
func (m *Machine) shutdown() {
	for _, w := range m.workers {
		close(w.jobCh)
	}
	m.router.Shutdown()
	m.copierWG.Wait()
	m.spill.reset()
	m.releaseCols()
}
