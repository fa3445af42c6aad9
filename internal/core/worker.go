package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/reduce"
	"repro/internal/store"
)

// worker is one RTC worker goroutine (paper §3.2). It claims edge-balanced
// chunks of nodes from the job's shared chunk counter, hands each chunk to the
// job's kernel in one call with its Cursor over the chunk's rows or nodes,
// buffers remote reads/writes per destination machine, and — when responses
// arrive on its response queue — continues the originating tasks via
// ReadDone, always on this same goroutine ("a task is always executed by
// the same single thread, [so] there is no need to protect private fields
// of a task object with locks").
type worker struct {
	m  *Machine
	id int

	jobCh  chan *jobRuntime
	respCh <-chan *comm.Buffer

	// Per-destination partially filled request messages, lazily acquired.
	readBufs  []*comm.Buffer
	writeBufs []*comm.Buffer
	// sentTo[d] counts the write records flushed toward machine d in the
	// current job (newJobRuntime zeroes it), for the drain's owed lanes.
	sentTo []int64

	// The paper's side data structures (§3.2): for each in-flight read
	// message, the ordered log of (node, aux) records; keyed by the
	// message's sequence number because copiers on the remote machine may
	// answer out of order.
	sides   map[uint32][]sideRec
	curSide [][]sideRec
	seq     uint32

	// outstanding counts in-flight request frames awaiting a response.
	outstanding int

	// fetching is set while the worker fills the job's replicas (prefetch):
	// every read response then carries tail words, not continuation values.
	// folded counts the remote writes reduced into this worker's accumulators
	// (accum.go) since its last flushAccum.
	fetching bool
	folded   int64

	// sideFree recycles side-structure slices. Sides always return to the
	// worker that created them (responses route back to the same worker), so
	// no synchronization is needed.
	sideFree [][]sideRec

	// payloadFree recycles payload scratch buffers (see processResponse).
	payloadFree [][]byte

	// cols caches the machine's property columns for the duration of a job,
	// shortening the per-edge access path.
	cols []*column

	ctx Ctx
	job *jobRuntime

	// wrs are the write handles the worker has resolved, by property
	// (Ctx.Writer): once per job and property, not once per row or edge.
	wrs []Writer

	// cur is the cursor the job's kernel walks each chunk with. A worker field
	// rather than a local: nothing escapes through the kernel call, and
	// abortCleanup can release its store cursors after an unwind mid-chunk.
	cur Cursor

	// reg is the observability registry (nil when off). rttStart maps an
	// in-flight request seq to its flush Clock so processResponse can record
	// the remote-read round trip; allocated only when reg is attached.
	reg      *obs.Registry
	rttStart map[uint32]int64

	// endTime is when this worker finished its last task of the current job
	// (including continuations) — the raw data behind Figure 6c.
	endTime time.Time
}

// sideRec is one entry of the side structure: enough to restore the task
// context when its value arrives. The i-th record's value is the response's
// i-th word.
type sideRec struct {
	node uint32
	aux  uint64
}

const (
	readRecSize  = 8  // prop(16) | offset(32) packed into a u64
	writeRecSize = 16 // prop(16)|op(8)|offset(32) word + value word
)

func newWorker(m *Machine, id int) *worker {
	w := &worker{
		m:         m,
		id:        id,
		jobCh:     make(chan *jobRuntime, 1),
		respCh:    m.router.WorkerResp(id),
		readBufs:  make([]*comm.Buffer, m.cfg.NumMachines),
		writeBufs: make([]*comm.Buffer, m.cfg.NumMachines),
		sentTo:    make([]int64, m.cfg.NumMachines),
		sides:     make(map[uint32][]sideRec),
		curSide:   make([][]sideRec, m.cfg.NumMachines),
		reg:       m.cfg.Obs,
	}
	if w.reg != nil {
		w.rttStart = make(map[uint32]int64)
	}
	w.ctx.w = w
	w.cur.c = &w.ctx
	return w
}

// loop is the persistent worker goroutine body: workers are created once at
// startup (paper: "a set of worker threads is initialized by the Task
// Manager at system start up") and receive one jobRuntime per parallel
// region.
func (w *worker) loop() {
	for jr := range w.jobCh {
		w.runJob(jr)
		jr.wg.Done()
	}
}

// abortUnwind is the sentinel the worker panics with to unwind out of
// arbitrarily nested task callbacks when its job aborts. Task callbacks
// cannot return errors, so this is the only way to get from deep inside
// RunNodes/RunRows/ReadDone back to runJob's frame; the deferred recover there is
// the sole handler, and any other panic value is re-raised untouched.
type abortUnwind struct{}

// fail records err as the job's root cause (first error wins, peers are
// notified) and unwinds this worker out of the job. Never returns.
func (w *worker) fail(err error) {
	w.m.abortJob(w.job, w.job.id.Load(), err)
	panic(abortUnwind{})
}

// unwind exits the job without contributing an error — used when the worker
// merely observes an abort someone else initiated. Never returns.
func (w *worker) unwind() {
	panic(abortUnwind{})
}

// abortCleanup restores the worker's invariants after an abort unwound it
// mid-job: partial request messages are released back to their pool, side
// structures recycled — a late response to one carries the aborted job's
// section and is dropped on arrival — and per-job state is reset so the next
// job starts clean. Runs on the worker goroutine (from runJob's recover).
func (w *worker) abortCleanup() {
	for d := range w.readBufs {
		if buf := w.readBufs[d]; buf != nil {
			buf.Release()
			w.readBufs[d] = nil
		}
		if buf := w.writeBufs[d]; buf != nil {
			buf.Release()
			w.writeBufs[d] = nil
		}
		if side := w.curSide[d]; side != nil {
			w.sideRecycle(side)
			w.curSide[d] = nil
		}
	}
	for seq, side := range w.sides {
		w.sideRecycle(side)
		delete(w.sides, seq)
	}
	w.outstanding = 0
	w.cur.rd.release()
	w.folded = 0
	if w.rttStart != nil {
		clear(w.rttStart) // no RTT to record for a request of a dead job
	}
	w.endTime = time.Now()
	w.job = nil
}

func (w *worker) runJob(jr *jobRuntime) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(abortUnwind); !ok {
				panic(r) // a real bug, not a job abort — keep crashing
			}
			w.abortCleanup()
		}
	}()
	w.job = jr
	w.cols = w.m.cols
	if len(w.wrs) < len(w.cols) {
		w.wrs = make([]Writer, len(w.cols))
	}
	if jr.cursors {
		w.cur.rd.open(jr, w.m.id)
	}
	if jr.mirrorSet != nil {
		w.prefetch(jr)
	}
	if jr.accumulate {
		for _, ws := range jr.spec.WriteProps {
			w.cols[ws.Prop].ensureAcc(w.id, ws.Op, jr.id.Load(), len(w.m.store.remote.addr))
		}
	}

	for {
		chunkIdx := int(jr.cursor.Add(1)) - 1
		if chunkIdx >= len(jr.chunks) {
			break
		}
		if jr.aborted() {
			w.unwind()
		}
		w.runChunk(jr, jr.chunks[chunkIdx])
		// Opportunistically run continuations between chunks so response
		// queues and buffer pools keep draining while we still have tasks.
		w.drainResponsesSafe()
	}

	w.awaitReads(jr)
	if jr.accumulate {
		w.flushAccum(jr)
	}
	if len(w.sides) != 0 {
		// Bookkeeping broke (outstanding hit zero with side structures still
		// registered): fail the job rather than crash — a response that does
		// show up later carries this job's section and is dropped.
		w.fail(fmt.Errorf("core: machine %d worker %d finished job with %d dangling side structures", w.m.id, w.id, len(w.sides)))
	}
	w.endTime = time.Now()
	w.job = nil
}

// awaitReads runs when the worker has nothing left to issue — its task list
// or its share of a prefetch: flush partial messages, then wait for and run
// all continuations. Continuations may buffer further requests, so flushing
// repeats before every blocking wait.
func (w *worker) awaitReads(jr *jobRuntime) {
	w.flushAll()
	for w.outstanding > 0 {
		if jr.aborted() {
			w.unwind()
		}
		buf := w.awaitResponse()
		w.processResponse(buf)
		w.drainResponses()
		w.flushAll()
	}
}

// runChunk hands the job's kernel one chunk through the worker's cursor, after
// announcing the chunk's topology reads on an out-of-core load: one call per
// chunk, the kernel's loop stepping the cursor.
func (w *worker) runChunk(jr *jobRuntime, ch partition.Chunk) {
	if jr.ooc != nil {
		jr.claimChunk(w.m.id, ch)
	}
	cur := &w.cur
	cur.open(jr, ch)
	switch {
	case jr.row != nil:
		jr.row.RunRows(&w.ctx, cur)
	case jr.node != nil:
		jr.node.RunNodes(&w.ctx, cur)
	default:
		for cur.Next() {
			jr.nodeRun.Run(&w.ctx)
		}
	}
	if jr.cursors {
		cur.rd.release()
	}
}

// drainResponses runs all currently queued continuations without blocking.
func (w *worker) drainResponses() {
	for {
		select {
		case buf, ok := <-w.respCh:
			if !ok {
				return
			}
			w.processResponse(buf)
		default:
			return
		}
	}
}

// awaitResponse blocks for the next response frame while staying receptive
// to the two ways a faulted job ends: the job's abort channel closing (a
// peer or another local goroutine hit an error) and Config.Timeout
// expiring (a dropped frame or dead peer produces no error, only silence).
// Returns a frame or unwinds; never returns nil.
func (w *worker) awaitResponse() *comm.Buffer {
	var timeoutCh <-chan time.Time
	if d := w.m.cfg.Timeout; d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		timeoutCh = t.C
	}
	select {
	case buf, ok := <-w.respCh:
		if !ok {
			w.fail(fmt.Errorf("core: machine %d worker %d: shutdown while awaiting %d response frame(s)", w.m.id, w.id, w.outstanding))
		}
		return buf
	case <-w.job.abortCh:
		w.unwind()
	case <-timeoutCh:
		w.fail(fmt.Errorf("core: machine %d worker %d: timed out after %v awaiting %d response frame(s)", w.m.id, w.id, w.m.cfg.Timeout, w.outstanding))
	}
	return nil // unreachable: every branch above returns or unwinds
}

// drainResponsesSafe is drainResponses with the context saved and restored:
// continuations run through the worker's single shared Ctx, and callers that
// are mid-task (between chunks, or stalled acquiring a buffer inside a task
// callback) must not observe their Node/Aux clobbered.
func (w *worker) drainResponsesSafe() {
	saved := w.ctx
	w.drainResponses()
	w.ctx = saved
}

// processResponse matches a response frame to its side structure and invokes
// the continuation for each record, in request order (paper §3.2 step 4). A
// response of another section than the job's is a straggler of an aborted
// job, whose side structure went at cleanup: it is released unread. An unknown
// seq of the job's own section fails the job.
//
// The payload is copied out and the frame released BEFORE any continuation
// runs. This ordering is load-bearing for deadlock freedom: continuations
// can block on request-buffer back-pressure (nested acquireReq), and a
// worker must never hold a response buffer while blocked — copiers waiting
// on the response pool are the very thing that recycles the request buffers
// the worker is waiting for.
func (w *worker) processResponse(buf *comm.Buffer) {
	h := buf.Header()
	if frameSection(h) != uint32(w.job.id.Load()) {
		buf.Release()
		return
	}
	seq := uint32(h.Aux)
	side, ok := w.sides[seq]
	if !ok {
		buf.Release()
		w.fail(fmt.Errorf("core: machine %d worker %d: response with unknown seq %d", w.m.id, w.id, seq))
	}
	delete(w.sides, seq)
	w.outstanding--
	if w.rttStart != nil {
		if t, ok := w.rttStart[seq]; ok {
			delete(w.rttStart, seq)
			w.reg.Span(w.m.id, w.id, obs.SpanReadRTT, w.job.id.Load(), t, uint64(h.Src))
			w.reg.Observe(w.m.id, obs.HistReadRTT, time.Duration(w.reg.Clock()-t))
		}
	}
	payload := w.payloadNew(len(buf.Payload()))
	copy(payload, buf.Payload())
	buf.Release()
	defer func() { // also when a refusal below, or a continuation, unwinds the job
		w.sideRecycle(side)
		w.payloadRecycle(payload)
	}()

	ctx := &w.ctx
	switch h.Type {
	case comm.MsgReadResp:
		// The response carries one value word per side record, in request
		// order, and continuations run in that order.
		//
		// Checked before any continuation runs: a truncated frame (wire
		// fault) must surface as a job error, not an index-out-of-range
		// crash halfway through the fan-out.
		if words := len(payload) / 8; len(side) > words {
			w.fail(fmt.Errorf("core: machine %d worker %d: truncated read response (seq %d: %d records, %d words)", w.m.id, w.id, seq, len(side), words))
		}
		if w.fetching { // a prefetch's records name a property's tail words, not nodes
			// Plain: the word is in this worker's share alone, and no row reads it
			// before every share is in (jr.fetched).
			for i, r := range side {
				*plainWord(&w.cols[r.aux].view[r.node]) = leU64(payload[8*i:])
			}
			break
		}
		for i := range side {
			r := &side[i]
			ctx.Node = r.node
			ctx.Aux = r.aux
			w.job.spec.Task.ReadDone(ctx, leU64(payload[8*i:]))
		}
	case comm.MsgRMIResp:
		rt, isRMI := w.job.spec.Task.(RMITask)
		if !isRMI || len(side) == 0 {
			w.fail(fmt.Errorf("core: machine %d worker %d: unexpected RMI response (seq %d)", w.m.id, w.id, seq))
		}
		ctx.Node = side[0].node
		ctx.Aux = side[0].aux
		rt.RMIDone(ctx, payload)
	default:
		w.fail(fmt.Errorf("core: machine %d worker %d: unexpected frame type %v on response queue", w.m.id, w.id, h.Type))
	}
}

// payloadNew returns an n-byte scratch slice. A freelist (not a single
// reusable buffer) because processResponse nests: a continuation stalled on
// back-pressure drains further responses re-entrantly.
func (w *worker) payloadNew(n int) []byte {
	if l := len(w.payloadFree); l > 0 {
		s := w.payloadFree[l-1]
		w.payloadFree = w.payloadFree[:l-1]
		if cap(s) >= n {
			return s[:n]
		}
	}
	// Length n whatever the capacity: processResponse checks a response's
	// records against the words it actually carried.
	return make([]byte, max(n, 256))[:n]
}

func (w *worker) payloadRecycle(p []byte) {
	w.payloadFree = append(w.payloadFree, p)
}

// sideRecycle keeps side slices for reuse to avoid per-message allocation.
func (w *worker) sideRecycle(side []sideRec) {
	w.sideFree = append(w.sideFree, side[:0])
}

// sideNew returns an empty side slice, reusing a recycled one if available.
func (w *worker) sideNew() []sideRec {
	if n := len(w.sideFree); n > 0 {
		s := w.sideFree[n-1]
		w.sideFree = w.sideFree[:n-1]
		return s
	}
	return make([]sideRec, 0, 128)
}

// acquireReq obtains a request buffer, draining responses while stalled.
// Draining here is what makes back-pressure deadlock-free: if this worker
// blocked hard, its response queue would fill, the poller would stall, the
// inbox would fill, remote copiers would block sending to us and stop
// processing (and releasing) the very request frames we are waiting for.
//
// Because continuations run here, the caller must treat acquireReq as a
// re-entrancy point: the worker Ctx is saved/restored, and any per-
// destination buffer slot read before calling must be re-checked after.
func (w *worker) acquireReq() *comm.Buffer {
	pool := w.m.reqPool
	if buf, ok := pool.TryAcquire(); ok {
		return buf
	}
	saved := w.ctx
	defer func() { w.ctx = saved }()
	var timeoutCh <-chan time.Time
	if d := w.m.cfg.Timeout; d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		timeoutCh = t.C
	}
	for {
		// Under back-pressure a stalled worker must not sit on buffers, or
		// all workers could hold every pooled buffer as partials while each
		// waits for one more. Flushing inside the loop matters: the
		// continuations run below can install fresh partials after any
		// earlier flush. Flushed frames return to the pool once remote
		// copiers process them, so the cycle always drains.
		w.flushAll()
		select {
		case buf := <-pool.C():
			pool.NoteAcquired()
			return buf
		case resp, ok := <-w.respCh:
			if !ok {
				w.fail(fmt.Errorf("core: machine %d worker %d: shutdown while acquiring request buffer", w.m.id, w.id))
			}
			w.processResponse(resp)
			if buf, ok := pool.TryAcquire(); ok {
				return buf
			}
		case <-w.job.abortCh:
			w.unwind()
		case <-timeoutCh:
			w.fail(fmt.Errorf("core: machine %d worker %d: timed out after %v acquiring request buffer (%d responses outstanding)", w.m.id, w.id, w.m.cfg.Timeout, w.outstanding))
		}
	}
}

// bufferRead appends a read request toward machine dst (paper §3.2 steps
// 1-3): the 8-byte address record goes into the message, the (node, aux)
// record into the side structure, and a full message is sent immediately.
func (w *worker) bufferRead(dst int, p PropID, offset uint32, node uint32, aux uint64) {
	buf := w.readBufs[dst]
	if buf == nil {
		nb := w.acquireReq()
		// Re-check: a continuation running inside acquireReq may itself have
		// buffered a read toward dst and installed a message already.
		if w.readBufs[dst] != nil {
			nb.Release()
			buf = w.readBufs[dst]
		} else {
			nb.Reset(comm.Header{Type: comm.MsgReadReq, Worker: uint8(w.id), Src: uint16(w.m.id)})
			w.readBufs[dst] = nb
			buf = nb
		}
	}
	buf.AppendU64(uint64(p)<<48 | uint64(offset))
	side := w.curSide[dst]
	if side == nil {
		side = w.sideNew()
	}
	w.curSide[dst] = append(side, sideRec{node: node, aux: aux})
	if buf.Room() < readRecSize {
		w.flushRead(dst)
	}
}

// bufferWrite appends a write (reduction) record toward machine dst.
func (w *worker) bufferWrite(dst int, p PropID, op reduce.Op, offset uint32, word uint64) {
	buf := w.writeBufs[dst]
	if buf == nil {
		nb := w.acquireReq()
		// Re-check as in bufferRead: acquireReq is a re-entrancy point, and a
		// continuation may have installed a message toward dst.
		if w.writeBufs[dst] != nil {
			nb.Release()
			buf = w.writeBufs[dst]
		} else {
			nb.Reset(comm.Header{Type: comm.MsgWriteReq, Worker: uint8(w.id), Src: uint16(w.m.id), Aux: sectionAux(w.job.id.Load())})
			w.writeBufs[dst] = nb
			buf = nb
		}
	}
	buf.AppendU64(uint64(p)<<48 | uint64(op)<<40 | uint64(offset))
	buf.AppendU64(word)
	if buf.Room() < writeRecSize {
		w.flushWrite(dst)
	}
}

// bufferRMI sends one RMI request frame toward machine dst: the method id in
// the record count, the job's section and the seq in Aux.
func (w *worker) bufferRMI(dst int, method uint32, payload []byte, node uint32, aux uint64) {
	buf := w.acquireReq()
	if len(payload) > buf.Room() {
		buf.Release()
		w.fail(fmt.Errorf("core: RMI payload of %d bytes exceeds buffer size", len(payload)))
	}
	w.seq++
	buf.Reset(comm.Header{
		Type:   comm.MsgRMIReq,
		Worker: uint8(w.id),
		Src:    uint16(w.m.id),
		Count:  method,
		Aux:    sectionAux(w.job.id.Load()) | uint64(w.seq),
	})
	buf.AppendBytes(payload)
	w.sides[w.seq] = append(w.sideNew(), sideRec{node: node, aux: aux})
	w.outstanding++
	if w.rttStart != nil {
		w.rttStart[w.seq] = w.reg.Clock()
	}
	w.mustSend(dst, buf)
}

func (w *worker) flushRead(dst int) {
	buf := w.readBufs[dst]
	if buf == nil {
		return
	}
	w.readBufs[dst] = nil
	buf.SetCount(uint32(len(buf.Payload()) / readRecSize))
	w.seq++
	// The response echoes Aux, whose low half matches it to its side structure.
	buf.SetAux(sectionAux(w.job.id.Load()) | uint64(w.seq))
	w.sides[w.seq] = w.curSide[dst]
	w.curSide[dst] = nil
	w.outstanding++
	if w.rttStart != nil {
		w.rttStart[w.seq] = w.reg.Clock()
	}
	w.sendFlushed(dst, buf)
}

func (w *worker) flushWrite(dst int) {
	buf := w.writeBufs[dst]
	if buf == nil {
		return
	}
	w.writeBufs[dst] = nil
	n := len(buf.Payload()) / writeRecSize
	buf.SetCount(uint32(n))
	w.sentTo[dst] += int64(n)
	w.sendFlushed(dst, buf)
}

// sendFlushed ships a flushed request message toward dst and, with a registry
// attached, records the flush.
func (w *worker) sendFlushed(dst int, buf *comm.Buffer) {
	if w.reg == nil {
		w.mustSend(dst, buf)
		return
	}
	t := w.reg.Clock()
	frame := len(buf.Data)
	w.mustSend(dst, buf)
	w.reg.Span(w.m.id, w.id, obs.SpanFlush, w.job.id.Load(), t, uint64(dst)<<48|uint64(frame))
	w.reg.Observe(w.m.id, obs.HistFlush, time.Duration(w.reg.Clock()-t))
	if w.m.serialized {
		// A shim, not a measurement: there is no flush codec, so a payload's
		// wire size is its raw size. benchmark/'s TestTinyWorkloads still
		// requires codec.wire_ratio = wire_bytes / wire_raw_bytes to read > 0
		// over TCP and 0 in process, and benchmark/ may not change with the
		// engine. The next benchmark-archetype PR deletes that metric, these
		// two counters and Machine.serialized together.
		payload := int64(frame - comm.HeaderSize)
		w.reg.Add(w.m.id, obs.CtrWireRawBytes, payload)
		w.reg.Add(w.m.id, obs.CtrWireBytes, payload)
	}
}

// flushAll sends every partially filled message (paper §3.2 step 3: "when
// ... the worker thread has completed all tasks, the message is sent").
func (w *worker) flushAll() {
	for d := range w.readBufs {
		w.flushWrite(d)
		w.flushRead(d)
	}
}

// mustSend ships a frame or fails the job. The transport owns (and on
// failure has already released) the buffer either way, so there is nothing
// to clean up here beyond aborting.
func (w *worker) mustSend(dst int, buf *comm.Buffer) {
	if err := w.m.ep.Send(dst, buf); err != nil {
		w.fail(fmt.Errorf("core: machine %d worker %d send to %d: %w", w.m.id, w.id, dst, err))
	}
}

// jobRuntime is one machine's execution state of the job in flight. A machine
// has one for life (Machine.jr): newJobRuntime resets it for every job, so the
// per-job state lives in the embedded jobPlan, replaced whole at the reset,
// and what outlives a job — the worker join, the job id and the abort latch —
// lives beside it.
type jobRuntime struct {
	jobPlan

	// wg joins the machine's workers at the end of the task phase; it is zero
	// again by then, ready for the next job.
	wg sync.WaitGroup

	// id is the job's number in the cluster's section sequence, which every
	// frame of the job carries (sectionAux), so a machine never serves, answers
	// or aborts the wrong job on a straggler.
	// Atomic, and changed only under abortMu: a copier, the abort watcher or
	// Cancel may hold this runtime from an earlier job's curJob while the
	// reset moves it to the next one, and fail checks the id it was handed
	// against this one before it fails anything.
	id atomic.Uint64
	// abortCh closes when the job fails anywhere (locally or on a peer);
	// workers, collectives, and the machine main goroutine all select on
	// it. abortErr holds the root cause — the first error wins, later ones
	// are dropped. A reset clears abortErr and makes a new abortCh only when
	// an abort has closed the old one; a healthy job hands its channel on.
	abortMu  sync.Mutex
	abortCh  chan struct{}
	abortErr atomic.Pointer[error]

	// buildsBuf and activateBuf back the plan's builds and activate index,
	// so a job that builds or activates allocates neither.
	buildsBuf   []*machineFrontier
	activateBuf []int8
}

// jobPlan is the per-job part of a jobRuntime: set by the reset and the
// phases of Machine.runJob, dropped by the next reset.
type jobPlan struct {
	spec *JobSpec
	// spec.Task in the form the iterator dispatches (JobSpec.validate checks
	// it has it): row on the edge iterators, node — or nodeRun, for a kernel
	// in the per-node form — on IterNodes; the others are nil.
	row     RowTask
	node    NodeTask
	nodeRun runTask
	chunks  []partition.Chunk
	// views are the orientations an edge iterator walks per node, in dispatch
	// order (two for IterBothEdges, none on a node iterator): the iterViews
	// range of the store's views for spec.Iter.
	views []orientView

	// Frontier-sourced iteration state (spec.Source): exactly one of
	// frontList (sparse: chunks index the sorted member list) and frontBits
	// (dense: node-id chunks filtered through the bitmap) is set, or neither
	// for a full scan. builds are this machine's partitions of the
	// frontiers the job populates via Ctx.Activate, in spec.Build order.
	// activate maps PropID → build-slot for WriteSpec.ActivateInto specs
	// (-1 elsewhere); nil when the job has none.
	frontList []uint32
	frontBits []uint64
	builds    []*machineFrontier
	activate  []int8

	// mirrorSet is non-nil when the job is mirrored (Machine.mirrorJob): before
	// its first row every worker fetches its share of the iterator's members of
	// the remote set into each read property's column tail, and the last of the
	// fetching workers to finish closes fetched. accumulate is set when the
	// job's remote writes accumulate (accum.go): a reduction into a replica
	// folds into the worker's private accumulator and ships when the worker has
	// run dry.
	mirrorSet  *iterSet
	accumulate bool
	fetching   atomic.Int32
	fetched    chan struct{}

	// ooc is the machine's store-file load (nil for in-memory loads and node
	// iterators): each claimed chunk's rows are announced to its residency
	// window, and when it is compressed (cursors) the rows are read through
	// rowReaders, the views having no refs.
	ooc     *store.Load
	cursors bool

	// Locals of the machine main goroutine's schedule (Machine.runJob), set by
	// the phase named: emptySkip (newJobRuntime) — the local frontier is empty,
	// so workers are not dispatched, though every collective still runs; t0,
	// endMin and endMax (taskPhase) — the task phase's start and, from t0,
	// when its first and last worker ran dry; lanes (drainWrites) — the
	// termination vector.
	emptySkip      bool
	t0             time.Time
	endMin, endMax int64
	lanes          drainLanes

	cursor atomic.Int64
}

// reset moves the latch to job id: a failure handed an earlier id no longer
// lands, and an abort's closed channel is replaced. Main goroutine only,
// between jobs.
func (jr *jobRuntime) reset(id uint64) {
	jr.abortMu.Lock()
	defer jr.abortMu.Unlock()
	jr.id.Store(id)
	if jr.abortErr.Load() != nil {
		jr.abortErr.Store(nil)
		jr.abortCh = make(chan struct{})
	}
}

// fail records err as job id's root cause and releases everyone selecting on
// abortCh, unless the runtime has moved on to another job or the job already
// failed. Reports whether this call was the first (the winner is the one that
// must announce the abort to peers).
func (jr *jobRuntime) fail(id uint64, err error) bool {
	jr.abortMu.Lock()
	defer jr.abortMu.Unlock()
	if jr.id.Load() != id || jr.abortErr.Load() != nil {
		return false
	}
	jr.abortErr.Store(&err)
	close(jr.abortCh)
	return true
}

// Err returns the job's root-cause error, or nil while the job is healthy.
func (jr *jobRuntime) Err() error {
	if p := jr.abortErr.Load(); p != nil {
		return *p
	}
	return nil
}

// aborted reports whether the job has failed, without blocking.
func (jr *jobRuntime) aborted() bool {
	select {
	case <-jr.abortCh:
		return true
	default:
		return false
	}
}

// sectionAux is the high half of every frame's Aux: the SPMD section that sent
// it, for a job its id (Cluster.sections). Each receiver checks it once, on
// arrival, and drops a frame of another section: sections do not overlap, so
// it can only be a straggler of an aborted one.
func sectionAux(id uint64) uint64 { return id << 32 }

// frameSection reads the section back from h.
func frameSection(h comm.Header) uint32 { return uint32(h.Aux >> 32) }

// leU64 decodes a little-endian uint64 at the start of p.
func leU64(p []byte) uint64 {
	return binary.LittleEndian.Uint64(p)
}
