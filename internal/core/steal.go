package core

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/partition"
)

// Cross-machine chunk stealing (MsgSteal / MsgStealGrant).
//
// A skewed partition makes every superstep as slow as its most loaded
// machine: the other machines drain their chunk cursors and then idle in the
// post-task barrier. With Config.EnableWorkStealing, a worker that finds the
// local cursor exhausted instead asks the most loaded peer (by last job's
// task-phase time, piggybacked on the termination allreduce) for work. A
// copier on the victim claims whole chunks from the job's shared cursor —
// the same cursor its own workers race on, so ownership transfer is just a
// fetch-add — and answers with a grant frame carrying everything the thief
// needs to run those nodes locally: per-node adjacency with every neighbor
// ref re-encoded into the thief's frame, edge weights when the job is
// weighted, and a snapshot of the StealSpec.Own property values. The thief
// executes the nodes through the ordinary row dispatch; neighbor reductions
// flow through WriteRef exactly as if a victim worker had issued them, so
// the existing write-drain termination protocol accounts for stolen work
// with no new collective.
//
// Two protocol details carry the correctness weight:
//
//   - Residual chunks. A claimed chunk may not fit the grant frame; the
//     unpacked remainder goes on the job's residual queue and is executed by
//     the victim's own workers. The stealsInFlight counter is incremented
//     before the copier's first cursor claim and decremented only after any
//     residual push, so a victim worker may leave the task phase only once
//     it has seen (in order) its own cursor claim fail, stealsInFlight == 0,
//     and an empty residual queue — at that point no grant-in-progress can
//     still return work.
//
//   - Abort safety. A steal request registers its seq in the worker's side
//     map like a read does, so an abort parks it in the stale set and a late
//     grant is recognized and dropped instead of poisoning the next job. A
//     dropped steal or grant frame surfaces through the ordinary
//     RequestTimeout detector and aborts the job, never the process.

// stealingOn reports whether this configuration steals at all; per-job
// eligibility additionally requires the spec to declare a StealSpec.
func (c *Config) stealingOn() bool {
	return c.EnableWorkStealing && c.NumMachines > 1
}

// stealRuntime is the per-job work-stealing state on one machine.
type stealRuntime struct {
	// inFlight counts copiers currently packing a grant. See the ordering
	// contract in the package comment above: incremented before the first
	// cursor claim, decremented after any residual push.
	inFlight atomic.Int64

	mu       sync.Mutex
	residual []partition.Chunk

	// stolenNS[victim] accumulates the nanoseconds this machine's workers
	// spent executing nodes stolen from victim (thief-side CPU time, summed
	// across workers via atomic adds). The write-drain allreduce ships it so
	// every machine can bill stolen work back to the victim's partition in
	// loadTotals — the repartitioner must see ownership cost, not who
	// happened to execute it. Read by the machine main goroutine after
	// wg.Wait, which orders the workers' final adds.
	stolenNS []int64
}

func (sr *stealRuntime) pushResidual(ch partition.Chunk) {
	sr.mu.Lock()
	sr.residual = append(sr.residual, ch)
	sr.mu.Unlock()
}

func (sr *stealRuntime) popResidual() (partition.Chunk, bool) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	n := len(sr.residual)
	if n == 0 {
		return partition.Chunk{}, false
	}
	ch := sr.residual[n-1]
	sr.residual = sr.residual[:n-1]
	return ch, true
}

func (sr *stealRuntime) hasResidual() bool {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	return len(sr.residual) > 0
}

// --- victim side (copier) ---------------------------------------------------

// serveSteal answers one MsgSteal request: claim chunks from the current
// job's cursor, pack them into a grant, and send it. Any mismatch — no job,
// a different job id, a job without a StealSpec, or an aborted job — yields
// an empty grant so the thief moves on instead of timing out.
func (m *Machine) serveSteal(h comm.Header, payload []byte) error {
	thief := int(h.Src)
	if thief < 0 || thief >= m.cfg.NumMachines || thief == m.id {
		return fmt.Errorf("steal request from invalid machine %d", h.Src)
	}
	if len(payload) < 8 {
		return fmt.Errorf("truncated steal request from %d", h.Src)
	}
	jobID := leU64(payload)
	resp := m.respPool.Acquire()
	resp.Reset(comm.Header{
		Type:   comm.MsgStealGrant,
		Worker: h.Worker,
		Src:    uint16(m.id),
		Aux:    h.Aux,
	})
	var nodes int
	if jr := m.curJob.Load(); jr != nil && jr.id == jobID && jr.steal != nil && !jr.aborted() {
		sr := jr.steal
		sr.inFlight.Add(1)
		resp.AppendU64(0) // remaining-backlog placeholder, patched below
		nodes = m.packGrant(jr, thief, resp)
		sr.inFlight.Add(-1)
		remaining := int64(len(jr.chunks)) - jr.cursor.Load()
		if remaining < 0 {
			remaining = 0
		}
		putU64(resp.Payload()[:8], uint64(remaining))
		if nodes > 0 {
			m.cfg.Obs.Add(m.id, obs.CtrStealGrants, 1)
		}
	} else {
		resp.AppendU64(0) // remaining-backlog hint of an empty grant
	}
	resp.SetCount(uint32(nodes))
	if err := m.ep.Send(thief, resp); err != nil {
		return fmt.Errorf("steal grant to %d: %w", thief, err)
	}
	return nil
}

// packGrant claims chunks from jr's shared cursor and packs their nodes into
// resp until the frame is full or the cursor runs dry, returning how many
// nodes were packed. The caller has already appended the 8-byte
// remaining-backlog placeholder. Per-node wire layout (all u64 LE):
//
//	word 0   victim-local node id (low 32) | primary edge count m1 (high 32)
//	word 1   full out-degree (low 32) | full in-degree (high 32)
//	word 2   secondary edge count m2           — IterBothEdges only
//	words    StealSpec.Own snapshot values     — len(Own) words
//	words    m1 neighbor refs in the thief's frame
//	words    m1 edge weights                   — weighted graphs only
//	words    m2 refs [+ m2 weights]            — IterBothEdges only
func (m *Machine) packGrant(jr *jobRuntime, thief int, resp *comm.Buffer) int {
	spec := jr.spec
	views := jr.views
	weighted := views[0].weights != nil
	own := spec.Steal.Own
	st := m.store
	// The copier reads rows through readers of its own; a block that fails to
	// decode aborts the job directly (no worker to unwind) and ends the grant
	// like a full frame — what the chunk still held is moot, the job is dead.
	rd := jr.readers(m.id)
	defer rd.release()
	nodes := 0
	packNode := func(node uint32) bool { // false ⇒ frame full
		var rows [2][]int64
		words := 2 + len(own)
		if len(views) == 2 {
			words++
		}
		for i := range views {
			var err error
			if rows[i], err = rd[i].refs(node); err != nil {
				m.abortJob(jr, err)
				return false
			}
			words += len(rows[i])
			if weighted {
				words += len(rows[i])
			}
		}
		if resp.Room() < 8*words {
			return false
		}
		resp.AppendU64(uint64(node) | uint64(uint32(len(rows[0])))<<32)
		resp.AppendU64(uint64(uint32(st.outDeg[node])) | uint64(uint32(st.inDeg[node]))<<32)
		if len(views) == 2 {
			resp.AppendU64(uint64(len(rows[1])))
		}
		for _, p := range own {
			resp.AppendU64(m.cols[p].load(int(node)))
		}
		for i, v := range views {
			for _, ref := range rows[i] {
				resp.AppendU64(uint64(st.refFor(thief, ref)))
			}
			if weighted {
				for e := v.rows[node]; e < v.rows[node+1]; e++ {
					resp.AppendU64(math.Float64bits(v.weights[e]))
				}
			}
		}
		nodes++
		return true
	}
	for {
		chunkIdx := int(jr.cursor.Add(1)) - 1
		if chunkIdx >= len(jr.chunks) {
			return nodes
		}
		// Expand the claimed chunk exactly as a worker would (worker.runChunk),
		// announcing its reads first. When the frame fills mid-chunk the
		// unpacked remainder goes back on the residual queue in the same index
		// space the chunk used, and the grant stops.
		ch := jr.chunks[chunkIdx]
		jr.claimChunk(m.id, ch)
		if at := jr.eachNode(ch, packNode); at < ch.End {
			jr.steal.pushResidual(partition.Chunk{Begin: at, End: ch.End})
			m.cfg.Obs.Add(m.id, obs.CtrStealResidual, 1)
			return nodes
		}
	}
}

// refFor re-encodes one of this machine's neighbor refs into peer's ref
// frame: what the peer owns becomes its local index, what this machine owns
// a remote ref back at it, and anything else is remote for both alike.
func (s *localStore) refFor(peer int, ref int64) int64 {
	if ref >= 0 {
		return packRemote(s.me, uint32(ref))
	}
	if mach, off := unpackRemote(ref); mach == peer {
		return int64(off)
	}
	return ref
}

// --- thief side (worker) ----------------------------------------------------

// stolenNode is the decoded state of one granted node, reused across nodes.
// While it is installed as Ctx.stolen, the own-node accessors answer from
// the snapshot and degree fields instead of this machine's columns.
type stolenNode struct {
	victim int
	node   uint32 // victim-local id
	outDeg int64
	inDeg  int64
	snap   []uint64 // StealSpec.Own values, in Own order
	rows   [2]Row   // per job orientation; refs already in this machine's frame
}

// stealOrder returns the peer machines worth stealing from, most loaded
// first. A peer qualifies as a victim only on structural skew: the layout
// gives it over 1.25x this machine's degree mass, so it is the straggler of
// every job on this cut. On a balanced cut the sweep is empty — whoever
// drains its cursor first would otherwise raid peers for work they were
// about to do anyway, paying steal protocol and remote-write overhead for
// nothing. Task-phase wall times (the piggybacked load hints) order the
// qualifying victims but deliberately never gate them: wall time measures
// scheduling and wire luck as much as load, and once stealing itself
// flattens the phase the hints converge while the ownership skew persists.
// loadHints is written only by the machine's main goroutine between jobs and
// the worker dispatch channel orders that write before this read; degMass is
// fixed at load time.
func (m *Machine) stealOrder() []int {
	order := make([]int, 0, m.cfg.NumMachines-1)
	hints := m.loadHints
	mass := m.degMass
	for i := 0; i < m.cfg.NumMachines; i++ {
		if i == m.id {
			continue
		}
		if mass == nil || mass[i] > mass[m.id]+mass[m.id]/4 {
			order = append(order, i)
		}
	}
	if hints != nil {
		sort.Slice(order, func(a, b int) bool { return hints[order[a]] > hints[order[b]] })
	} else if mass != nil {
		sort.Slice(order, func(a, b int) bool { return mass[order[a]] > mass[order[b]] })
	}
	return order
}

// stealPhase runs between a worker's cursor exhaustion and its final flush.
// The first half is victim-side: absorb residual chunks until no grant is in
// flight and the queue is empty (see the ordering contract on stealRuntime).
// The second half is thief-side: sweep the peers, most loaded first, and
// execute whatever they grant until everyone reports dry.
func (w *worker) stealPhase(jr *jobRuntime, ctx *Ctx) {
	sr := jr.steal
	for {
		if ch, ok := sr.popResidual(); ok {
			w.runChunk(jr, ctx, ch)
			w.drainResponsesSafe()
			continue
		}
		if sr.inFlight.Load() == 0 {
			if !sr.hasResidual() {
				break
			}
			continue // a grant finished packing between the pop and the load
		}
		if jr.aborted() {
			w.unwind()
		}
		w.drainResponsesSafe()
		runtime.Gosched()
	}
	for _, victim := range w.m.stealOrder() {
		for {
			if jr.aborted() {
				w.unwind()
			}
			stolen, left := w.stealFrom(jr, ctx, victim)
			// An empty grant alone does not mean the victim is dry: when the
			// claimed chunk's head node is too big for one frame the victim
			// diverts it to its residual queue and grants nothing, yet may
			// still hold hundreds of stealable chunks behind it. Keep asking
			// while the victim reports unclaimed backlog — every request
			// advances its cursor by at least one chunk, so this terminates.
			if stolen == 0 && left == 0 {
				break // victim is dry; try the next peer
			}
		}
	}
}

// stealFrom asks victim for work and executes a non-empty grant. It returns
// the number of nodes stolen plus the victim's remaining-backlog hint (its
// count of still-unclaimed chunks at grant time): 0 nodes with a non-zero
// hint means the claimed chunk could not be packed into one frame, not that
// the victim is out of work.
func (w *worker) stealFrom(jr *jobRuntime, ctx *Ctx, victim int) (int, int64) {
	buf := w.acquireReq()
	w.seq++
	seq := w.seq
	buf.Reset(comm.Header{
		Type:   comm.MsgSteal,
		Worker: uint8(w.id),
		Src:    uint16(w.m.id),
		Count:  1,
		Aux:    uint64(seq),
	})
	buf.AppendU64(jr.id)
	// Register the seq like a read's: if the job aborts mid-flight the seq
	// moves to the stale set and a late grant is dropped, not fatal.
	w.sides[seq] = w.sideNew()
	w.outstanding++
	w.reg.Add(w.m.id, obs.CtrStealRequests, 1)
	w.mustSend(victim, buf)
	var t int64
	if w.reg != nil {
		t = w.reg.Clock()
	}

	var payload []byte
	count := 0
	for payload == nil {
		rb := w.awaitResponse()
		if h := rb.Header(); h.Type == comm.MsgStealGrant {
			gseq := uint32(h.Aux)
			if gseq != seq {
				rb.Release()
				if _, wasStale := w.stale[gseq]; wasStale {
					delete(w.stale, gseq) // straggler grant of an aborted job
					continue
				}
				w.fail(fmt.Errorf("core: machine %d worker %d: steal grant with unexpected seq %d (want %d)", w.m.id, w.id, gseq, seq))
			}
			side := w.sides[seq]
			delete(w.sides, seq)
			w.sideRecycle(side)
			w.outstanding--
			count = int(h.Count)
			payload = w.payloadNew(len(rb.Payload()))
			copy(payload, rb.Payload())
			rb.Release()
			continue
		}
		w.processResponse(rb) // an unrelated (possibly stale) response
	}
	var left int64
	if len(payload) >= 8 {
		left = int64(leU64(payload))
	}
	if count == 0 {
		w.payloadRecycle(payload)
		return 0, left
	}
	execStart := time.Now()
	edges, err := w.runStolen(jr, ctx, payload, count, victim)
	atomic.AddInt64(&jr.steal.stolenNS[victim], time.Since(execStart).Nanoseconds())
	w.payloadRecycle(payload)
	if err != nil {
		w.fail(err)
	}
	w.reg.Add(w.m.id, obs.CtrStolenNodes, int64(count))
	w.reg.Add(w.m.id, obs.CtrStolenEdges, edges)
	if w.reg != nil {
		w.reg.Span(w.m.id, w.id, obs.SpanSteal, jr.id, t, uint64(victim)<<48|uint64(count))
	}
	return count, left
}

// runStolen decodes and executes one grant payload (already copied out of
// the frame). Every length and ref is validated before use so a truncated or
// corrupted grant aborts the job instead of crashing the process.
func (w *worker) runStolen(jr *jobRuntime, ctx *Ctx, payload []byte, count, victim int) (int64, error) {
	trunc := func() error {
		return fmt.Errorf("core: machine %d worker %d: truncated steal grant from %d", w.m.id, w.id, victim)
	}
	if len(payload) < 8 {
		return 0, trunc()
	}
	nviews := len(jr.views)
	weighted := jr.views[0].weights != nil
	own := jr.spec.Steal.Own
	sn := &w.stolen
	sn.victim = victim
	numVictim := w.m.store.layout.NumLocal(victim)
	pos := 8 // past the remaining-backlog hint
	var edges int64
	for i := 0; i < count; i++ {
		if len(payload)-pos < 16 {
			return edges, trunc()
		}
		h0 := leU64(payload[pos:])
		h1 := leU64(payload[pos+8:])
		pos += 16
		sn.node = uint32(h0)
		if int(sn.node) >= numVictim {
			return edges, fmt.Errorf("core: machine %d worker %d: steal grant from %d names node %d of %d", w.m.id, w.id, victim, sn.node, numVictim)
		}
		counts := [2]int{int(uint32(h0 >> 32))}
		sn.outDeg = int64(uint32(h1))
		sn.inDeg = int64(uint32(h1 >> 32))
		if nviews == 2 {
			if len(payload)-pos < 8 {
				return edges, trunc()
			}
			counts[1] = int(uint32(leU64(payload[pos:])))
			pos += 8
		}
		words := len(own) + counts[0] + counts[1]
		if weighted {
			words += counts[0] + counts[1]
		}
		if len(payload)-pos < 8*words {
			return edges, trunc()
		}
		sn.snap = sn.snap[:0]
		for range own {
			sn.snap = append(sn.snap, leU64(payload[pos:]))
			pos += 8
		}
		for v := 0; v < nviews; v++ {
			row := &sn.rows[v]
			var ok bool
			if row.Refs, ok = w.decodeStolenRefs(row.Refs[:0], payload, &pos, counts[v]); !ok {
				return edges, fmt.Errorf("core: machine %d worker %d: steal grant from %d carries an out-of-range ref", w.m.id, w.id, victim)
			}
			row.Weights = decodeStolenWeights(row.Weights[:0], payload, &pos, counts[v], weighted)
		}
		w.runStolenNode(jr, ctx, sn)
		edges += int64(counts[0] + counts[1])
		w.drainResponsesSafe()
	}
	return edges, nil
}

// decodeStolenRefs appends n validated refs from payload at *pos.
func (w *worker) decodeStolenRefs(dst []int64, payload []byte, pos *int, n int) ([]int64, bool) {
	st := w.m.store
	limit := int64(st.numLocal)
	for i := 0; i < n; i++ {
		ref := int64(leU64(payload[*pos:]))
		*pos += 8
		if ref >= 0 {
			if ref >= limit {
				return dst, false
			}
		} else {
			mach, off := unpackRemote(ref)
			if mach < 0 || mach >= w.m.cfg.NumMachines || int(off) >= st.layout.NumLocal(mach) {
				return dst, false
			}
		}
		dst = append(dst, ref)
	}
	return dst, true
}

func decodeStolenWeights(dst []float64, payload []byte, pos *int, n int, weighted bool) []float64 {
	if !weighted {
		return nil
	}
	for i := 0; i < n; i++ {
		dst = append(dst, math.Float64frombits(leU64(payload[*pos:])))
		*pos += 8
	}
	return dst
}

// runStolenNode is runNode for a stolen node: the same row dispatch, but the
// rows come from the grant and Ctx.stolen redirects the own-node accessors to
// the shipped snapshot. The deferred reset also covers an abort unwinding out
// of the kernel.
func (w *worker) runStolenNode(jr *jobRuntime, ctx *Ctx, sn *stolenNode) {
	ctx.Node = sn.node
	ctx.Aux = 0
	ctx.stolen = sn
	defer func() { ctx.stolen = nil }()
	for i := range sn.rows[:len(jr.views)] {
		sn.rows[i].second = i == 1
		jr.row.RunRow(ctx, sn.rows[i])
	}
}

// errStolenCtx reports a Ctx operation forbidden in stolen mode — the kernel
// violates the contract its StealSpec declared.
func errStolenCtx(w *worker, what string) error {
	return fmt.Errorf("core: machine %d worker %d: %s on a stolen node violates the job's StealSpec contract", w.m.id, w.id, what)
}

// stolenWord answers an own-node property read from the grant snapshot.
func (c *Ctx) stolenWord(p PropID) uint64 {
	for i, q := range c.w.job.spec.Steal.Own {
		if q == p {
			return c.stolen.snap[i]
		}
	}
	c.w.fail(fmt.Errorf("core: stolen task read property %d not listed in StealSpec.Own", p))
	return 0
}

// stolenGlobal is NodeGlobal for a stolen node: the id lives in the victim's
// range, not this machine's.
func (c *Ctx) stolenGlobal() graph.NodeID {
	return c.w.m.store.layout.GlobalOf(c.stolen.victim, c.Node)
}
