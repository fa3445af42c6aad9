package core

import (
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/obs"
	"repro/internal/reduce"
)

// copierLoop is one copier goroutine (paper §3.1/§3.4): it consumes inbound
// request frames from the router's shared queue and serves them — write
// records are validated and stashed in the machine's backlog for the drain to
// apply (spill.go), read requests produce a response message in request order,
// RMI requests dispatch through the registry. Copiers run for the life of the
// machine, independent of job phases, so remote machines always make progress
// against this one.
//
// A malformed or truncated frame, or a failed response send, is a job
// error, not a crash: the copier records it, aborts the current job (if
// any), and keeps serving — later jobs must still find it alive.
func (m *Machine) copierLoop() {
	defer m.loops.Done()
	reg := m.cfg.Obs
	for buf := range m.router.ReqQueue() {
		// The job this frame is served against, loaded once: the section check
		// and a failure must name the same job. The machine's runtime outlives
		// its jobs, so the failure carries the id read here: one that lands
		// after the runtime moved on to a rerun fails nothing.
		jr := m.curJob.Load()
		h := buf.Header()
		var jobID uint64
		if jr != nil {
			jobID = jr.id.Load()
		}
		t := reg.Clock()
		err := m.serveRequest(buf, jr, jobID)
		reg.Span(m.id, obs.WorkerCopier, obs.SpanCopierServe, jobID, t, uint64(h.Src)<<48|uint64(h.Type))
		reg.Observe(m.id, obs.HistServe, time.Duration(reg.Clock()-t))
		if err != nil {
			m.ep.Metrics().RecordRecvError()
			if jr != nil {
				m.abortJob(jr, jobID, fmt.Errorf("core: machine %d copier: %w", m.id, err))
			}
		}
		// Done only once the abort a bad frame caused is announced: failing the
		// job releases the driver into recovery (Cluster.recoverAfterAbort),
		// which waits for every request frame to be done, so no copier is
		// still sending the announcement when the cluster runs its next job or
		// closes its endpoints.
		m.router.RequestDone()
	}
}

// serveRequest dispatches one inbound request frame against jr, the job that
// was current when the frame was dequeued (nil between jobs), whose id was
// then jobID. The request
// buffer is released on every exit path; response buffers are either handed
// to the transport (which owns them from Send on, success or failure) or
// released here before an error return.
// A frame of another section than jr's, or with no job current, is a
// straggler of an aborted job (the start barrier orders every curJob install
// before any peer's first request), maybe torn by the fault that aborted it:
// it is dropped before its type is looked at, and counted.
func (m *Machine) serveRequest(buf *comm.Buffer, jr *jobRuntime, jobID uint64) error {
	defer buf.Release()
	h := buf.Header()
	if jr == nil || frameSection(h) != uint32(jobID) {
		ctr := obs.CtrStaleReadFrames
		if h.Type == comm.MsgWriteReq {
			ctr = obs.CtrStaleWriteFrames
		}
		m.cfg.Obs.Add(m.id, ctr, 1)
		return nil
	}
	payload := buf.Payload()
	switch h.Type {
	case comm.MsgWriteReq:
		// Validated here, so a torn frame fails the job at receipt; then stashed,
		// never applied: during the task phase only this machine's workers write
		// a column, and the drain replays the backlog (spill.go).
		if err := m.checkWrites(h.Count, payload); err != nil {
			return err
		}
		recs := payload[:writeRecSize*int(h.Count)]
		took, flushed, err := m.spill.add(jobID, recs)
		if err != nil {
			return err
		}
		if !took { // the job unpublished since jr was loaded, or its owed records are all in
			m.cfg.Obs.Add(m.id, obs.CtrStaleWriteFrames, 1)
			return nil
		}
		m.cfg.Obs.Add(m.id, obs.CtrSpilledWriteFrames, 1)
		m.cfg.Obs.Add(m.id, obs.CtrSpilledWriteBytes, int64(len(recs)))
		if flushed > 0 {
			m.cfg.Obs.Add(m.id, obs.CtrSpillFileFrames, int64(flushed))
		}
		return nil
	case comm.MsgReadReq:
		return m.serveReads(jr, h, payload)
	case comm.MsgRMIReq:
		return m.serveRMI(h, payload)
	default:
		return fmt.Errorf("unexpected frame type %v on request queue", h.Type)
	}
}

// applyChunk is how many records applyWrites hands the write loop at a time:
// their offsets and words are laid out for it on the stack.
const applyChunk = 256

// checkWrites validates a write frame before any of its records is stashed or
// applied, so a truncated or corrupt frame surfaces as an error with nothing
// landed. The length check is in 64 bits: a count with a stray high byte must
// fail it, not wrap past it on a 32-bit int.
func (m *Machine) checkWrites(records uint32, payload []byte) error {
	if int64(len(payload)) < writeRecSize*int64(records) {
		return fmt.Errorf("truncated write frame: %d records need %d bytes, have %d", records, writeRecSize*int64(records), len(payload))
	}
	for i := 0; i < int(records); i++ {
		if err := m.checkWriteRec(i, leU64(payload[writeRecSize*i:])); err != nil {
			return err
		}
	}
	return nil
}

// applyWrites validates and applies write records against jr, the job being
// drained (replaySpill; nil applies with no write-activation, by CAS): a meta word
// (prop<<48 | op<<40 | offset) followed by the value word, 16 bytes each. Each
// run of records with one (property, operator) — an accumulator's flush is a
// few long ones — is applied by the loop resolved for the pair
// (Writer.reduce), a chunk at a time. Under an activating spec
// (WriteSpec.ActivateInto) a record that changes its word adds its node to the
// build frontier's membership; the caller restores the sorted-sparse order.
// Main goroutine only: m.acts is its scratch.
func (m *Machine) applyWrites(jr *jobRuntime, records uint32, payload []byte) error {
	if err := m.checkWrites(records, payload); err != nil {
		return err
	}
	count := int(records)
	var metas, words [applyChunk]uint64
	var refs [applyChunk]int64 // a record's offset is a local ref
	for base := 0; base < count; base += applyChunk {
		n := min(applyChunk, count-base)
		for i := 0; i < n; i++ {
			rec := payload[writeRecSize*(base+i):]
			metas[i], words[i] = leU64(rec), leU64(rec[8:])
			refs[i] = int64(uint32(metas[i]))
		}
		for i, j := 0, 0; i < n; i = j {
			for j = i + 1; j < n && metas[j]>>40 == metas[i]>>40; j++ {
			}
			prop := PropID(metas[i] >> 48)
			// The workers have joined, and copiers read only the job's ReadProps:
			// any other column's words are this goroutine's alone.
			run := Writer{col: m.cols[prop], op: reduce.Op(metas[i] >> 40), plain: jr != nil && !jr.reads(prop)}
			var bf *machineFrontier
			if jr != nil && jr.activate != nil && jr.activate[prop] >= 0 {
				bf, run.act = jr.builds[jr.activate[prop]], &m.acts
			}
			run.target()
			run.reduce(refs[i:j], 0, words[i:j])
			if bf != nil {
				for _, v := range m.acts {
					bf.add(v)
				}
				m.acts = m.acts[:0]
			}
		}
	}
	return nil
}

// checkWriteRec validates the i-th record's meta word against this machine's
// columns: a known property, a known operator (an unknown one would panic in
// the reduction's arithmetic) and an offset inside the column.
func (m *Machine) checkWriteRec(i int, meta uint64) error {
	prop, op, offset := PropID(meta>>48), reduce.Op(meta>>40), uint32(meta)
	if int(prop) >= len(m.cols) || m.cols[prop] == nil {
		return fmt.Errorf("write record %d names unknown property %d", i, prop)
	}
	if !op.Valid() {
		return fmt.Errorf("write record %d carries unknown operator %d", i, uint8(op))
	}
	if int(offset) >= len(m.cols[prop].vals) {
		return fmt.Errorf("write record %d offset %d out of range for property %d", i, offset, prop)
	}
	return nil
}

// serveReads builds the response for a read-request frame of jr: one value
// word per 8-byte address record, in request order, echoing the worker id and
// sequence number so the requester can match its side structure.
//
// The length check bounds the response too: a request that fits a frame asks
// for no more words than a response frame — the same size — holds. A record
// naming a property outside jr's ReadProps fails the job: a remote read must
// be declared, so that a copier reads no column the job's workers may be
// storing with plain writes (column.owned).
func (m *Machine) serveReads(jr *jobRuntime, h comm.Header, payload []byte) error {
	if int64(len(payload)) < readRecSize*int64(h.Count) { // in 64 bits, as in checkWrites
		return fmt.Errorf("truncated read frame: %d records need %d bytes, have %d", h.Count, readRecSize*int64(h.Count), len(payload))
	}
	count := int(h.Count)
	for i := 0; i < count; i++ {
		rec := leU64(payload[readRecSize*i:])
		prop := PropID(rec >> 48)
		offset := uint32(rec)
		if int(prop) >= len(m.cols) || m.cols[prop] == nil {
			return fmt.Errorf("read record %d names unknown property %d", i, prop)
		}
		if !jr.reads(prop) {
			return fmt.Errorf("job %q reads property %d at another node without declaring it in ReadProps", jr.spec.Name, prop)
		}
		if int(offset) >= len(m.cols[prop].vals) {
			return fmt.Errorf("read record %d offset %d out of range for property %d", i, offset, prop)
		}
	}
	resp := m.respPool.Acquire()
	resp.Reset(comm.Header{
		Type:   comm.MsgReadResp,
		Worker: h.Worker,
		Src:    uint16(m.id),
		Count:  h.Count,
		Aux:    h.Aux,
	})
	for i := 0; i < count; i++ {
		rec := leU64(payload[readRecSize*i:])
		resp.AppendU64(m.cols[PropID(rec>>48)].load(int(uint32(rec))))
	}
	// Counted before the hand-over: the requester can finish the job this
	// answers, whose report then reads the counter, before Send returns.
	m.cfg.Obs.Add(m.id, obs.CtrReadsServed, int64(h.Count))
	if err := m.ep.Send(int(h.Src), resp); err != nil {
		return fmt.Errorf("responding to %d: %w", h.Src, err)
	}
	return nil
}

// serveRMI dispatches a remote method invocation and sends its response.
// Every RMI gets a response (possibly empty) so callers can await
// completion; the method id travels in the record count, the section and
// the caller's seq in Aux, which the response echoes. A dispatch failure
// aborts the job — the caller's abort-channel select (or Config.Timeout)
// unblocks it, since no response frame will come. The handler runs here, on a copier, concurrently with the
// workers, and is handed no machine state but the caller's id: it reads and
// writes no property (Cluster.RegisterRMI).
func (m *Machine) serveRMI(h comm.Header, payload []byte) error {
	out, err := m.rmi.Dispatch(h.Count, int(h.Src), payload)
	if err != nil {
		return err
	}
	resp := m.respPool.Acquire()
	if len(out) > resp.Room() {
		resp.Release()
		return fmt.Errorf("RMI response of %d bytes exceeds buffer size", len(out))
	}
	resp.Reset(comm.Header{
		Type:   comm.MsgRMIResp,
		Worker: h.Worker,
		Src:    uint16(m.id),
		Count:  1,
		Aux:    h.Aux,
	})
	resp.AppendBytes(out)
	m.cfg.Obs.Add(m.id, obs.CtrRMIServed, 1) // before the hand-over, as in serveReads
	if err := m.ep.Send(int(h.Src), resp); err != nil {
		return fmt.Errorf("RMI response to %d: %w", h.Src, err)
	}
	return nil
}
