package core

import (
	"sync/atomic"

	"repro/internal/obs"
)

// Remote reads of a dense pull, resolved once per superstep instead of once
// per edge: a job eligible under remoteJob (remoteset.go) first copies every
// declared read property at the set's addresses into a per-machine mirror
// ("copies the original values into the ghost nodes prior to the execution
// step", §3.3). The copy rides the ordinary read path (bufferRead → flushRead →
// serveReads → processResponse), so it adds no message type, collective or
// failure mode; kernels then find a mirrored ref's value synchronously
// (Ctx.ReadRef, RemoteView).

// mirrorJob sets jr up so its workers prefetch its read properties at set's
// addresses before they run a row.
func (m *Machine) mirrorJob(jr *jobRuntime, set *remoteSet) {
	for i := range jr.spec.ReadProps {
		if i == len(m.mirrors) {
			m.mirrors = append(m.mirrors, nil)
		}
		if buf := m.mirrors[i]; buf == nil || len(buf.vals) < set.size {
			buf.release()
			m.mirrors[i] = newColumn(KindI64, set.size, 0, m.offHeapCols)
		}
	}
	jr.mirrorSet, jr.mirrors = set, m.mirrors[:len(jr.spec.ReadProps)]
	jr.fetching.Store(int32(len(m.workers)))
	jr.fetched = make(chan struct{})
}

// prefetch fills this worker's share of the job's mirrors — a word range of
// every owner's bitmap, for every read property — and then waits until every
// local worker has filled its own: any row may reference any slot. The
// addresses go out in ascending order, the side record carries the mirror slot
// where a kernel read carries its node, and processResponse stores the words
// instead of running continuations.
func (w *worker) prefetch(jr *jobRuntime) {
	t := w.reg.Clock()
	w.fetching = true
	defer func() { w.fetching = false }()
	words, nw := 0, len(w.m.workers)
	for i, p := range jr.spec.ReadProps {
		for d := range jr.mirrorSet.peers {
			ps := &jr.mirrorSet.peers[d]
			ps.each(len(ps.bits)*w.id/nw, len(ps.bits)*(w.id+1)/nw, func(off uint32, slot int) {
				w.bufferRead(d, p, off, uint32(slot), uint64(i))
				words++
			})
		}
	}
	w.awaitReads(jr)
	if jr.fetching.Add(-1) == 0 {
		close(jr.fetched)
	}
	select {
	case <-jr.fetched:
	case <-jr.abortCh:
		w.unwind()
	}
	w.reg.Span(w.m.id, w.id, obs.SpanReadPrefetch, jr.id, t, uint64(words))
	w.reg.Add(w.m.id, obs.CtrMirrorWords, int64(words))
}

// RemoteView answers remote refs of one property out of the job's mirror. It
// is valid for the current job; kernels resolve it once per row, next to the
// typed view of the local slots.
type RemoteView struct {
	set  *remoteSet
	vals []atomic.Uint64
}

// Remote returns the mirror view of property p: empty when the job is not
// mirrored or p is not among its ReadProps.
func (c *Ctx) Remote(p PropID) RemoteView {
	if jr := c.w.job; jr.mirrorSet != nil {
		for i, rp := range jr.spec.ReadProps {
			if rp == p {
				return RemoteView{jr.mirrorSet, jr.mirrors[i].vals}
			}
		}
	}
	return RemoteView{set: &noRemoteSet}
}

// Word returns the mirrored word of remote ref — the owner's value as of the
// prefetch, §3.3's rule for a ghost — or false when ref is not mirrored and
// must go through Ctx.ReadRef.
func (v RemoteView) Word(ref int64) (uint64, bool) {
	mach, off := unpackRemote(ref)
	if uint(mach) < uint(len(v.set.peers)) { // not so for a ref >= 0, which is not remote
		if slot := v.set.peers[mach].slot(off); slot >= 0 {
			return v.vals[slot].Load(), true
		}
	}
	return 0, false
}
