package core

import (
	"repro/internal/obs"
	"repro/internal/store"
)

// Remote reads of a dense pull, resolved once per superstep instead of once
// per edge: a job eligible under remoteJob (remoteset.go) first copies every
// declared read property into a per-machine mirror laid out [owned words |
// replicas] — the owned words from the column, the replicas at the set's
// addresses from their owners ("copies the original values into the ghost
// nodes prior to the execution step", §3.3). The copy rides the ordinary read
// path (bufferRead → flushRead → serveReads → processResponse), so it adds no
// message type, collective or failure mode. Kernels then read local and
// replica refs alike through the property's view (Ctx.F64, Ctx.ReadRef), which
// the mirror backs for the job, with one indexed load.

// mirrorJob sets jr up so its workers prefetch its read properties at the
// addresses is's rows reference before they run a row, and points the read
// properties' views at the mirrors.
func (m *Machine) mirrorJob(jr *jobRuntime, set *remoteSet, is *iterSet) {
	n := set.numLocal + len(set.addr)
	for i, p := range jr.spec.ReadProps {
		if i == len(m.mirrors) {
			m.mirrors = append(m.mirrors, nil)
		}
		if buf := m.mirrors[i]; buf == nil || len(buf.vals) < n {
			buf.release()
			m.mirrors[i] = newColumn(KindI64, n, 0, m.offHeapCols)
		}
		m.cols[p].view = m.mirrors[i].vals[:n]
	}
	jr.mirrorSet, jr.mirrors = is, m.mirrors[:len(jr.spec.ReadProps)]
	jr.fetching.Store(int32(len(m.workers)))
	jr.fetched = make(chan struct{})
}

// prefetch fills this worker's share of the job's mirrors — a range of the
// owned words and a range of every owner's slots, for every read property —
// and then waits until every local worker has filled its own: any row may
// reference any word. The owned words are a copy: no worker of this machine
// stores into the column before the wait, and copiers only read it. The
// addresses go out in ascending order, the side record carries the mirror word
// where a kernel read carries its node, and processResponse stores the words
// instead of running continuations.
func (w *worker) prefetch(jr *jobRuntime) {
	t := w.reg.Clock()
	w.fetching = true
	defer func() { w.fetching = false }()
	set := w.m.store.remote
	n, nw, words := set.numLocal, len(w.m.workers), 0
	lo, hi := n*w.id/nw, n*(w.id+1)/nw
	for i, p := range jr.spec.ReadProps {
		copy(plainWords(jr.mirrors[i].vals[lo:hi]), plainWords(w.cols[p].vals[lo:hi]))
		for d := range len(set.base) - 1 {
			first, span := set.base[d], set.base[d+1]-set.base[d]
			eachSlot(jr.mirrorSet.slots, first+span*w.id/nw, first+span*(w.id+1)/nw, func(slot int) {
				_, off := store.UnpackRef(set.addr[slot])
				w.bufferRead(d, p, off, uint32(n+slot), uint64(i))
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
	w.reg.Span(w.m.id, w.id, obs.SpanReadPrefetch, jr.id.Load(), t, uint64(words))
	w.reg.Add(w.m.id, obs.CtrMirrorWords, int64(words))
}
