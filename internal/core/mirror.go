package core

import (
	"repro/internal/obs"
	"repro/internal/store"
)

// Remote reads of a dense pull, resolved once per superstep instead of once
// per edge: a job eligible under remoteJob (remoteset.go) first fetches every
// declared read property's replicas into the tail of its column, [owned words
// | replicas], from their owners ("copies the original values into the ghost
// nodes prior to the execution step", §3.3). The copy rides the ordinary read
// path (bufferRead → flushRead → serveReads → processResponse), so it adds no
// message type, collective or failure mode. Kernels then read local and
// replica refs alike through the property's view (Ctx.F64, Ctx.ReadRef), which
// spans the column and its tail for the job, with one indexed load: the owned
// words live, the replicas as of the prefetch.

// mirrorJob sets jr up so its workers prefetch its read properties at the
// addresses is's rows reference before they run a row, and widens the read
// properties' views over their tails.
func (m *Machine) mirrorJob(jr *jobRuntime, set *remoteSet, is *iterSet) {
	for _, p := range jr.spec.ReadProps {
		m.cols[p].view = m.cols[p].vals[:set.numLocal+len(set.addr)]
	}
	jr.mirrorSet = is
	jr.fetching.Store(int32(len(m.workers)))
	jr.fetched = make(chan struct{})
}

// prefetch fills this worker's share of the job's replicas — a range of every
// owner's slots, for every read property — and then waits until every local
// worker has filled its own: any row may reference any replica. The addresses
// go out in ascending order, the side record carries the tail word's ref and
// the property where a kernel read carries its node and Aux, and
// processResponse stores the words instead of running continuations.
func (w *worker) prefetch(jr *jobRuntime) {
	t := w.reg.Clock()
	w.fetching = true
	defer func() { w.fetching = false }()
	set := w.m.store.remote
	n, nw, words := set.numLocal, len(w.m.workers), 0
	for _, p := range jr.spec.ReadProps {
		for d := range len(set.base) - 1 {
			first, span := set.base[d], set.base[d+1]-set.base[d]
			eachSlot(jr.mirrorSet.slots, first+span*w.id/nw, first+span*(w.id+1)/nw, func(slot int) {
				_, off := store.UnpackRef(set.addr[slot])
				w.bufferRead(d, p, off, uint32(n+slot), uint64(p))
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
