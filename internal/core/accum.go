package core

import (
	"repro/internal/obs"
	"repro/internal/store"
)

// Remote writes of a dense push, shipped once per worker and superstep instead
// of once per edge: in a job eligible under remoteJob (remoteset.go) every
// worker holds, per declared write property, a private accumulator of one plain
// word per slot of the load's remote set, bottomed with the reduction's
// identity — ghost privatization (§3.3: thread-private copies without atomics,
// folded out after the step) for every remote neighbour the set holds. The
// write loop (write.go) folds a replica ref into its slot, and flushAccum ships
// the slots through the ordinary write path, so termination still counts
// records sent and applied.
// A remote reduction therefore lands when its sending worker has run dry rather
// than somewhere inside the superstep. Worker 0's slots are the tail of the
// column's own array (column), [owned words | slots], so on a one-worker
// machine the write loop reduces into an owned neighbour and a replica alike
// with one indexed store (scatter, write.go).

// accum is one worker's accumulator for one property: a plain word per slot of
// the remote set, valid for job job. Nothing in it is written while rows run —
// a per-write counter here shared its cache line with the next simulated
// machine's accum and doubled the cost of a fold; the count is worker.folded.
type accum struct {
	job   uint64
	slots []uint64
}

// flushAccum ships this worker's accumulators: one record per slot that left
// the identity, in slot order — per owner in ascending address order — so the
// owner's replay walks its column front to back. It runs after the worker's
// last continuation, so nothing can fold into a slot the walk has passed; a job
// that has failed by then ships nothing.
func (w *worker) flushAccum(jr *jobRuntime) {
	if jr.aborted() {
		w.unwind()
	}
	t := w.reg.Clock()
	shipped, addr := 0, w.m.store.remote.addr
	for _, ws := range jr.spec.WriteProps {
		col := w.cols[ws.Prop]
		bottom := col.bottomWord(ws.Op)
		for slot, v := range col.acc[w.id].slots {
			if v != bottom {
				mach, off := store.UnpackRef(addr[slot])
				w.bufferWrite(mach, ws.Prop, ws.Op, off, v)
				shipped++
			}
		}
	}
	w.flushAll()
	w.reg.Span(w.m.id, w.id, obs.SpanWriteFlush, jr.id.Load(), t, uint64(shipped))
	w.reg.Add(w.m.id, obs.CtrAccumulatedWrites, w.folded)
	w.folded = 0
}
