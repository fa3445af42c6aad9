package core

import (
	mathbits "math/bits"

	"repro/internal/partition"
)

// Cursor is a worker's walk over one claimed chunk — the loop a kernel runs
// (RowTask.RunRows, NodeTask.RunNodes). Next steps node by node through the
// chunk's nodes, whatever names them (a dense range, a frontier's bitmap or
// sorted member list), and on an edge iterator through each node's rows in
// the iterator's order, the out row before the in row under IterBothEdges;
// Row is the current row, sliced from the view's CSR or decoded by the
// worker's store cursors on a compressed load. At each node's first row Next
// sets Ctx.Node and zeroes Ctx.Aux. The cursor is the worker's own, one for
// its life: a kernel must not retain it past the call it was handed in.
//
// A dense range walked through views that hold their refs — a full scan of a
// heap or csr2 load, and any chunk of the node iterator's — steps inline in
// the kernel's loop (the dense form: fastEnd set, Row slicing the view's CSR
// itself); every other chunk — a frontier's, or a csr3 load's decoded rows —
// steps through next, which leaves the row in row.
type Cursor struct {
	c *Ctx
	// fastEnd is one past the chunk's last node in the dense form and 0
	// otherwise, when every step is next's.
	fastEnd uint32
	// node is the current node: the chunk's first node minus one before the
	// first step.
	node uint32
	// side is the dense form's current view, 0 or 1, and two is 1 when the
	// form walks two views per node (IterBothEdges): the step after side s
	// starts a node when s^two is 0, and otherwise is the node's second row.
	side, two uint32
	// sliced is set when the dense form has views: Row slices dense[side]'s
	// CSR at node. Otherwise Row returns row.
	sliced bool
	dense  [2]orientView
	row    Row

	views []orientView
	view  int // the current row's index in views, for next
	// Exactly one of list (a sparse frontier: i walks list[i:end]) and bits (a
	// dense one: nodes up to end whose bit is set) is set, or neither for a
	// dense range ending at end.
	list []uint32
	bits []uint64
	i    uint32
	end  uint32
	// rd, on a compressed load (readers), yields the rows, one store cursor per
	// view, each pinning a decoded block until release.
	readers bool
	rd      rowReaders
}

// Next moves to the chunk's next row — on the node iterator, its next node —
// and reports whether there was one. It inlines into the kernel's loop: the
// slow step goes in as an argument of step, which the inliner prices as a call
// through a parameter (17) rather than a call (57), and that is what keeps
// Next, the dense step and the call together, under its budget of 80.
func (r *Cursor) Next() bool { return r.step((*Cursor).next) }

// step is Next's body: the dense form's step inline, every other step slow's.
func (r *Cursor) step(slow func(*Cursor) bool) bool {
	s := r.side ^ r.two
	if n := r.node + 1 - s; n < r.fastEnd {
		r.node, r.side = n, s
		if s == 0 {
			r.c.Node, r.c.Aux = n, 0
		}
		return true
	}
	return slow(r)
}

// Row returns the current row. It aliases engine storage and is valid until
// the next call of Next. On the node iterator it is empty.
func (r *Cursor) Row() Row {
	if !r.sliced {
		return r.row
	}
	v := &r.dense[r.side&1]
	lo, hi := v.rows[r.node], v.rows[r.node+1]
	if v.weights == nil {
		return Row{Refs: v.refs[lo:hi]}
	}
	return Row{Refs: v.refs[lo:hi], Weights: v.weights[lo:hi]}
}

// open points the cursor at chunk ch of job jr.
func (r *Cursor) open(jr *jobRuntime, ch partition.Chunk) {
	r.views, r.list, r.bits, r.readers = jr.views, jr.frontList, jr.frontBits, jr.cursors
	r.view = len(r.views) - 1 // the first step starts a node
	r.row = Row{}
	r.fastEnd, r.side, r.two, r.sliced = 0, 0, 0, false
	if r.list != nil {
		r.i, r.end = ch.Begin, ch.End
		return
	}
	r.node, r.end = ch.Begin-1, ch.End
	if r.bits != nil || r.readers {
		return
	}
	r.fastEnd, r.sliced = ch.End, len(r.views) > 0
	copy(r.dense[:], r.views)
	if len(r.views) == 2 {
		r.side, r.two = 1, 1
	}
}

// next is every step outside the dense form: the node's next row, or the
// chunk's next node and its first row.
func (r *Cursor) next() bool {
	if r.view+1 < len(r.views) {
		r.view++
		r.load()
		return true
	}
	switch {
	case r.list != nil:
		if r.i >= r.end {
			return false
		}
		r.node = r.list[r.i]
		r.i++
	case r.bits != nil:
		n := r.node + 1
		for {
			if n >= r.end {
				return false
			}
			if word := r.bits[n>>6] >> (n & 63); word != 0 {
				n += uint32(trailingZeros64(word))
				break
			}
			n = (n | 63) + 1
		}
		if n >= r.end {
			return false
		}
		r.node = n
	default:
		if r.node+1 >= r.end {
			return false
		}
		r.node++
	}
	r.c.Node, r.c.Aux = r.node, 0
	if len(r.views) > 0 {
		r.view = 0
		r.load()
	}
	return true
}

// load makes the current node's row in views[view] the current row; a row
// that fails to decode fails the job.
func (r *Cursor) load() {
	v, n := &r.views[r.view], r.node
	lo, hi := v.rows[n], v.rows[n+1]
	if r.readers {
		refs, err := r.rd[r.view].Row(int64(n))
		if err != nil {
			r.c.w.fail(err)
		}
		r.row.Refs = refs
	} else {
		r.row.Refs = v.refs[lo:hi]
	}
	r.row.Weights = nil
	if v.weights != nil {
		r.row.Weights = v.weights[lo:hi]
	}
}

// trailingZeros64 is math/bits.TrailingZeros64 (local name so a bitmap scan
// can shadow "bits" for the slice).
func trailingZeros64(x uint64) int { return mathbits.TrailingZeros64(x) }
