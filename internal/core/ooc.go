package core

import (
	"fmt"
	"slices"

	"repro/internal/partition"
	"repro/internal/store"
)

// Out-of-core loading: Cluster.LoadStore adopts an open store file
// (store.Open) instead of materializing the graph on the heap. Each machine's
// local store aliases its file section directly — the same rows/refs/weights
// slice contract buildLocalStore produces, so workers, copiers and the chunk
// scheduler run unchanged, except that a compressed file has no ref slice and
// its rows are read through rowReaders — and page-cache eviction, optionally
// bounded by Config.ResidentBudgetBytes, governs how much topology is
// resident. Store files carry the engine's own ref encoding (store.go), so the
// per-edge dispatch is identical either way; only the replica refs a job that
// uses the remote set needs are made as it reads the rows (rowReader), the
// file's mapping being read-only.
// Everything that depends on how the file spells its sections sits behind one
// store.Load handle.

// LoadStore loads the cluster from an open store file of either encoding.
// The file must have been written for exactly this cluster's machine count
// (the partition cut is baked into the section layout). sf must stay open for
// the lifetime of the load — until the next Load/LoadStore or Shutdown;
// closing it earlier leaves the machines aliasing an unmapped region. Like
// Load, it discards registered properties; register them after.
//
// Config.ResidentBudgetBytes and Config.DecodeCacheBytes size the load's
// residency window and (compressed files) the file's decode cache, shared
// with any other cluster loaded over the same open file; when a resident
// budget is set, property columns move to anonymous mmap so the whole
// O(N)+O(M) working set stays off the Go heap.
func (c *Cluster) LoadStore(sf *store.File) error {
	if sf.NumMachines() != c.cfg.NumMachines {
		return fmt.Errorf("core: store file %s is cut for %d machines, cluster has %d",
			sf.Path(), sf.NumMachines(), c.cfg.NumMachines)
	}
	if sf.NumNodes() == 0 {
		return fmt.Errorf("core: store file %s is empty", sf.Path())
	}
	ld, err := sf.NewLoad(c.cfg.ResidentBudgetBytes, c.cfg.DecodeCacheBytes)
	if err != nil {
		return err
	}
	layout := sf.Layout()
	c.layout = layout
	c.numNodes = sf.NumNodes()
	c.numEdges = sf.NumEdges()
	c.meta = nil
	c.freeProps = nil
	err = c.parallel(func(m *Machine) error {
		m.loadFromStore(ld, layout)
		return nil
	})
	if err != nil {
		return err
	}
	// The decode cache outlives loads (it is the file's), so its counters
	// start from wherever an earlier load left them.
	c.ooc, c.oocBase = ld, ld.Stats()
	c.loaded = true
	return nil
}

// loadFromStore installs machine id's file section as its local store. The
// row/ref/weight slices alias the load's views (a compressed file has no ref
// view: its rows are read through rowReaders); only O(numLocal) metadata
// (degrees, both-orientation prefix) is materialized on the heap.
func (m *Machine) loadFromStore(ld *store.Load, layout partition.Layout) {
	sec := ld.File().Section(m.id)
	out := orientView{rows: sec.OutRows, refs: sec.OutRefs, weights: sec.OutWeights}
	in := orientView{rows: sec.InRows, refs: sec.InRefs, weights: sec.InWeights}
	m.install(newLocalStore(m.id, layout, out, in), ld)
}

// claimChunk announces one chunk's topology reads, in every orientation the
// job iterates, to the load's residency window — a sparse frontier's members
// run by run, not the span from the first to the last; a no-op on an in-memory
// load. The worker claim loop tests jr.ooc itself, so an in-memory run pays
// one nil check per chunk.
func (jr *jobRuntime) claimChunk(mach int, ch partition.Chunk) {
	if jr.ooc == nil {
		return
	}
	for _, v := range jr.views {
		if jr.frontList != nil {
			jr.ooc.ClaimMembers(mach, v.orient, jr.frontList[ch.Begin:ch.End])
		} else {
			jr.ooc.Claim(mach, v.orient, int64(ch.Begin), int64(ch.End))
		}
	}
}

// rowReader reads one view's rows for one goroutine, whatever the load: sliced
// out of the view's refs or, on a compressed load, which has none, through a
// store.Cursor, which pins one decoded block until released. When res is set —
// a job that uses the remote set, on a store file whose rows cannot be
// rewritten — each row is resolved into the reader's scratch (remoteSet.resolve).
// Either of the last two makes a row valid until the reader's next row or
// release.
type rowReader struct {
	v      *orientView
	cur    store.Cursor
	cursor bool
	res    *remoteSet
	buf    []int64
}

// rowReaders is one goroutine's reader per view of a job. Workers keep theirs
// beside their other per-job state so an abort unwind finds them, and their
// scratch across jobs; a job that neither decodes nor resolves its rows never
// asks a worker's for one (jobRuntime.viaReaders).
type rowReaders [2]rowReader

// open points the readers at machine mach's views under jr's load.
func (rd *rowReaders) open(jr *jobRuntime, mach int) {
	for i := range jr.views {
		r := &rd[i]
		r.v, r.cursor, r.res = &jr.views[i], jr.cursors, jr.resolve
		if jr.cursors {
			r.cur = jr.ooc.Cursor(mach, r.v.orient)
		}
	}
}

// refs returns node's neighbour refs. An error is a block that no longer
// decodes — every one was strictly validated at Open — and fails the job.
func (r *rowReader) refs(node uint32) ([]int64, error) {
	var row []int64
	if r.cursor {
		var err error
		if row, err = r.cur.Row(int64(node)); err != nil {
			return nil, err
		}
	} else {
		row = r.v.refs[r.v.rows[node]:r.v.rows[node+1]]
	}
	if r.res != nil {
		r.buf = slices.Grow(r.buf[:0], len(row))[:len(row)]
		r.res.resolve(r.buf, row)
		row = r.buf
	}
	return row, nil
}

// release drops the readers' block pins, if they hold any. Idempotent.
func (rd *rowReaders) release() {
	rd[0].cur.Release()
	rd[1].cur.Release()
}
