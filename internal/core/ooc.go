package core

import (
	"fmt"

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
// per-edge dispatch is identical either way.
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
// store.Cursor — a row is then valid until the reader's next row or release,
// and the reader pins one decoded block until released.
type rowReader struct {
	v      *orientView
	cur    store.Cursor
	cursor bool
}

// rowReaders is one goroutine's reader per view of a job. Workers keep theirs
// beside their other per-job state so an abort unwind finds them; a job on an
// in-memory or raw load never asks a worker's for a row (worker.runChunk).
type rowReaders [2]rowReader

// readers returns readers of machine mach's views under jr's load.
func (jr *jobRuntime) readers(mach int) (rd rowReaders) {
	for i := range jr.views {
		rd[i].v = &jr.views[i]
		if jr.cursors {
			rd[i].cur, rd[i].cursor = jr.ooc.Cursor(mach, rd[i].v.orient), true
		}
	}
	return rd
}

// refs returns node's neighbour refs. An error is a block that no longer
// decodes — every one was strictly validated at Open — and fails the job.
func (r *rowReader) refs(node uint32) ([]int64, error) {
	if !r.cursor {
		return r.v.refs[r.v.rows[node]:r.v.rows[node+1]], nil
	}
	return r.cur.Row(int64(node))
}

// release drops the readers' block pins, if they hold any. Idempotent.
func (rd *rowReaders) release() {
	rd[0].cur.Release()
	rd[1].cur.Release()
}
