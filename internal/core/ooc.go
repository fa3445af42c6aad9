package core

import (
	"fmt"

	"repro/internal/partition"
	"repro/internal/store"
)

// Out-of-core loading: Cluster.LoadStore adopts an open store file
// (store.Open) instead of materializing the graph on the heap. Each machine's
// local store aliases its file section directly — the same store.Section an
// in-memory load extracts (store.SectionOf), installed by the same
// constructor (newLocalStore), so workers, copiers and the chunk scheduler run
// unchanged, except that a compressed file has no ref slice and its rows are
// read through rowReaders — and page-cache eviction, optionally bounded by
// Config.ResidentBudgetBytes, governs how much topology is resident. A file's
// rows are written in the replica numbering (store.go), so the load takes the
// remote set its section describes with the rows and hands kernels the rows
// as written, exactly as an in-memory load does.
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
	return c.install(sf.Layout(), sf.NumNodes(), sf.NumEdges(), ld, sf.Section)
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

// rowReaders are one goroutine's cursors over a compressed load, one per view
// of a job, each pinning one decoded block until released: a row is valid
// until the cursor's next row or release. Workers keep theirs beside their
// other per-job state so an abort unwind finds them; a job that decodes no
// rows never asks a worker's for one (jobRuntime.cursors).
type rowReaders [2]store.Cursor

// open points the readers at machine mach's views under jr's compressed load.
func (rd *rowReaders) open(jr *jobRuntime, mach int) {
	for i, v := range jr.views {
		rd[i] = jr.ooc.Cursor(mach, v.orient)
	}
}

// release drops the readers' block pins, if they hold any. Idempotent.
func (rd *rowReaders) release() {
	rd[0].Release()
	rd[1].Release()
}
