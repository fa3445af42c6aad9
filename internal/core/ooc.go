package core

import (
	"fmt"

	"repro/internal/partition"
	"repro/internal/store"
)

// Out-of-core loading: Cluster.LoadStore adopts an open store file
// (store.Open) instead of materializing the graph on the heap. Each machine's
// local store aliases its file section directly — the same rows/refs/weights
// slice contract buildLocalStore produces, so workers, copiers, the chunk
// scheduler, and the steal protocol run unchanged — and page-cache eviction,
// optionally bounded by Config.ResidentBudgetBytes, governs how much topology
// is resident. Store files encode refs ghost-free (local or remote, never a
// ghost slot), so an out-of-core cluster runs with an empty ghost set; the
// per-edge ref dispatch is identical either way. Everything that depends on
// how the file spells its sections sits behind one store.Load handle.

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
	ghosts := partition.EmptyGhostSet()
	c.layout = layout
	c.ghosts = ghosts
	c.numNodes = sf.NumNodes()
	c.numEdges = sf.NumEdges()
	c.meta = nil
	c.freeProps = nil
	err = c.parallel(func(m *Machine) error {
		m.loadFromStore(ld, layout, ghosts)
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
// row/ref/weight slices alias the load's views (on a compressed file the refs
// are valid only under a chunk claim); only O(numLocal) metadata (degrees,
// both-orientation prefix) is materialized on the heap.
func (m *Machine) loadFromStore(ld *store.Load, layout partition.Layout, ghosts *partition.GhostSet) {
	sec := ld.Section(m.id)
	out := orientView{rows: sec.OutRows, refs: sec.OutRefs, weights: sec.OutWeights}
	in := orientView{rows: sec.InRows, refs: sec.InRefs, weights: sec.InWeights}
	m.install(newLocalStore(m.id, layout, ghosts, out, in), ld.File().DegreeMass(), ld)
}

// chunkSpan maps one scheduling chunk of an edge iterator to the node span
// [lo, hi) it will iterate. ok is false when the chunk drives no topology
// reads (an empty sparse-frontier chunk).
func (jr *jobRuntime) chunkSpan(ch partition.Chunk) (lo, hi int64, ok bool) {
	lo, hi = int64(ch.Begin), int64(ch.End)
	if jr.frontList != nil {
		// Sparse frontier: chunk indices address the sorted member list; the
		// node span is the members' range (sorted ascending).
		if ch.Begin >= ch.End {
			return 0, 0, false
		}
		lo = int64(jr.frontList[ch.Begin])
		hi = int64(jr.frontList[ch.End-1]) + 1
	}
	return lo, hi, true
}

// claimChunk claims one chunk's topology reads in every orientation the job
// iterates; a no-op on an in-memory load. The returned tokens (zero-valued
// when nothing was pinned) must be released once the chunk's task invocations
// finish; holders keep them reachable across an abort unwind so cleanup can
// release them. The worker claim loop tests jr.ooc itself, so an in-memory
// run pays one nil check per chunk and no token bookkeeping.
func (jr *jobRuntime) claimChunk(mach int, ch partition.Chunk) (pins [2]store.PinToken, err error) {
	if jr.ooc == nil {
		return
	}
	lo, hi, ok := jr.chunkSpan(ch)
	if !ok {
		return
	}
	for i, v := range jr.views {
		if pins[i], err = jr.ooc.Claim(mach, v.orient, lo, hi); err != nil {
			pins[0].Release() // what an earlier view pinned; a no-op on the zero token
			return [2]store.PinToken{}, err
		}
	}
	return
}
