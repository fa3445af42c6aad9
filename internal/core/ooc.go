package core

import (
	"fmt"

	"repro/internal/partition"
	"repro/internal/store"
)

// Out-of-core loading: Cluster.LoadStore adopts an open CSR v2 file
// (store.Open) instead of materializing the graph on the heap. Each machine's
// local store aliases its mmap'd file section directly — the same
// rows/refs/weights slice contract buildLocalStore produces, so workers,
// copiers, the chunk scheduler, and the steal protocol run unchanged — and
// page-cache eviction, optionally bounded by Config.ResidentBudgetBytes,
// governs how much topology is resident. Store files encode refs ghost-free
// (local or remote, never a ghost slot), so an out-of-core cluster runs with
// an empty ghost set; the per-edge ref dispatch is identical either way.

// LoadStore loads the cluster from an open CSR file — raw (v2) or compressed
// (v3). The file must have been written for exactly this cluster's machine
// count (the partition cut is baked into the section layout). sf must stay
// open for the lifetime of the load — until the next Load/LoadStore or
// Shutdown; closing it earlier leaves the machines aliasing an unmapped
// region. Like Load, it discards registered properties; register them after.
//
// For a compressed file the machines' ref views come from the file's decode
// cache (created here with Config.DecodeCacheBytes, shared with any other
// cluster loaded over the same open file), and — when a resident budget is
// also set — property columns move to anonymous mmap so the whole O(N)+O(M)
// working set stays off the Go heap.
func (c *Cluster) LoadStore(sf *store.File) error {
	if sf.NumMachines() != c.cfg.NumMachines {
		return fmt.Errorf("core: store file %s is cut for %d machines, cluster has %d",
			sf.Path(), sf.NumMachines(), c.cfg.NumMachines)
	}
	if sf.NumNodes() == 0 {
		return fmt.Errorf("core: store file %s is empty", sf.Path())
	}
	var dc *store.DecodeCache
	if sf.Compressed() {
		budget := c.cfg.DecodeCacheBytes
		if budget == 0 {
			budget = store.DefaultDecodeCacheBytes
		}
		var err error
		if dc, err = sf.EnsureDecodeCache(budget); err != nil {
			return err
		}
	}
	layout := sf.Layout()
	ghosts := partition.EmptyGhostSet()
	c.layout = layout
	c.ghosts = ghosts
	c.numNodes = sf.NumNodes()
	c.numEdges = sf.NumEdges()
	c.meta = nil
	c.freeProps = nil
	// One residency window is shared by all simulated machines: they alias
	// one mapping, and the budget is a per-process RSS bound.
	res := sf.NewResidency(c.cfg.ResidentBudgetBytes)
	err := c.parallel(func(m *Machine) error {
		m.loadFromStore(sf, dc, layout, ghosts, res)
		return nil
	})
	if err != nil {
		return err
	}
	c.oocDec, c.oocRes = dc, res
	c.oocDecBase, c.oocResBase = store.DecodeCacheStats{}, store.ResidencyStats{}
	if dc != nil {
		c.oocDecBase = dc.Stats()
	}
	c.loaded = true
	return nil
}

// loadFromStore installs machine id's file section as its local store. The
// row/ref/weight slices alias the mapping zero-copy (for a compressed file
// the refs alias the decode cache's arena instead — same absolute indexing,
// valid only under a chunk claim's pins); only O(numLocal) metadata
// (degrees, both-orientation prefix) is materialized on the heap.
func (m *Machine) loadFromStore(sf *store.File, dc *store.DecodeCache, layout partition.Layout, ghosts *partition.GhostSet, res *store.Residency) {
	sec := sf.Section(m.id)
	out := orientView{rows: sec.OutRows, refs: sec.OutRefs, weights: sec.OutWeights}
	in := orientView{rows: sec.InRows, refs: sec.InRefs, weights: sec.InWeights}
	if dc != nil {
		out.refs, in.refs = dc.Refs(m.id, store.OrientOut), dc.Refs(m.id, store.OrientIn)
	}
	m.install(newLocalStore(m.id, layout, ghosts, out, in), sf.DegreeMass(), res, dc)
}

// chunkSpan maps one scheduling chunk to the node span [lo, hi) it will
// iterate. ok is false when the chunk drives no topology reads (node
// iterator, or an empty sparse-frontier chunk).
func (jr *jobRuntime) chunkSpan(ch partition.Chunk) (lo, hi int64, ok bool) {
	if len(jr.views) == 0 {
		return 0, 0, false // node iterator: no topology reads
	}
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

// touchSpan advises the residency window about the byte ranges a node span's
// iteration will read: the row slices, the ref (and weight) slices for the
// edges under it — and for compressed stores the compressed blob bytes
// instead of the refs (the arena refs live outside the mapping and are
// filtered by the residency's pointer check anyway; what faults from the
// file is the ~3-bytes-per-edge blob, so that is what enters the window).
// Claim order — sequential per machine via the shared cursor — is the
// prefetch order.
func (jr *jobRuntime) touchSpan(lo, hi int64) {
	res := jr.res
	for _, v := range jr.views {
		res.TouchI64(v.rows, lo, hi+1)
		if jr.dec != nil {
			jr.dec.TouchCompressed(res, jr.decMach, v.orient, lo, hi)
		} else {
			res.TouchI64(v.refs, v.rows[lo], v.rows[hi])
		}
		if v.weights != nil {
			res.TouchF64(v.weights, v.rows[lo], v.rows[hi])
		}
	}
}

// claimChunk prepares one claimed chunk's topology reads: residency advice
// for the bytes it touches and — on a compressed store — decode-cache pins
// covering its rows in every orientation the job iterates. The returned
// tokens (zero-valued when nothing was pinned) must be released once the
// chunk's task invocations finish; holders keep them reachable across an
// abort unwind so cleanup can release them. Claim sites gate on
// jr.needsClaim() to keep in-memory runs branch-cheap.
func (jr *jobRuntime) claimChunk(ch partition.Chunk) (pins [2]store.PinToken, err error) {
	lo, hi, ok := jr.chunkSpan(ch)
	if !ok {
		return
	}
	if jr.res != nil {
		jr.touchSpan(lo, hi)
	}
	if jr.dec == nil {
		return
	}
	for i, v := range jr.views {
		if pins[i], err = jr.dec.Pin(jr.decMach, v.orient, lo, hi); err != nil {
			pins[0].Release() // what an earlier view pinned; a no-op on the zero token
			return [2]store.PinToken{}, err
		}
	}
	return
}

// needsClaim reports whether chunk claims must go through claimChunk.
func (jr *jobRuntime) needsClaim() bool { return jr.res != nil || jr.dec != nil }
