package core

import (
	"slices"

	"repro/internal/graph"
	"repro/internal/partition"
)

// Frontier is a first-class active-vertex set for filtered supersteps. The
// paper's traversal algorithms emulate frontiers with dense i64 "active"
// properties and a full O(V) filter scan per superstep; a Frontier instead
// tracks membership explicitly, partitioned like the vertices, so a job with
// Source set iterates only frontier chunks and a job with Build slots
// collects the next frontier as a side effect of its kernel (Ctx.Activate).
//
// Each machine's partition is hybrid: a sorted sparse vertex list while the
// local frontier is small, an O(numLocal/8)-byte dense bitmap once it
// crosses the density threshold (frontierDenseFraction). The switch
// is automatic and per machine — a skewed superstep can be sparse on one
// machine and dense on another.
//
// Frontiers are bound to the loaded graph: create them after Load, and drop
// all references after a re-Load. Membership mutation happens either driver-
// side (Reset/Add/Fill, sequential regions only) or engine-side through
// JobSpec.Build; the two must not interleave with a running job.
type Frontier struct {
	name     string
	c        *Cluster
	machines []*machineFrontier
}

// FrontierStats summarizes one frontier cluster-wide: member count and the
// summed full degrees of its members. The degree sums are the inputs of the
// direction-optimizing heuristic (frontier out-degree vs. unvisited
// in-degree); jobs that build frontiers return them in JobStats.Frontiers,
// computed by piggybacking on the write-drain allreduce so they cost no
// extra collective.
type FrontierStats struct {
	// Count is the number of member vertices.
	Count int64
	// OutDeg is the sum of members' out-degrees.
	OutDeg int64
	// InDeg is the sum of members' in-degrees.
	InDeg int64
}

// NewFrontier creates an empty frontier over the loaded graph. The name
// appears in error messages only.
func (c *Cluster) NewFrontier(name string) *Frontier {
	if !c.loaded {
		panic("core: NewFrontier before Load")
	}
	f := &Frontier{name: name, c: c, machines: make([]*machineFrontier, len(c.machines))}
	for i, m := range c.machines {
		f.machines[i] = newMachineFrontier(m.store, c.cfg.Workers)
	}
	return f
}

// Reset empties the frontier. Driver-side (sequential regions only).
func (f *Frontier) Reset() {
	for _, mf := range f.machines {
		mf.clear()
	}
}

// Add inserts one vertex by global id. Driver-side.
func (f *Frontier) Add(v graph.NodeID) {
	owner := f.c.layout.Owner(v)
	f.machines[owner].add(uint32(f.c.layout.LocalOffset(v)))
}

// Fill resets the frontier and inserts every vertex for which pred returns
// true (every vertex when pred is nil). Driver-side; pred must be safe for
// concurrent calls.
func (f *Frontier) Fill(pred func(graph.NodeID) bool) {
	f.c.mustParallel(func(m *Machine) {
		mf := f.machines[m.id]
		mf.clear()
		for i := 0; i < m.store.numLocal; i++ {
			if pred == nil || pred(m.store.globalOf(uint32(i))) {
				mf.add(uint32(i))
			}
		}
	})
}

// Stats sums the frontier's count and degree totals across machines.
// Driver-side initialization/diagnostics — supersteps get the same numbers
// from JobStats.Frontiers, via the collective path.
func (f *Frontier) Stats() FrontierStats {
	var st FrontierStats
	for _, mf := range f.machines {
		st.Count += int64(mf.count)
		st.OutDeg += mf.outDegSum
		st.InDeg += mf.inDegSum
	}
	return st
}

// Count returns the cluster-wide member count (driver-side).
func (f *Frontier) Count() int64 { return f.Stats().Count }

// Subtract removes o's members from f, machine-parallel. Driver-side
// (sequential regions only) — the incremental complement-set maintenance
// traversals need: after each superstep builds the newly-reached frontier,
// subtracting it from the unvisited set costs O(min(|o|, V/64)) per machine
// instead of a rebuild scan.
func (f *Frontier) Subtract(o *Frontier) {
	f.c.mustParallel(func(m *Machine) {
		f.machines[m.id].subtract(o.machines[m.id])
	})
}

// machineFrontier is one machine's partition of a Frontier.
//
// Invariants outside a build: bits holds the membership bitmap, count the
// member count, and the degree sums cover exactly the members. When !dense,
// sparse additionally holds the sorted member list; when dense it is empty
// (iteration walks the bitmap).
type machineFrontier struct {
	st             *localStore
	denseThreshold int

	dense     bool
	count     int
	sparse    []uint32
	bits      []uint64
	outDegSum int64
	inDegSum  int64

	// shards are the per-worker build lists: Ctx.Activate appends the node to
	// its worker's shard with no synchronization, and finalize merges them.
	// Duplicate activations (a kernel activating per edge, or from several
	// continuations) are deduplicated there.
	shards [][]uint32

	// scratch for frontier chunk construction, reused across supersteps.
	prefixScratch []int64
	chunkScratch  []partition.Chunk
}

func newMachineFrontier(st *localStore, workers int) *machineFrontier {
	return &machineFrontier{
		st:             st,
		denseThreshold: max(1, int(frontierDenseFraction*float64(st.numLocal))),
		bits:           make([]uint64, (st.numLocal+63)/64),
		shards:         make([][]uint32, workers),
	}
}

func (mf *machineFrontier) has(node uint32) bool {
	return mf.bits[node>>6]&(1<<(node&63)) != 0
}

// clear empties the membership, using the sparse list to avoid an O(V/64)
// wipe when the frontier is small.
func (mf *machineFrontier) clear() {
	if mf.dense || len(mf.sparse) < len(mf.bits) {
		if mf.dense {
			clear(mf.bits)
		} else {
			for _, v := range mf.sparse {
				mf.bits[v>>6] &^= 1 << (v & 63)
			}
		}
	} else {
		clear(mf.bits)
	}
	mf.dense = false
	mf.count = 0
	mf.sparse = mf.sparse[:0]
	mf.outDegSum = 0
	mf.inDegSum = 0
}

// add inserts local node idempotently, flipping to dense at the threshold.
func (mf *machineFrontier) add(node uint32) {
	if mf.has(node) {
		return
	}
	mf.bits[node>>6] |= 1 << (node & 63)
	mf.count++
	mf.outDegSum += int64(mf.st.outDeg[node])
	mf.inDegSum += int64(mf.st.inDeg[node])
	if !mf.dense {
		mf.sparse = append(mf.sparse, node)
		if mf.count >= mf.denseThreshold {
			mf.dense = true
			mf.sparse = mf.sparse[:0]
		}
	}
}

// beginBuild resets the per-worker shards for a job that builds this
// frontier. The old membership survives until finalize so a job may read one
// frontier while (re)building it.
func (mf *machineFrontier) beginBuild() {
	for i := range mf.shards {
		if mf.shards[i] == nil {
			mf.shards[i] = make([]uint32, 0, 256)
		} else {
			mf.shards[i] = mf.shards[i][:0]
		}
	}
}

// finalize replaces the membership with the union of the build shards,
// deduplicating through the bitmap and restoring the sorted-sparse/dense
// invariant. Runs on the machine's main goroutine after its workers joined;
// the drain's write-activations add to the result (applyWrites).
func (mf *machineFrontier) finalize() {
	mf.clear()
	for _, shard := range mf.shards {
		for _, v := range shard {
			mf.add(v)
		}
	}
	mf.sortSparse()
}

// sortSparse restores the sorted-sparse invariant after adds.
func (mf *machineFrontier) sortSparse() {
	if !mf.dense && len(mf.sparse) > 1 {
		slices.Sort(mf.sparse)
	}
}

// subtract removes o's members from this machine's partition, keeping the
// count/degree-sum/sparse invariants. o's bitmap is always valid regardless
// of its representation, so membership tests are O(1); a dense frontier that
// shrinks below the threshold flips back to sparse by rescanning its bitmap.
func (mf *machineFrontier) subtract(o *machineFrontier) {
	if mf.count == 0 || o.count == 0 {
		return
	}
	if !mf.dense {
		keep := mf.sparse[:0]
		for _, v := range mf.sparse {
			if o.has(v) {
				mf.bits[v>>6] &^= 1 << (v & 63)
				mf.count--
				mf.outDegSum -= int64(mf.st.outDeg[v])
				mf.inDegSum -= int64(mf.st.inDeg[v])
			} else {
				keep = append(keep, v)
			}
		}
		mf.sparse = keep
		return
	}
	for w := range mf.bits {
		rm := mf.bits[w] & o.bits[w]
		if rm == 0 {
			continue
		}
		mf.bits[w] &^= rm
		for rm != 0 {
			v := uint32(w<<6) + uint32(trailingZeros64(rm))
			rm &= rm - 1
			mf.count--
			mf.outDegSum -= int64(mf.st.outDeg[v])
			mf.inDegSum -= int64(mf.st.inDeg[v])
		}
	}
	if mf.count < mf.denseThreshold {
		mf.dense = false
		mf.sparse = mf.sparse[:0]
		for w, word := range mf.bits {
			for word != 0 {
				mf.sparse = append(mf.sparse, uint32(w<<6)+uint32(trailingZeros64(word)))
				word &= word - 1
			}
		}
	}
}

// listChunks edge-balances the sparse member list for iteration: a prefix
// sum of member degrees under the job's orientation feeds the same
// EdgeChunks cut used for full scans, so a frontier holding one hub still
// splits away from its low-degree peers. Chunk indices address positions in
// the sparse list, not node ids.
func (mf *machineFrontier) listChunks(iter IterKind, workers int) []partition.Chunk {
	n := len(mf.sparse)
	rows := mf.st.rowsFor(iter)
	if rows == nil {
		mf.chunkScratch = partition.AppendNodeChunks(mf.chunkScratch[:0], n, n/(8*workers)+1)
		return mf.chunkScratch
	}
	prefix := mf.prefixScratch
	if cap(prefix) < n+1 {
		prefix = make([]int64, n+1)
	}
	prefix = prefix[:n+1]
	prefix[0] = 0
	for i, v := range mf.sparse {
		prefix[i+1] = prefix[i] + (rows[v+1] - rows[v])
	}
	mf.prefixScratch = prefix
	target := prefix[n]/int64(8*workers) + 1
	mf.chunkScratch = partition.AppendEdgeChunks(mf.chunkScratch[:0], prefix, target)
	return mf.chunkScratch
}

// denseChunks filters a full-scan chunk list down to chunks whose node range
// intersects the bitmap, so workers never claim (or scan) an all-inactive
// chunk. Chunk indices remain node ids; the worker skips clear bits inside
// each surviving chunk.
func (mf *machineFrontier) denseChunks(base []partition.Chunk) []partition.Chunk {
	out := mf.chunkScratch[:0]
	for _, ch := range base {
		if mf.anyInRange(ch.Begin, ch.End) {
			out = append(out, ch)
		}
	}
	mf.chunkScratch = out
	return out
}

// anyInRange reports whether any bit in [lo, hi) is set, testing whole words
// between the boundary masks.
func (mf *machineFrontier) anyInRange(lo, hi uint32) bool {
	if lo >= hi {
		return false
	}
	loW, hiW := lo>>6, (hi-1)>>6
	if loW == hiW {
		mask := (^uint64(0) << (lo & 63)) & (^uint64(0) >> (63 - (hi-1)&63))
		return mf.bits[loW]&mask != 0
	}
	if mf.bits[loW]&(^uint64(0)<<(lo&63)) != 0 {
		return true
	}
	for w := loW + 1; w < hiW; w++ {
		if mf.bits[w] != 0 {
			return true
		}
	}
	return mf.bits[hiW]&(^uint64(0)>>(63-(hi-1)&63)) != 0
}
