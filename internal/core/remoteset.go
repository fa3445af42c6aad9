package core

import (
	mathbits "math/bits"

	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/store"
)

// The graph is fixed for the life of a load, so the remote addresses a
// machine's rows reference are too: a remoteSet numbers them once per load,
// and a job whose rows touch most of them resolves its remote accesses per
// address instead of per edge — reads through a mirror filled before any row
// runs (mirror.go), reductions through per-worker accumulators shipped when the
// worker runs dry (accum.go). This is the engine's one replica mechanism:
// §3.3's selective ghosts — copy the owner's value in before the step,
// privatize reductions per thread and fold them out after it — with membership
// decided per machine by what its rows reference rather than cluster-wide by a
// degree threshold, over the ordinary read and write paths.
// Config.GhostCount caps membership at the highest-degree vertices, the
// paper's selection; a ref outside the set, a reduction into an undeclared
// property and an ineligible job stay on demand. A remote read of an undeclared
// property has no path at all: its owner refuses it (serveReads).
//
// A member's slot is its index among the replicas, and rows name it as one: a
// member ref is numLocal + slot, a replica ref (store.go), so that a mirror
// laid out [owned words | replicas] answers a neighbour of either kind with one
// indexed load. An in-memory load's rows are rewritten so when the set is
// built (buildRemoteSet); a store file's are written so, against the uncapped
// set its section describes, which the load reads off the file
// (storeRemoteSet). Either way a kernel is handed the rows as they lie.

// remoteSet is the load's table of the distinct remote addresses its rows
// reference, in both orientations: per owner a rank bitmap over the owner's
// offset range — membership and the slot are two loads and a popcount, about
// 1.5 bits per non-owned node — and per slot the packed ref, the way back. Slots
// ascend with (owner, offset). iters holds, per edge iterator kind, the members
// its rows reference and the counts eligibility weighs: a job fetches and ships
// only those.
type remoteSet struct {
	numLocal int
	peers    []peerSet // by owner machine; this machine's entry is empty
	addr     []int64   // by slot: the member's packed ref
	iters    [IterBothEdges + 1]iterSet
}

// iterSet is the part of the remote set one edge iterator's rows reference.
type iterSet struct {
	bits  [][]uint64 // by owner: the members, a subset of peers[owner].bits
	size  int        // distinct addresses
	refs  int64      // refs to them in the rows, with multiplicity
	edges int64      // all refs in the rows
}

// peerSet is one owner's part of a remoteSet over its offset range: bit off of
// bits is set when (owner, off) is a member, rank[w] counts the members below
// word w, and the owner's first member has slot base.
type peerSet struct {
	bits []uint64
	rank []uint32
	base int
}

// slot returns the slot of the owner's offset off, or -1 when the set does not
// hold it. Only a packed ref needs it: rewrite, once per in-memory load.
func (p *peerSet) slot(off uint32) int {
	w := int(off >> 6)
	if w >= len(p.bits) || p.bits[w]>>(off&63)&1 == 0 {
		return -1
	}
	return p.base + int(p.rank[w]) + mathbits.OnesCount64(p.bits[w]&(1<<(off&63)-1))
}

// members calls fn for the offsets set in words [lo, hi) of sub, a subset of
// the owner's bitmap, with their slots, in ascending order.
func (p *peerSet) members(sub []uint64, lo, hi int, fn func(off uint32, slot int)) {
	for wd := lo; wd < hi; wd++ {
		base, all := p.base+int(p.rank[wd]), p.bits[wd]
		for word := sub[wd]; word != 0; word &= word - 1 {
			b := trailingZeros64(word)
			fn(uint32(wd<<6+b), base+mathbits.OnesCount64(all&(1<<b-1)))
		}
	}
}

// rewrite rewrites refs in place, every member as its replica ref.
func (s *remoteSet) rewrite(refs []int64) {
	for i, ref := range refs {
		if ref < 0 {
			mach, off := unpackRemote(ref)
			if slot := s.peers[mach].slot(off); slot >= 0 {
				refs[i] = int64(s.numLocal + slot)
			}
		}
	}
}

// orientSets returns the two orientations' member sets of machine me's load,
// empty: per other owner a bitmap over its offset range.
func orientSets(layout partition.Layout, me int) [2]iterSet {
	var orient [2]iterSet // by store.OrientOut, store.OrientIn
	for o := range orient {
		orient[o].bits = make([][]uint64, layout.NumMachines)
		for d := range orient[o].bits {
			if lo, hi := layout.Range(d); d != me {
				orient[o].bits[d] = make([]uint64, (int(hi-lo)+63)/64)
			}
		}
	}
	return orient
}

// newRemoteSet numbers the members of the two orientations' sets: their union,
// per owner ranked so that slots ascend with (owner, offset), and the slot →
// address table.
func newRemoteSet(numLocal int, orient [2]iterSet) *remoteSet {
	s := &remoteSet{numLocal: numLocal, peers: make([]peerSet, len(orient[0].bits))}
	both := iterSet{bits: make([][]uint64, len(s.peers)), refs: orient[0].refs + orient[1].refs, edges: orient[0].edges + orient[1].edges}
	for d := range s.peers {
		p, out, in := &s.peers[d], orient[0].bits[d], orient[1].bits[d]
		p.base, p.rank = both.size, make([]uint32, len(out))
		if out != nil {
			p.bits = make([]uint64, len(out))
		}
		for w := range p.bits {
			p.bits[w] = out[w] | in[w]
			p.rank[w] = uint32(both.size - p.base)
			both.size += mathbits.OnesCount64(p.bits[w])
			orient[0].size += mathbits.OnesCount64(out[w])
			orient[1].size += mathbits.OnesCount64(in[w])
		}
		both.bits[d] = p.bits
	}
	s.addr = make([]int64, 0, both.size)
	for d := range s.peers {
		p := &s.peers[d]
		p.members(p.bits, 0, len(p.bits), func(off uint32, _ int) { s.addr = append(s.addr, packRemote(d, off)) })
	}
	s.iters[IterOutEdges], s.iters[IterInEdges], s.iters[IterBothEdges] = orient[store.OrientOut], orient[store.OrientIn], both
	return s
}

// buildRemoteSet scans both orientations of an in-memory load's rows — under
// Config.GhostCount keeping only the load's top vertices — and rewrites them
// to replica refs against the set it returns. Once per load, on the main
// goroutine of the first job that could use it (the remote_set_build span,
// whose arg is the refs scanned).
func (m *Machine) buildRemoteSet(jr *jobRuntime) *remoteSet {
	t := m.cfg.Obs.Clock()
	st := m.store
	layout, top := st.layout, st.top
	orient := orientSets(layout, m.id)
	for o := range orient {
		is, refs := &orient[o], st.views[o].refs
		is.edges = int64(len(refs))
		for _, ref := range refs {
			if ref >= 0 {
				continue
			}
			mach, off := unpackRemote(ref)
			if top != nil {
				if v := layout.GlobalOf(mach, off); top[v>>6]>>(v&63)&1 == 0 {
					continue
				}
			}
			is.bits[mach][off>>6] |= 1 << (off & 63)
			is.refs++
		}
	}
	s := newRemoteSet(st.numLocal, orient)
	for o := range st.views {
		s.rewrite(st.views[o].refs)
	}
	m.cfg.Obs.Span(m.id, obs.WorkerMain, obs.SpanRemoteSetBuild, jr.id, t, uint64(s.iters[IterBothEdges].edges))
	return s
}

// storeRemoteSet is a store load's remote set, read off machine st.me's file
// section: the file numbers every remote node either orientation references —
// the set buildRemoteSet builds at GhostCount 0 — and Open's scan recorded
// which slots each orientation names and how often, so the set costs O(S +
// N/64) and no row read.
func storeRemoteSet(st *localStore, sec store.Section) *remoteSet {
	orient := orientSets(st.layout, st.me)
	for o, slots := range [2][]uint64{sec.OutSlots, sec.InSlots} {
		is := &orient[o]
		is.refs, is.edges = [2]int64{sec.OutReplicas, sec.InReplicas}[o], st.views[o].rows[st.numLocal]
		for w, word := range slots {
			for ; word != 0; word &= word - 1 {
				mach, off := unpackRemote(sec.Addr[w<<6+trailingZeros64(word)])
				is.bits[mach][off>>6] |= 1 << (off & 63)
			}
		}
	}
	return newRemoteSet(st.numLocal, orient)
}

// remoteJob decides, from this machine's state alone, whether jr resolves its
// remote accesses against the load's remote set, and sets it up for that:
// declared read properties are mirrored (mirrorJob), declared write properties
// accumulate per worker — unless one activates. Folding an activating write
// would lose nothing (every remote write applies, and activates, only in the
// owner's drain), but measured it removed 5 % of the applied writes on
// microstep and made it slower (EXPERIMENTS.md, "Activation with accumulation
// ...: measured, not done").
//
// Eligible is an edge iterator whose rows hold at least as many remote refs as
// its iterator's members number, so that resolving every address once costs no
// more than resolving each ref: every full scan, and a bitmap-filtered frontier
// whose degree sum times the rows' remote share says so; never a sparse member
// list, a single machine or an iterator with no member. An in-memory load's set
// is built here when it has none yet; a store load's came with its file.
func (m *Machine) remoteJob(jr *jobRuntime) {
	spec := jr.spec
	accumulate := len(spec.WriteProps) > 0 && jr.activate == nil
	if len(spec.ReadProps) == 0 && !accumulate || len(jr.views) == 0 || m.cfg.NumMachines == 1 ||
		jr.frontList != nil || m.cfg.Ablate.Has(AblateRemoteSets) {
		return
	}
	set := m.store.remote
	if set == nil {
		set = m.buildRemoteSet(jr)
		m.store.remote = set
	}
	is := &set.iters[spec.Iter]
	if src := spec.Source; src != nil {
		mf, deg := src.machines[m.id], int64(0)
		for _, v := range jr.views {
			deg += [2]int64{mf.outDegSum, mf.inDegSum}[v.orient] // store.OrientOut, OrientIn
		}
		if float64(deg)*float64(is.refs) < float64(is.size)*float64(is.edges) {
			return
		}
	}
	if is.size == 0 {
		return
	}
	jr.accumulate = accumulate
	if len(spec.ReadProps) > 0 {
		m.mirrorJob(jr, set, is)
	}
}
