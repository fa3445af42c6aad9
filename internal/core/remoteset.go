package core

import (
	mathbits "math/bits"

	"repro/internal/obs"
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
// built; a store file's cannot be, and a job that uses the set resolves them
// row by row as it reads them (rowReader).

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
// hold it. Only a packed ref needs it: resolve, once per load or row.
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

// resolve writes refs to dst, every member as its replica ref; dst may be refs.
func (s *remoteSet) resolve(dst, refs []int64) {
	for i, ref := range refs {
		if ref < 0 {
			mach, off := unpackRemote(ref)
			if slot := s.peers[mach].slot(off); slot >= 0 {
				ref = int64(s.numLocal + slot)
			}
		}
		dst[i] = ref
	}
}

// buildRemoteSet scans both orientations of this machine's rows, chunk by chunk
// behind the chunk's claim and through row readers like a worker of jr would,
// so in-memory, raw and compressed loads build the same way; under
// Config.GhostCount only the load's top vertices become members. An in-memory
// load's rows are then rewritten to replica refs. Once per load, on the main
// goroutine of the first job that could use it (the remote_set_build span,
// whose arg is the refs scanned).
func (m *Machine) buildRemoteSet(jr *jobRuntime) (*remoteSet, error) {
	t := m.cfg.Obs.Clock()
	st := m.store
	layout, top := st.layout, st.top
	s := &remoteSet{numLocal: st.numLocal, peers: make([]peerSet, m.cfg.NumMachines)}
	var orient [2]iterSet // by store.OrientOut, store.OrientIn
	for o := range orient {
		orient[o].bits = make([][]uint64, len(s.peers))
	}
	for d := range s.peers {
		if lo, hi := layout.Range(d); d != m.id {
			n := (int(hi-lo) + 63) / 64
			s.peers[d].bits = make([]uint64, n)
			orient[0].bits[d], orient[1].bits[d] = make([]uint64, n), make([]uint64, n)
		}
	}
	scan := &jobRuntime{views: st.views[:], ooc: jr.ooc, cursors: jr.cursors}
	var rd rowReaders
	rd.open(scan, m.id)
	defer rd.release()
	for _, ch := range m.chunks[IterBothEdges] {
		scan.claimChunk(m.id, ch)
		for o := range orient {
			is := &orient[o]
			for node := ch.Begin; node < ch.End; node++ {
				refs, err := rd[o].refs(node)
				if err != nil {
					return nil, err
				}
				is.edges += int64(len(refs))
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
		}
	}
	both := iterSet{bits: make([][]uint64, len(s.peers)), refs: orient[0].refs + orient[1].refs, edges: orient[0].edges + orient[1].edges}
	for d := range s.peers {
		p := &s.peers[d]
		p.base, p.rank = both.size, make([]uint32, len(p.bits))
		for w := range p.bits {
			p.bits[w] = orient[0].bits[d][w] | orient[1].bits[d][w]
			p.rank[w] = uint32(both.size - p.base)
			both.size += mathbits.OnesCount64(p.bits[w])
			orient[0].size += mathbits.OnesCount64(orient[0].bits[d][w])
			orient[1].size += mathbits.OnesCount64(orient[1].bits[d][w])
		}
		both.bits[d] = p.bits
	}
	s.addr = make([]int64, 0, both.size)
	for d := range s.peers {
		p := &s.peers[d]
		p.members(p.bits, 0, len(p.bits), func(off uint32, _ int) { s.addr = append(s.addr, packRemote(d, off)) })
	}
	s.iters[IterOutEdges], s.iters[IterInEdges], s.iters[IterBothEdges] = orient[store.OrientOut], orient[store.OrientIn], both
	if m.ooc == nil {
		for o := range st.views {
			s.resolve(st.views[o].refs, st.views[o].refs)
		}
	}
	m.cfg.Obs.Span(m.id, obs.WorkerMain, obs.SpanRemoteSetBuild, jr.id, t, uint64(both.edges))
	return s, nil
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
// list, a single machine or an iterator with no member. The set is built here
// when the load has none yet, and a failed build fails the job. On a store-file
// load an eligible job reads its rows resolved (jobRuntime.resolve).
func (m *Machine) remoteJob(jr *jobRuntime) {
	spec := jr.spec
	accumulate := len(spec.WriteProps) > 0 && jr.activate == nil
	if len(spec.ReadProps) == 0 && !accumulate || len(jr.views) == 0 || m.cfg.NumMachines == 1 ||
		jr.frontList != nil || m.cfg.Ablate.Has(AblateRemoteSets) {
		return
	}
	set := m.store.remote
	if set == nil {
		var err error
		if set, err = m.buildRemoteSet(jr); err != nil {
			m.abortJob(jr, err)
			return
		}
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
	if m.ooc != nil {
		jr.resolve = set
	}
	jr.accumulate = accumulate
	if len(spec.ReadProps) > 0 {
		m.mirrorJob(jr, set, is)
	}
}
