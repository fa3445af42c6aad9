package core

import (
	mathbits "math/bits"

	"repro/internal/obs"
)

// The graph is fixed for the life of a load, so the remote addresses a
// machine's rows reference are too: a remoteSet records them once per iterator
// kind, and a job whose rows touch most of them resolves its remote accesses
// per address instead of per edge — reads through a mirror filled before any
// row runs (mirror.go), reductions through per-worker accumulators shipped
// when the worker runs dry (accum.go). This is the engine's one replica
// mechanism: §3.3's selective ghosts — copy the owner's value in before the
// step, privatize reductions per thread and fold them out after it — with
// membership decided per machine by what its rows reference rather than
// cluster-wide by a degree threshold, over the ordinary read and write paths.
// Config.GhostCount caps membership at the highest-degree vertices, the
// paper's selection; a ref outside the set, a reduction into an undeclared
// property and an ineligible job stay on demand. A remote read of an undeclared
// property has no path at all: its owner refuses it (serveReads).

// remoteSet is the set of distinct remote addresses the rows of one iterator
// kind reference on this machine, as a rank bitmap per owner: membership and
// the address's dense slot are two loads and a popcount, about 1.5 bits per
// non-owned node.
type remoteSet struct {
	peers []peerSet // by owner machine; this machine's entry is empty
	size  int       // distinct addresses = slots per mirror or accumulator
	refs  int64     // refs to them in the scanned rows, with multiplicity
	edges int64     // all refs in the scanned rows
}

// peerSet is one owner's part of a remoteSet over its offset range: bit off of
// bits is set when (owner, off) is referenced, rank[w] counts the members
// below word w, and the owner's first member has slot base.
type peerSet struct {
	bits []uint64
	rank []uint32
	base int
}

// noRemoteSet is the set of a job that resolves nothing against one: no ref is
// a member.
var noRemoteSet remoteSet

// slot returns the dense slot of the owner's offset off, or -1 when the set does
// not hold it and the access must go on demand. Small enough to inline into
// its two callers, RemoteView.Word and Writer.Write, which pick the owner.
func (p *peerSet) slot(off uint32) int {
	w := int(off >> 6)
	if w >= len(p.bits) || p.bits[w]>>(off&63)&1 == 0 {
		return -1
	}
	return p.base + int(p.rank[w]) + mathbits.OnesCount64(p.bits[w]&(1<<(off&63)-1))
}

// each calls fn for the owner's members in words [lo, hi) of its bitmap, in
// ascending offset — and so ascending slot — order.
func (p *peerSet) each(lo, hi int, fn func(off uint32, slot int)) {
	for wd := lo; wd < hi; wd++ {
		slot := p.base + int(p.rank[wd])
		for word := p.bits[wd]; word != 0; word &= word - 1 {
			fn(uint32(wd<<6+trailingZeros64(word)), slot)
			slot++
		}
	}
}

// buildRemoteSet scans every row jr's iterator walks on this machine, chunk by
// chunk behind the chunk's claim and through a row reader like a worker would,
// so in-memory, raw and compressed loads build the same way; under
// Config.GhostCount only the load's top vertices become members. Once per load
// and iterator kind, on the main goroutine of the first job that could use it
// (the remote_set_build span, whose arg is the refs scanned).
func (m *Machine) buildRemoteSet(jr *jobRuntime) (*remoteSet, error) {
	t := m.cfg.Obs.Clock()
	layout, top := m.store.layout, m.store.top
	s := &remoteSet{peers: make([]peerSet, m.cfg.NumMachines)}
	for d := range s.peers {
		if lo, hi := layout.Range(d); d != m.id {
			s.peers[d].bits = make([]uint64, (int(hi-lo)+63)/64)
		}
	}
	rd := jr.readers(m.id)
	defer rd.release()
	for _, ch := range m.chunks[jr.spec.Iter] {
		jr.claimChunk(m.id, ch)
		for i := range jr.views {
			for node := ch.Begin; node < ch.End; node++ {
				refs, err := rd[i].refs(node)
				if err != nil {
					return nil, err
				}
				s.edges += int64(len(refs))
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
					s.peers[mach].bits[off>>6] |= 1 << (off & 63)
					s.refs++
				}
			}
		}
	}
	for d := range s.peers {
		p := &s.peers[d]
		p.base, p.rank = s.size, make([]uint32, len(p.bits))
		for w, word := range p.bits {
			p.rank[w] = uint32(s.size - p.base)
			s.size += mathbits.OnesCount64(word)
		}
	}
	m.cfg.Obs.Span(m.id, obs.WorkerMain, obs.SpanRemoteSetBuild, jr.id, t, uint64(s.edges))
	return s, nil
}

// remoteJob decides, from this machine's state alone, whether jr resolves its
// remote accesses against the remote set of its iterator, and sets it up for
// that: declared read properties are mirrored (mirrorJob), declared write
// properties accumulate per worker — unless one activates. Folding an
// activating write would lose nothing (every remote write applies, and
// activates, only in the owner's drain), but measured it removed 5 % of the
// applied writes on microstep and made it slower (EXPERIMENTS.md, "Activation
// with accumulation ...: measured, not done"). Eligible is an edge iterator whose rows hold at least as many remote refs as
// the set has addresses, so that resolving every address once costs no more
// than resolving each ref: every full scan, and a bitmap-filtered frontier
// whose degree sum times the rows' remote share says so; never a sparse member
// list, a single machine or an empty set. The set is built here when the load
// has none yet, and a failed build fails the job.
func (m *Machine) remoteJob(jr *jobRuntime) {
	spec := jr.spec
	accumulate := len(spec.WriteProps) > 0 && jr.activate == nil
	if len(spec.ReadProps) == 0 && !accumulate || len(jr.views) == 0 || m.cfg.NumMachines == 1 ||
		jr.frontList != nil || m.cfg.Ablate.Has(AblateRemoteSets) {
		return
	}
	set := m.store.remoteSets[spec.Iter]
	if set == nil {
		var err error
		if set, err = m.buildRemoteSet(jr); err != nil {
			m.abortJob(jr, err)
			return
		}
		m.store.remoteSets[spec.Iter] = set
	}
	if src := spec.Source; src != nil {
		mf, deg := src.machines[m.id], int64(0)
		for _, v := range jr.views {
			deg += [2]int64{mf.outDegSum, mf.inDegSum}[v.orient] // store.OrientOut, OrientIn
		}
		if float64(deg)*float64(set.refs) < float64(set.size)*float64(set.edges) {
			return
		}
	}
	if set.size == 0 {
		return
	}
	if accumulate {
		jr.accSet = set
	}
	if len(spec.ReadProps) > 0 {
		m.mirrorJob(jr, set)
	}
}
