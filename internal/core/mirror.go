package core

import (
	mathbits "math/bits"
	"sync/atomic"

	"repro/internal/obs"
)

// Remote reads of a dense pull, resolved once per superstep instead of once
// per edge. The graph is fixed for the life of a load, so the remote
// addresses a machine's rows reference are too: a readSet records them per
// iterator kind, and a job that would touch most of them first copies every
// declared read property at those addresses into a per-machine mirror — what
// §3.3 does for ghosts ("copies the original values into the ghost nodes
// prior to the execution step"), extended to every remote neighbour. The
// copy rides the ordinary read path (bufferRead → flushRead → serveReads →
// processResponse), so it adds no message type, collective or failure mode;
// kernels then find a mirrored ref's value synchronously (Ctx.ReadRef,
// RemoteView). A ref outside the set, an undeclared property and every job
// that is not mirrored keep the on-demand continuation path.

// readSet is the set of distinct remote addresses the rows of one iterator
// kind reference on this machine, as a rank bitmap per owner: membership and
// the address's mirror slot are two loads and a popcount, about 1.5 bits per
// non-owned node.
type readSet struct {
	peers []peerSet // by owner machine; this machine's entry is empty
	size  int       // distinct addresses = mirror words per read property
	refs  int64     // remote refs in the scanned rows, with multiplicity
	edges int64     // all refs in the scanned rows
}

// peerSet is one owner's part of a readSet over its offset range: bit off of
// bits is set when (owner, off) is referenced, rank[w] counts the members
// below word w, and the owner's first member has mirror slot base.
type peerSet struct {
	bits []uint64
	rank []uint32
	base int
}

// noReadSet is the set of a job that is not mirrored: no ref is a member.
var noReadSet readSet

// buildReadSet scans every row jr's iterator walks on this machine, chunk by
// chunk under the chunk's store claim like a worker would, so in-memory, raw
// and compressed loads build the same way. Once per load and iterator kind,
// on the main goroutine of the first job that could use it.
func (m *Machine) buildReadSet(jr *jobRuntime) (*readSet, error) {
	s := &readSet{peers: make([]peerSet, m.cfg.NumMachines)}
	for d := range s.peers {
		if lo, hi := m.store.layout.Range(d); d != m.id {
			s.peers[d].bits = make([]uint64, (int(hi-lo)+63)/64)
		}
	}
	for _, ch := range m.chunks[jr.spec.Iter] {
		pins, err := jr.claimChunk(m.id, ch)
		if err != nil {
			return nil, err
		}
		for _, v := range jr.views {
			refs := v.refs[v.rows[ch.Begin]:v.rows[ch.End]]
			s.edges += int64(len(refs))
			for _, ref := range refs {
				if ref < 0 {
					mach, off := unpackRemote(ref)
					s.peers[mach].bits[off>>6] |= 1 << (off & 63)
					s.refs++
				}
			}
		}
		pins[0].Release()
		pins[1].Release()
	}
	for d := range s.peers {
		p := &s.peers[d]
		p.base, p.rank = s.size, make([]uint32, len(p.bits))
		for w, word := range p.bits {
			p.rank[w] = uint32(s.size - p.base)
			s.size += mathbits.OnesCount64(word)
		}
	}
	return s, nil
}

// mirrorJob decides, from this machine's state alone, whether jr's workers
// prefetch its read properties before they run a row, and sets the job up for
// it. Eligible is an edge iterator with declared read props whose rows hold at
// least as many remote refs as the read set has addresses: every full scan,
// and a bitmap-filtered frontier whose degree sum times the rows' remote
// share says so. A sparse member list, a single machine and an empty set
// never are. A failed build fails the job.
func (m *Machine) mirrorJob(jr *jobRuntime) {
	spec := jr.spec
	if len(spec.ReadProps) == 0 || len(jr.views) == 0 || m.cfg.NumMachines == 1 ||
		jr.frontList != nil || m.cfg.Ablate.Has(AblateReadMirror) {
		return
	}
	set := m.store.readSets[spec.Iter]
	if set == nil {
		var err error
		if set, err = m.buildReadSet(jr); err != nil {
			m.abortJob(jr, err)
			return
		}
		m.store.readSets[spec.Iter] = set
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
	for i := range spec.ReadProps {
		if i == len(m.mirrors) {
			m.mirrors = append(m.mirrors, nil)
		}
		if buf := m.mirrors[i]; buf == nil || len(buf.vals) < set.size {
			buf.release()
			m.mirrors[i] = newColumn(KindI64, set.size, 0, 0, m.offHeapCols)
		}
	}
	jr.readSet, jr.mirrors = set, m.mirrors[:len(spec.ReadProps)]
	jr.fetching.Store(int32(len(m.workers)))
	jr.fetched = make(chan struct{})
}

// prefetch fills this worker's share of the job's mirrors — a word range of
// every owner's bitmap, for every read property — and then waits until every
// local worker has filled its own: any row may reference any slot. The
// addresses go out in ascending order with combining bypassed (they are
// distinct), the side record carries the mirror slot where a kernel read
// carries its node, and processResponse stores the words instead of running
// continuations.
func (w *worker) prefetch(jr *jobRuntime) {
	t := w.reg.Clock()
	combine := w.combine
	w.combine, w.fetching = false, true
	defer func() { w.combine, w.fetching = combine, false }()
	words, nw := 0, len(w.m.workers)
	for i, p := range jr.spec.ReadProps {
		for d := range jr.readSet.peers {
			ps := &jr.readSet.peers[d]
			for wd := len(ps.bits) * w.id / nw; wd < len(ps.bits)*(w.id+1)/nw; wd++ {
				slot := ps.base + int(ps.rank[wd])
				for word := ps.bits[wd]; word != 0; word &= word - 1 {
					w.bufferRead(d, p, uint32(wd<<6+trailingZeros64(word)), uint32(slot), uint64(i))
					slot++
					words++
				}
			}
		}
	}
	w.awaitReads(jr)
	if jr.fetching.Add(-1) == 0 {
		close(jr.fetched)
	}
	select {
	case <-jr.fetched:
	case <-jr.abortCh:
		w.unwind()
	}
	w.reg.Span(w.m.id, w.id, obs.SpanReadPrefetch, jr.id, t, uint64(words))
	w.reg.Add(w.m.id, obs.CtrMirrorWords, int64(words))
}

// RemoteView answers remote refs of one property out of the job's mirror. It
// is valid for the current job; kernels resolve it once per row, next to the
// typed view of the local and ghost slots.
type RemoteView struct {
	set  *readSet
	vals []atomic.Uint64
}

// Remote returns the mirror view of property p: empty when the job is not
// mirrored or p is not among its ReadProps.
func (c *Ctx) Remote(p PropID) RemoteView {
	if jr := c.w.job; jr.readSet != nil {
		for i, rp := range jr.spec.ReadProps {
			if rp == p {
				return RemoteView{jr.readSet, jr.mirrors[i].vals}
			}
		}
	}
	return RemoteView{set: &noReadSet}
}

// Word returns the mirrored word of remote ref — the owner's value as of the
// prefetch, the rule ghosts already follow — or false when ref is not
// mirrored and must go through Ctx.ReadRef.
func (v RemoteView) Word(ref int64) (uint64, bool) {
	mach, off := unpackRemote(ref)
	if uint(mach) >= uint(len(v.set.peers)) { // also a ref >= 0, which is not remote
		return 0, false
	}
	p := &v.set.peers[mach]
	w, bit := int(off>>6), uint64(1)<<(off&63)
	if w >= len(p.bits) || p.bits[w]&bit == 0 {
		return 0, false
	}
	return v.vals[p.base+int(p.rank[w])+mathbits.OnesCount64(p.bits[w]&(bit-1))].Load(), true
}
