package core

import (
	mathbits "math/bits"

	"repro/internal/store"
)

// The graph is fixed for the life of a load, so the remote addresses a
// machine's rows reference are too: a remoteSet numbers them once per load,
// and a job whose rows touch most of them resolves its remote accesses per
// address instead of per edge — reads through replica words filled before any
// row runs (mirror.go), reductions through per-worker accumulators shipped when
// the worker runs dry (accum.go); a property's column holds one word per
// member behind its owned words for either (column). This is the engine's one
// replica mechanism: §3.3's selective ghosts — copy the owner's value in before
// the step, privatize reductions per thread and fold them out after it — with
// membership decided per machine by what its rows reference rather than
// cluster-wide by a degree threshold, over the ordinary read and write paths.
// A load's ghost set (Cluster.LoadPlan) caps membership, the paper's
// selection; a ref outside the set, a reduction into an undeclared
// property and an ineligible job stay on demand. A remote read of an undeclared
// property has no path at all: its owner refuses it (serveReads).
//
// A member's slot is its index among the replicas, and rows name it as one: a
// member ref is numLocal + slot, a replica ref (store.go), so that a column
// laid out [owned words | replicas] answers a neighbour of either kind with one
// indexed access. The numbering is the store's (store.SectionOf for an
// in-memory load, the file's writer for a store file): every load installs
// rows already numbered and the set their section describes, so a kernel is
// handed the rows as they lie.

// remoteSet is the load's table of the distinct remote addresses its rows
// reference, in both orientations: per slot the packed ref, the way back, and
// per owner the slot range its members hold — slots ascend with (owner,
// offset), so owner d's members are the slots [base[d], base[d+1]). iters
// holds, per edge iterator kind, the members its rows reference and the counts
// eligibility weighs: a job fetches and ships only those.
type remoteSet struct {
	numLocal int
	addr     []int64 // by slot: the member's packed ref
	base     []int   // by owner machine, P+1 entries: the owner's first slot
	iters    [IterBothEdges + 1]iterSet
}

// iterSet is the part of the remote set one edge iterator's rows reference.
type iterSet struct {
	slots []uint64 // bitmap over slots: the members
	size  int      // distinct addresses
	refs  int64    // refs to them in the rows, with multiplicity
	edges int64    // all refs in the rows
}

// newRemoteSet is the remote set a machine's section describes — its own slot
// table and counts — for numLocal owned nodes of a p-machine layout: O(S + P).
func newRemoteSet(numLocal, p int, sec store.Section) *remoteSet {
	s := &remoteSet{numLocal: numLocal, addr: sec.Addr, base: make([]int, p+1)}
	for _, a := range sec.Addr {
		mach, _ := store.UnpackRef(a)
		s.base[mach+1]++
	}
	for d := range p {
		s.base[d+1] += s.base[d]
	}
	out := iterSet{slots: sec.OutSlots, refs: sec.OutReplicas, edges: sec.OutRows[numLocal]}
	in := iterSet{slots: sec.InSlots, refs: sec.InReplicas, edges: sec.InRows[numLocal]}
	both := iterSet{slots: make([]uint64, len(out.slots)), refs: out.refs + in.refs, edges: out.edges + in.edges}
	for w := range both.slots {
		both.slots[w] = out.slots[w] | in.slots[w]
	}
	s.iters[IterOutEdges], s.iters[IterInEdges], s.iters[IterBothEdges] = out, in, both
	for it := range s.iters {
		for _, word := range s.iters[it].slots {
			s.iters[it].size += mathbits.OnesCount64(word)
		}
	}
	return s
}

// eachSlot calls fn for every slot in [lo, hi) set in bits, in ascending order.
func eachSlot(bits []uint64, lo, hi int, fn func(slot int)) {
	for w := lo >> 6; w<<6 < hi; w++ {
		word := bits[w]
		if w == lo>>6 {
			word &^= 1<<(lo&63) - 1
		}
		if (w+1)<<6 > hi {
			word &= 1<<(hi&63) - 1
		}
		for ; word != 0; word &= word - 1 {
			fn(w<<6 + trailingZeros64(word))
		}
	}
}

// remoteJob decides, from this machine's state alone, whether jr resolves its
// remote accesses against the load's remote set, and sets it up for that:
// declared read properties are mirrored into their columns' tails (mirrorJob),
// declared write properties accumulate per worker — worker 0 in the column's
// tail — unless one activates. Folding an activating write would lose nothing
// (every remote write applies, and activates, only in the owner's drain), but
// measured it removed 5 % of the applied writes on microstep and made it
// slower (EXPERIMENTS.md, "Activation with accumulation ...: measured, not
// done").
//
// Eligible is an edge iterator whose rows hold at least as many remote refs as
// its iterator's members number, so that resolving every address once costs no
// more than resolving each ref: every full scan, and a bitmap-filtered frontier
// whose degree sum times the rows' remote share says so; never a sparse member
// list, a single machine or an iterator with no member.
func (m *Machine) remoteJob(jr *jobRuntime) {
	spec := jr.spec
	accumulate := len(spec.WriteProps) > 0 && jr.activate == nil
	if len(spec.ReadProps) == 0 && !accumulate || len(jr.views) == 0 || m.cfg.NumMachines == 1 ||
		jr.frontList != nil {
		return
	}
	set := m.store.remote
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
