package store

import (
	mathbits "math/bits"

	"repro/internal/graph"
	"repro/internal/partition"
)

// Section is one machine's slice of the graph in the engine's encoding: both
// CSR orientations with refs already in the replica numbering, and what the
// engine's remote set needs besides. File.Section views it in an open file's
// mapping; SectionOf builds it on the heap. A compressed file's Section
// carries rows and weights but nil refs: its refs are read row by row through
// a Cursor.
type Section struct {
	OutRows    []int64
	OutRefs    []int64
	OutWeights []float64 // nil when unweighted
	InRows     []int64
	InRefs     []int64
	InWeights  []float64

	// Addr is the machine's slot → packed address table: ref numLocal + s
	// names the remote node Addr[s], PackRef(machine, offset). Slots ascend
	// with (machine, offset).
	Addr []int64
	// OutSlots and InSlots are bitmaps over Addr's slots, bit s set when some
	// ref of that orientation names slot s — their union is every slot — and
	// OutReplicas and InReplicas count those refs, with multiplicity. A load
	// knows its remote set from them without reading a row.
	OutSlots, InSlots       []uint64
	OutReplicas, InReplicas int64
}

// SectionOf extracts machine me's section of g under layout onto the heap,
// numbered as a file's is: owned neighbours by local index, members by replica
// ref. keep, when non-nil, is a bitmap over global ids of the only remote nodes
// that may be members (the load's ghost set, core.Cluster.LoadPlan; all zero,
// no member at all); a remote neighbour it leaves out stays a packed ref.
func SectionOf(g *graph.Graph, layout partition.Layout, me int, keep []uint64) Section {
	nb := newNumbering(layout, me, keep)
	var sec Section
	sec.OutRows, sec.OutRefs, sec.OutWeights = nb.extract(&g.Out)
	sec.InRows, sec.InRefs, sec.InWeights = nb.extract(&g.In)
	addr, slots, replicas := nb.number([2][]int64{sec.OutRefs, sec.InRefs}, nil)
	sec.Addr = addr
	sec.OutSlots, sec.InSlots = slots[OrientOut], slots[OrientIn]
	sec.OutReplicas, sec.InReplicas = replicas[OrientOut], replicas[OrientIn]
	return sec
}

// numbering is the one replica numbering of machine me's rows: the remote
// nodes they name are marked in a bitmap over global ids, and a node's slot is
// its rank among the marked ones — ascending global id, which is ascending
// (owner, offset).
type numbering struct {
	layout partition.Layout
	me     int
	keep   []uint64 // nil, or the only global ids mark accepts
	bits   []uint64 // the members, by global id
	rank   []int64  // by word of bits: the members in the words before it
	addr   []int64  // number's slot → address table, reused by the next call
}

func newNumbering(layout partition.Layout, me int, keep []uint64) *numbering {
	words := (int(layout.Starts[layout.NumMachines]) + 63) / 64
	return &numbering{layout: layout, me: me, keep: keep, bits: make([]uint64, words), rank: make([]int64, words)}
}

// mark makes remote node v a member, unless keep leaves it out.
func (nb *numbering) mark(v uint32) {
	if nb.keep == nil || nb.keep[v>>6]>>(v&63)&1 != 0 {
		nb.bits[v>>6] |= 1 << (v & 63)
	}
}

// extract copies machine me's rows of csr, rebased to local indexing, with
// every neighbour in the packed spelling (refIn) and every remote one marked.
func (nb *numbering) extract(csr *graph.CSR) (rows, refs []int64, weights []float64) {
	lo, hi := nb.layout.Range(nb.me)
	numLocal := int(hi - lo)
	rows = make([]int64, numLocal+1)
	base := csr.Rows[lo]
	for u := range rows {
		rows[u] = csr.Rows[int(lo)+u] - base
	}
	cols := csr.Cols[base : base+rows[numLocal]]
	refs = make([]int64, len(cols))
	if csr.Weights != nil {
		weights = append([]float64(nil), csr.Weights[base:base+rows[numLocal]]...)
	}
	for i, v := range cols {
		if v >= lo && v < hi {
			refs[i] = int64(v - lo)
			continue
		}
		refs[i] = refIn(nb.layout, nb.me, nb.layout.Owner(v), v)
		nb.mark(v)
	}
	return rows, refs, weights
}

// number ranks the members and rewrites every member's packed ref in refs —
// machine me's two orientations — to numLocal + its slot, in place; a packed
// ref mark left out stays as it is. It returns the slot → packed address
// table, valid until the next call, and per orientation the slots its refs
// name and how many refs name one. done, when non-nil, is called with each
// orientation once it is rewritten.
func (nb *numbering) number(refs [2][]int64, done func(orient int)) (addr []int64, slots [2][]uint64, replicas [2]int64) {
	n := int64(0)
	for w, word := range nb.bits {
		nb.rank[w] = n
		n += int64(mathbits.OnesCount64(word))
	}
	numLocal := int64(nb.layout.NumLocal(nb.me))
	for o, r := range refs {
		slots[o] = make([]uint64, (n+63)/64)
		for i, ref := range r {
			if ref >= 0 {
				continue
			}
			v, _ := nodeOf(nb.layout, nb.me, ref)
			w, bit := v>>6, uint64(1)<<(v&63)
			if nb.bits[w]&bit == 0 {
				continue
			}
			s := nb.rank[w] + int64(mathbits.OnesCount64(nb.bits[w]&(bit-1)))
			r[i] = numLocal + s
			slots[o][s>>6] |= 1 << (s & 63)
			replicas[o]++
		}
		if done != nil {
			done(o)
		}
	}
	addr, owner := nb.addr[:0], 0
	for w, word := range nb.bits {
		for ; word != 0; word &= word - 1 {
			v := uint32(w<<6 + mathbits.TrailingZeros64(word))
			for v >= nb.layout.Starts[owner+1] {
				owner++
			}
			addr = append(addr, PackRef(owner, v-nb.layout.Starts[owner]))
		}
	}
	nb.addr = addr
	return addr, slots, replicas
}
