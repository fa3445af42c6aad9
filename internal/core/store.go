package core

import (
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/store"
)

// Node references inside a machine's local CSR are int64s in three classes, so
// that an owned node and a replicated one are each one indexed load away:
//
//	0 <= ref < numLocal      the local index of an owned node
//	ref >= numLocal          a replica: slot ref - numLocal of the load's remote
//	                         set (remoteset.go), which holds its address
//	ref <  0                 packed (store.PackRef): packed := ^ref,
//	                         machine = packed >> 32, offset = uint32(packed)
//
// The packed form realizes the paper's 64-bit global id ("concatenates the
// machine number and the local offset"). The encoding and the numbering are
// the store's: every load's rows come numbered — a store file's as written, an
// in-memory load's as store.SectionOf extracts them — so a packed ref in a row
// is a remote node outside the remote set, which only a Config.GhostCount cap
// leaves out. Every ref consumer accepts all three classes.

// RemoteRef builds a node ref addressing (machine, local offset) directly.
// Kernels normally receive refs from the engine (Row.Refs); this constructor
// exists for microbenchmarks and tests that target arbitrary remote slots,
// like the paper's remote random-read bandwidth study (Figure 8a).
func RemoteRef(machine int, offset uint32) int64 { return store.PackRef(machine, offset) }

// orientView is one CSR orientation of a machine's partition: rows has
// numLocal+1 entries and the edges of local node u are refs[rows[u]:rows[u+1]]
// (weights alongside, nil when unweighted). On a compressed store refs is nil
// and the rows of orient (store.OrientOut/OrientIn) come through rowReaders.
type orientView struct {
	rows    []int64
	refs    []int64
	weights []float64
	orient  int
}

// localStore is one machine's slice of the distributed graph: the local CSR
// in both orientations with pre-resolved refs, full degrees of owned nodes,
// and the shared partitioning metadata (paper §3.3: "the partitioning
// information [is] shared across all machines").
type localStore struct {
	me       int
	layout   partition.Layout
	numLocal int

	// views are the local CSR's two orientations, indexed by store.OrientOut
	// and store.OrientIn (the transpose restricted to locally-owned heads).
	views [2]orientView

	// bothRows is the prefix-sum of out+in degree per local node — the
	// chunking weight array for IterBothEdges jobs.
	bothRows []int64

	// Full (cluster-wide) degrees of each local node. Because vertex
	// ownership is total — every edge of u lives on u's owner — these equal
	// the local CSR row lengths, but they are kept separately so kernels can
	// ask for degrees in O(1) without touching row arrays.
	outDeg []int32
	inDeg  []int32

	// remote is the set of remote addresses the rows reference, described by
	// the load's section (remoteset.go).
	remote *remoteSet
}

// newLocalStore is the one constructor of a machine's local store, whatever
// the load: it wraps machine me's section — a file's views or store.SectionOf's
// heap arrays — and derives the O(numLocal) metadata from its rows (degrees,
// the both-orientation prefix) and the remote set from its slot table.
func newLocalStore(me int, layout partition.Layout, sec store.Section) *localStore {
	out := orientView{rows: sec.OutRows, refs: sec.OutRefs, weights: sec.OutWeights, orient: store.OrientOut}
	in := orientView{rows: sec.InRows, refs: sec.InRefs, weights: sec.InWeights, orient: store.OrientIn}
	numLocal := len(out.rows) - 1
	s := &localStore{
		me:       me,
		layout:   layout,
		numLocal: numLocal,
		views:    [2]orientView{out, in},
		bothRows: make([]int64, numLocal+1),
		outDeg:   make([]int32, numLocal),
		inDeg:    make([]int32, numLocal),
		remote:   newRemoteSet(numLocal, layout.NumMachines, sec),
	}
	for u := 0; u < numLocal; u++ {
		s.outDeg[u] = int32(out.rows[u+1] - out.rows[u])
		s.inDeg[u] = int32(in.rows[u+1] - in.rows[u])
		s.bothRows[u+1] = s.bothRows[u] + int64(s.outDeg[u]) + int64(s.inDeg[u])
	}
	return s
}

// rowsFor returns the prefix-sum array that weighs nodes by the edges iterator
// it walks — what edge-balanced chunking cuts — or nil for node iteration.
func (s *localStore) rowsFor(it IterKind) []int64 {
	switch it {
	case IterOutEdges:
		return s.views[store.OrientOut].rows
	case IterInEdges:
		return s.views[store.OrientIn].rows
	case IterBothEdges:
		return s.bothRows
	}
	return nil
}

// globalOf converts a local node index to its global id.
func (s *localStore) globalOf(local uint32) graph.NodeID {
	return s.layout.GlobalOf(s.me, local)
}

// owns reports whether ref is the local index of an owned node.
func (s *localStore) owns(ref int64) bool { return uint64(ref) < uint64(s.numLocal) }

// owner returns the machine and offset of a ref that is not owned: a replica
// through the remote set, a packed ref as it is spelled.
func (s *localStore) owner(ref int64) (int, uint32) {
	if ref >= 0 {
		ref = s.remote.addr[ref-int64(s.numLocal)]
	}
	return store.UnpackRef(ref)
}
