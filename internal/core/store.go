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
//	ref <  0                 packed: packed := ^ref,
//	                         machine = packed >> 32, offset = uint32(packed)
//
// The packed form realizes the paper's 64-bit global id ("concatenates the
// machine number and the local offset"). An in-memory load's rows are written
// with local and packed refs (buildLocalCSR), and the remote set, when a job
// first needs it, rewrites every member in place into a replica ref. A store
// file's rows hold local and replica refs only: its writer numbered every
// remote node against the file's uncapped set, which the load takes with the
// rows (storeRemoteSet). Every ref consumer accepts all three classes, so a
// ref stays valid for the load's lifetime whichever spelling it was read in.

func packRemote(machine int, offset uint32) int64 {
	return ^(int64(machine)<<32 | int64(offset))
}

// RemoteRef builds a node ref addressing (machine, local offset) directly.
// Kernels normally receive refs from the engine (NbrRef); this constructor
// exists for microbenchmarks and tests that target arbitrary remote slots,
// like the paper's remote random-read bandwidth study (Figure 8a).
func RemoteRef(machine int, offset uint32) int64 { return packRemote(machine, offset) }

func unpackRemote(ref int64) (machine int, offset uint32) {
	packed := ^ref
	return int(packed >> 32), uint32(packed)
}

// orientView is one CSR orientation of a machine's partition: rows has
// numLocal+1 entries and the edges of local node u are refs[rows[u]:rows[u+1]]
// (weights alongside, nil when unweighted). On a compressed store refs is nil
// and the rows of orient (store.OrientOut/OrientIn) come through a rowReader.
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

	// remote is the set of remote addresses the rows reference: built by the
	// first job that can use it on an in-memory load, read off the file by a
	// store load (remoteset.go). top, when non-nil
	// (Config.GhostCount), is a bitmap over global ids of the only vertices it
	// may hold.
	remote *remoteSet
	top    []uint64
}

// buildLocalStore extracts machine me's partition from the global graph.
func buildLocalStore(g *graph.Graph, layout partition.Layout, me int) *localStore {
	lo, hi := layout.Range(me)
	return newLocalStore(me, layout, buildLocalCSR(&g.Out, layout, lo, hi), buildLocalCSR(&g.In, layout, lo, hi))
}

// newLocalStore wraps machine me's two CSR orientations and derives the
// O(numLocal) metadata from their rows: degrees and the both-orientation prefix.
func newLocalStore(me int, layout partition.Layout, out, in orientView) *localStore {
	out.orient, in.orient = store.OrientOut, store.OrientIn
	numLocal := len(out.rows) - 1
	s := &localStore{
		me:       me,
		layout:   layout,
		numLocal: numLocal,
		views:    [2]orientView{out, in},
		bothRows: make([]int64, numLocal+1),
		outDeg:   make([]int32, numLocal),
		inDeg:    make([]int32, numLocal),
	}
	for u := 0; u < numLocal; u++ {
		s.outDeg[u] = int32(out.rows[u+1] - out.rows[u])
		s.inDeg[u] = int32(in.rows[u+1] - in.rows[u])
		s.bothRows[u+1] = s.bothRows[u] + int64(s.outDeg[u]) + int64(s.inDeg[u])
	}
	return s
}

// buildLocalCSR rebases csr rows [lo, hi) to local indexing and rewrites
// every neighbor into the ref encoding: owned → local index, otherwise
// remote (machine, offset).
func buildLocalCSR(csr *graph.CSR, layout partition.Layout, lo, hi graph.NodeID) orientView {
	numLocal := int(hi - lo)
	rows := make([]int64, numLocal+1)
	base := csr.Rows[lo]
	for u := 0; u <= numLocal; u++ {
		rows[u] = csr.Rows[int(lo)+u] - base
	}
	m := rows[numLocal]
	refs := make([]int64, m)
	var weights []float64
	if csr.Weights != nil {
		weights = make([]float64, m)
		copy(weights, csr.Weights[base:base+m])
	}
	for i := int64(0); i < m; i++ {
		v := csr.Cols[base+i]
		if v >= lo && v < hi {
			refs[i] = int64(v - lo)
			continue
		}
		owner := layout.Owner(v)
		refs[i] = packRemote(owner, v-layout.Starts[owner])
	}
	return orientView{rows: rows, refs: refs, weights: weights}
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
// through the remote set (which exists once any row holds one), a packed ref as
// it is spelled.
func (s *localStore) owner(ref int64) (int, uint32) {
	if ref >= 0 {
		ref = s.remote.addr[ref-int64(s.numLocal)]
	}
	return unpackRemote(ref)
}
