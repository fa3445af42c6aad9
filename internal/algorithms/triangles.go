package algorithms

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/reduce"
)

// Triangle counting exercises the engine's general task framework beyond
// neighborhood iteration (paper §6: "extend the compiler so that it can
// even translate algorithms that are not neighborhood iterating into PGX.D
// using our general task framework") combined with remote method invocation
// — the "moving computation instead of data" technique of §2: instead of
// pulling a remote vertex's whole adjacency list, the kernel ships its own
// list to the data and the copier-side handler runs the intersection there.
// The handler only reads, as an RMI handler must (core.Cluster.RegisterRMI);
// the partial counts travel back in the response and the caller writes them.
//
// Counted quantity: transitive triads — ordered triples (u, v, w) with
// edges u→v, u→w, and v→w, each triad attributed to its (u, v) edge. On a
// symmetric graph this is 6x the undirected triangle count.

// triPayload layout: dst local offset (4B) then count (4B) then count
// sorted global ids (4B each).
const triHeaderBytes = 8

// triangleKernel runs over u's out-row: for each edge u→v it intersects
// sortedAdj(u) with sortedAdj(v). A local v intersects in place, into a
// register folded into u's count after the loop; a remote v ships adj(u) in
// buffer-sized chunks via RMI and accumulates returned counts.
type triangleKernel struct {
	adj      [][]graph.NodeID // sorted out-adjacency by global id (shared, read-only)
	count    core.PropID
	method   uint32
	chunkIDs int // max ids per RMI payload
}

func (k *triangleKernel) RunRows(c *core.Ctx, rows *core.Cursor) {
	for rows.Next() {
		list := k.adj[c.NodeGlobal()]
		var local int64
		for _, ref := range rows.Row().Refs {
			if !c.IsRemote(ref) {
				local += int64(intersectSorted(list, k.adj[c.RefGlobal(ref)]))
				continue
			}
			mach, off := c.SplitRemoteRef(ref)
			// Ship the adjacency in chunks; every chunk is an independent RMI whose
			// response adds a partial count. No per-edge state machine is needed —
			// the engine's outstanding-request tracking covers completion.
			for base := 0; base < len(list); base += k.chunkIDs {
				end := min(base+k.chunkIDs, len(list))
				payload := make([]byte, triHeaderBytes+4*(end-base))
				binary.LittleEndian.PutUint32(payload[0:4], off)
				binary.LittleEndian.PutUint32(payload[4:8], uint32(end-base))
				for i, w := range list[base:end] {
					binary.LittleEndian.PutUint32(payload[triHeaderBytes+4*i:], w)
				}
				c.CallRMI(mach, k.method, payload)
			}
		}
		// CallRMI is a re-entrancy point (RMIDone may have added to the count
		// meanwhile), so the own-node count is read only now.
		if local > 0 {
			c.SetI64(k.count, c.GetI64(k.count)+local)
		}
	}
}

func (k *triangleKernel) ReadDone(c *core.Ctx, val uint64) {
	panic("algorithms: triangle kernel issues no reads")
}

// RMIDone accumulates a chunk's intersection count into the current node.
func (k *triangleKernel) RMIDone(c *core.Ctx, payload []byte) {
	n := int64(binary.LittleEndian.Uint32(payload))
	if n > 0 {
		c.SetI64(k.count, c.GetI64(k.count)+n)
	}
}

// intersectSorted returns |a ∩ b| for ascending unique-element slices.
func intersectSorted(a, b []graph.NodeID) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// TriangleCount counts transitive triads on the cluster. g must be the same
// graph instance loaded into c (the algorithm precomputes sorted adjacency
// sets from it; the engine stores only rewritten refs).
func TriangleCount(c *core.Cluster, g *graph.Graph) (int64, Metrics, error) {
	if g.NumNodes() != c.NumNodes() || g.NumEdges() != c.NumEdges() {
		return 0, Metrics{}, fmt.Errorf("algorithms: graph does not match the loaded instance")
	}
	r := &runner{c: c}
	defer r.dropProps()
	count := r.propI64("tri_count")
	if r.err != nil {
		return 0, r.met, r.err
	}
	c.FillI64(count, 0)

	adj := sortedUniqueAdjacency(g)
	layout := c.Layout()
	// RMI handler: intersect the shipped list with the target's adjacency.
	method := c.RegisterRMI(func(m *core.Machine) comm.RMIHandler {
		return func(src int, payload []byte) []byte {
			off := binary.LittleEndian.Uint32(payload[0:4])
			n := int(binary.LittleEndian.Uint32(payload[4:8]))
			v := layout.GlobalOf(machineID(m), off)
			mine := adj[v]
			cnt := 0
			i := 0
			for rec := 0; rec < n; rec++ {
				w := graph.NodeID(binary.LittleEndian.Uint32(payload[triHeaderBytes+4*rec:]))
				for i < len(mine) && mine[i] < w {
					i++
				}
				if i < len(mine) && mine[i] == w {
					cnt++
					i++
				}
			}
			out := make([]byte, 4)
			binary.LittleEndian.PutUint32(out, uint32(cnt))
			return out
		}
	})

	// Chunk so header+ids fit one message buffer.
	chunkIDs := (c.Config().BufferSize - comm.HeaderSize - triHeaderBytes) / 4
	if chunkIDs < 1 {
		return 0, r.met, fmt.Errorf("algorithms: buffer too small for triangle RMI")
	}
	start := nowFn()
	r.run(core.JobSpec{
		Name: "triangles",
		Iter: core.IterOutEdges,
		Task: &triangleKernel{adj: adj, count: count, method: method, chunkIDs: chunkIDs},
	})
	r.met.Iterations = 1
	if r.err != nil {
		return 0, r.met, r.err
	}
	total, err := c.ReduceI64(count, reduce.Sum)
	r.met.Total = nowFn().Sub(start)
	if err != nil {
		return 0, r.met, err
	}
	return total, r.met, nil
}

// sortedUniqueAdjacency builds each node's out-neighborhood as a sorted set
// (duplicate multi-edges collapse — a triad closes or it does not).
func sortedUniqueAdjacency(g *graph.Graph) [][]graph.NodeID {
	adj := make([][]graph.NodeID, g.NumNodes())
	for u := 0; u < g.NumNodes(); u++ {
		nbrs := g.Out.Neighbors(graph.NodeID(u))
		if len(nbrs) == 0 {
			continue
		}
		set := make([]graph.NodeID, len(nbrs))
		copy(set, nbrs)
		sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
		// Deduplicate in place.
		out := set[:1]
		for _, v := range set[1:] {
			if v != out[len(out)-1] {
				out = append(out, v)
			}
		}
		adj[u] = out
	}
	return adj
}

// TriangleCountReference counts transitive triads sequentially for tests
// and the SA baseline row. Like the distributed kernel it visits every
// stored edge (multi-edges each count) but intersects deduplicated
// neighbor sets.
func TriangleCountReference(g *graph.Graph) int64 {
	adj := sortedUniqueAdjacency(g)
	var total int64
	for u := 0; u < g.NumNodes(); u++ {
		for _, v := range g.Out.Neighbors(graph.NodeID(u)) {
			total += int64(intersectSorted(adj[u], adj[v]))
		}
	}
	return total
}

// machineID extracts a machine's id for RMI handlers; kept as a helper so
// the handler closure reads clearly.
func machineID(m *core.Machine) int { return m.ID() }
