package partition

import (
	"sort"

	"repro/internal/graph"
)

// GhostSet is a cluster-wide selection of high-degree vertices (paper §3.3,
// "Selective Ghost Node"): the vertices worth a replica on the machines that
// reference them, chosen once, at load. The engine replicates through per-load
// remote sets and uses a selection only to cap them: core.Cluster.LoadPlan
// takes one as the only vertices a machine may replicate (Figure 6a's sweep),
// and the empty set replicates nothing.
type GhostSet struct {
	// Nodes lists the selected global vertex ids in ascending order.
	Nodes []graph.NodeID
}

// SelectGhosts returns the paper's selection for g at the given degree
// threshold: every vertex with in-degree > threshold or out-degree >
// threshold. A negative threshold selects every vertex with any edge; an
// impossibly large one nothing.
func SelectGhosts(g *graph.Graph, threshold int64) *GhostSet {
	gs := &GhostSet{}
	for u := 0; u < g.NumNodes(); u++ {
		v := graph.NodeID(u)
		if g.InDegree(v) > threshold || g.OutDegree(v) > threshold {
			gs.Nodes = append(gs.Nodes, v)
		}
	}
	return gs
}

// SelectTopGhosts returns (at most) the k vertices of highest max(in,out)
// degree, ties broken toward the lower id; isolated vertices are never
// selected.
func SelectTopGhosts(g *graph.Graph, k int) *GhostSet {
	if k <= 0 {
		return &GhostSet{}
	}
	type nd struct {
		id  graph.NodeID
		deg int64
	}
	all := make([]nd, g.NumNodes())
	for u := range all {
		v := graph.NodeID(u)
		all[u] = nd{id: v, deg: max(g.InDegree(v), g.OutDegree(v))}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].deg != all[j].deg {
			return all[i].deg > all[j].deg
		}
		return all[i].id < all[j].id
	})
	k = min(k, len(all))
	ids := make([]graph.NodeID, 0, k)
	for _, p := range all[:k] {
		if p.deg == 0 {
			break
		}
		ids = append(ids, p.id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return &GhostSet{Nodes: ids}
}
