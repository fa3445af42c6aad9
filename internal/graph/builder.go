package graph

import (
	"fmt"
	"runtime"
	"sync"
)

// Builder accumulates directed edges and produces an immutable Graph (both
// CSR orientations) with a counting-sort construction that is O(N + M).
// A Builder is not safe for concurrent use; generators that produce edges in
// parallel accumulate into per-worker builders and merge.
type Builder struct {
	n        int
	edges    []Edge
	weighted bool
}

// NewBuilder returns a builder for a graph with n nodes. Edges referencing
// nodes outside [0, n) cause Build to fail.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// NumNodes returns the declared node count.
func (b *Builder) NumNodes() int { return b.n }

// NumEdges returns the number of edges added so far.
func (b *Builder) NumEdges() int { return len(b.edges) }

// AddEdge records the directed edge (src, dst) with weight 0.
func (b *Builder) AddEdge(src, dst NodeID) {
	b.edges = append(b.edges, Edge{Src: src, Dst: dst})
}

// AddEdges appends a batch of edges. If markWeighted is true the resulting
// graph carries weights.
func (b *Builder) AddEdges(edges []Edge, markWeighted bool) {
	if markWeighted {
		b.weighted = true
	}
	b.edges = append(b.edges, edges...)
}

// Build constructs the Graph. The builder may be reused afterwards, but the
// produced graph does not alias the builder's storage.
func (b *Builder) Build() (*Graph, error) {
	if b.n <= 0 {
		return nil, ErrEmptyGraph
	}
	for i, e := range b.edges {
		if int(e.Src) >= b.n || int(e.Dst) >= b.n {
			return nil, fmt.Errorf("graph: edge %d (%d->%d) out of range [0,%d)", i, e.Src, e.Dst, b.n)
		}
	}
	g := &Graph{}
	buildCSR(&g.Out, b.n, b.edges, b.weighted)
	// The transpose is derived from the out-CSR (not the raw edge list) so
	// that in-neighbor lists have a canonical order: the same graph always
	// yields byte-identical CSRs regardless of how it was constructed
	// (builder, binary load, ...).
	transposeInto(&g.In, &g.Out)
	return g, nil
}

// buildCSR counting-sorts edges into CSR form under their source node.
func buildCSR(c *CSR, n int, edges []Edge, weighted bool) {
	c.N = n
	c.Rows = make([]int64, n+1)
	m := len(edges)
	c.Cols = make([]NodeID, m)
	if weighted {
		c.Weights = make([]float64, m)
	} else {
		c.Weights = nil
	}

	key := func(e Edge) NodeID { return e.Src }
	val := func(e Edge) NodeID { return e.Dst }

	// Pass 1: histogram of per-node degrees. Parallel over edge ranges when
	// the edge list is large enough to amortize the goroutine fan-out.
	const parallelThreshold = 1 << 20
	if m >= parallelThreshold {
		workers := runtime.GOMAXPROCS(0)
		partials := make([][]int64, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				counts := make([]int64, n)
				lo, hi := sliceRange(m, workers, w)
				for _, e := range edges[lo:hi] {
					counts[key(e)]++
				}
				partials[w] = counts
			}(w)
		}
		wg.Wait()
		for _, counts := range partials {
			for u, cnt := range counts {
				c.Rows[u+1] += cnt
			}
		}
	} else {
		for _, e := range edges {
			c.Rows[key(e)+1]++
		}
	}

	// Prefix sum.
	for u := 0; u < n; u++ {
		c.Rows[u+1] += c.Rows[u]
	}

	// Pass 2: scatter. Sequential: the write cursor per node makes the
	// parallel variant need atomics that cost more than they save at the
	// scales this reproduction targets.
	cursor := make([]int64, n)
	copy(cursor, c.Rows[:n])
	for _, e := range edges {
		k := key(e)
		pos := cursor[k]
		cursor[k]++
		c.Cols[pos] = val(e)
		if weighted {
			c.Weights[pos] = e.Weight
		}
	}
}

// sliceRange splits length items into parts chunks and returns the half-open
// range of chunk idx. Chunks differ in size by at most one.
func sliceRange(length, parts, idx int) (int, int) {
	base := length / parts
	rem := length % parts
	lo := idx*base + min(idx, rem)
	size := base
	if idx < rem {
		size++
	}
	return lo, lo + size
}

// FromEdges is a convenience constructor: build a graph with n nodes from an
// edge slice in one call.
func FromEdges(n int, edges []Edge, weighted bool) (*Graph, error) {
	b := NewBuilder(n)
	b.AddEdges(edges, weighted)
	return b.Build()
}

// EdgeList materializes the out-orientation edge list of g. Intended for
// tests (round-trip properties) and format conversion, not hot paths.
func (g *Graph) EdgeList() []Edge {
	edges := make([]Edge, 0, g.NumEdges())
	for u := 0; u < g.NumNodes(); u++ {
		nbrs := g.Out.Neighbors(NodeID(u))
		ws := g.Out.EdgeWeights(NodeID(u))
		for i, v := range nbrs {
			e := Edge{Src: NodeID(u), Dst: v}
			if ws != nil {
				e.Weight = ws[i]
			}
			edges = append(edges, e)
		}
	}
	return edges
}
