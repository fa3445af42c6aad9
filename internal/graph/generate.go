package graph

import (
	"fmt"
	"math"
	"math/rand"
)

// The paper evaluates on four downloaded real-world graphs (Twitter, Web-UK,
// LiveJournal, Wikipedia) plus one synthetic Erdős–Rényi instance. Those
// downloads are multi-billion-edge and not available offline, so this
// reproduction substitutes generators that match the property each
// experiment actually exercises: the degree-distribution skew (RMAT /
// preferential attachment for the social and web graphs) and uniform
// crossing-edge probability (Erdős–Rényi for Figure 4). See DESIGN.md §5.

// maxNodes is the node count of the 32-bit id space NodeID spans.
const maxNodes = 1 << 32

// RMATParams configures the recursive-matrix generator of Chakrabarti et al.
// A, B, C are the upper-left, upper-right, and lower-left quadrant
// probabilities; the lower-right is 1-A-B-C. Noise perturbs the quadrant
// probabilities per recursion level to avoid exactly self-similar artifacts.
type RMATParams struct {
	A, B, C float64
	Noise   float64
}

// TwitterLike returns RMAT parameters producing the heavy power-law skew of
// the paper's Twitter follower graph (a few vertices with enormous degree).
func TwitterLike() RMATParams { return RMATParams{A: 0.57, B: 0.19, C: 0.19, Noise: 0.05} }

// WebLike returns RMAT parameters producing the even stronger skew and
// locality of the paper's Web-UK crawl.
func WebLike() RMATParams { return RMATParams{A: 0.65, B: 0.15, C: 0.15, Noise: 0.03} }

// RMAT generates a directed RMAT graph with 2^scale nodes and
// edgeFactor * 2^scale edges (duplicates and self-loops are kept, as in the
// reference generator, which mimics the multi-edges present in real crawls):
// RMATStream's edges, filled in parallel (GenStream.Graph).
func RMAT(scale int, edgeFactor int, p RMATParams, seed int64) (*Graph, error) {
	s, err := RMATStream(scale, edgeFactor, p, seed)
	if err != nil {
		return nil, err
	}
	return s.Graph()
}

// RMATStream is the one definition of an RMAT graph: it checks the
// arguments and holds the edge fill that RMAT materializes and
// store.WriteStream sweeps.
func RMATStream(scale int, edgeFactor int, p RMATParams, seed int64) (*GenStream, error) {
	if scale < 1 || scale > 30 {
		return nil, fmt.Errorf("graph: RMAT scale %d out of range [1,30]", scale)
	}
	n := 1 << scale
	if edgeFactor < 1 {
		return nil, fmt.Errorf("graph: RMAT edge factor %d must be >= 1", edgeFactor)
	}
	if edgeFactor > math.MaxInt/n {
		return nil, fmt.Errorf("graph: RMAT edge factor %d at scale %d overflows the edge count", edgeFactor, scale)
	}
	if p.A <= 0 || p.B < 0 || p.C < 0 || p.A+p.B+p.C >= 1 {
		return nil, fmt.Errorf("graph: invalid RMAT params %+v", p)
	}
	return &GenStream{n: n, m: n * edgeFactor, seed: seed, fill: func(rng *rand.Rand, out []Edge) {
		for i := range out {
			src, dst := rmatEdge(scale, p, rng)
			out[i] = Edge{Src: src, Dst: dst}
		}
	}}, nil
}

func rmatEdge(scale int, p RMATParams, rng *rand.Rand) (NodeID, NodeID) {
	var src, dst NodeID
	a, b, c := p.A, p.B, p.C
	for level := 0; level < scale; level++ {
		// Perturb quadrant probabilities slightly per level.
		na, nb, nc := a, b, c
		if p.Noise > 0 {
			na *= 1 + p.Noise*(rng.Float64()*2-1)
			nb *= 1 + p.Noise*(rng.Float64()*2-1)
			nc *= 1 + p.Noise*(rng.Float64()*2-1)
		}
		r := rng.Float64() * (na + nb + nc + (1 - a - b - c))
		src <<= 1
		dst <<= 1
		switch {
		case r < na:
			// upper-left: no bits set
		case r < na+nb:
			dst |= 1
		case r < na+nb+nc:
			src |= 1
		default:
			src |= 1
			dst |= 1
		}
	}
	return src, dst
}

// Uniform generates an Erdős–Rényi style directed graph: m edges with
// independently uniform endpoints over n nodes. This matches the paper's
// Figure 4 instance, where "no matter how partitioned, (P-1)/P of the edges
// would remain as crossing edges for every partition". It materializes
// UniformStream.
func Uniform(n int, m int, seed int64) (*Graph, error) {
	s, err := UniformStream(n, m, seed)
	if err != nil {
		return nil, err
	}
	return s.Graph()
}

// UniformStream is the one definition of a uniform graph: it checks the
// arguments and holds the edge fill that Uniform materializes and
// store.WriteStream sweeps.
func UniformStream(n, m int, seed int64) (*GenStream, error) {
	if n <= 0 {
		return nil, ErrEmptyGraph
	}
	if n > maxNodes {
		return nil, fmt.Errorf("graph: uniform node count %d exceeds the 32-bit id space", n)
	}
	if m < 0 {
		return nil, fmt.Errorf("graph: uniform edge count %d must be >= 0", m)
	}
	return &GenStream{n: n, m: m, seed: seed, fill: func(rng *rand.Rand, out []Edge) {
		for i := range out {
			out[i] = Edge{Src: NodeID(rng.Intn(n)), Dst: NodeID(rng.Intn(n))}
		}
	}}, nil
}

// Grid generates a rows x cols 4-neighbor mesh with bidirectional edges plus
// nShortcuts random long-range bidirectional edges. This approximates a road
// network: high diameter, near-uniform degree, so BFS/SSSP run many frontier
// steps — the regime where per-step overhead matters (paper §5.3.1).
func Grid(rows, cols, nShortcuts int, seed int64) (*Graph, error) {
	if rows <= 0 || cols <= 0 {
		return nil, ErrEmptyGraph
	}
	if rows > maxNodes/cols {
		return nil, fmt.Errorf("graph: %d x %d grid exceeds the 32-bit id space", rows, cols)
	}
	n := rows * cols
	id := func(r, c int) NodeID { return NodeID(r*cols + c) }
	b := NewBuilder(n)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
				b.AddEdge(id(r, c+1), id(r, c))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
				b.AddEdge(id(r+1, c), id(r, c))
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < nShortcuts; i++ {
		u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		b.AddEdge(u, v)
		b.AddEdge(v, u)
	}
	return b.Build()
}

// PreferentialAttachment generates a Barabási–Albert style directed graph:
// nodes arrive one at a time and attach k out-edges to earlier nodes chosen
// proportionally to their current degree (implemented with the repeated-
// endpoint trick: sampling a uniform position in the edge list). The result
// has power-law in-degrees — an alternative skewed shape used by tests to
// check that partitioning quality claims are not RMAT-specific.
func PreferentialAttachment(n, k int, seed int64) (*Graph, error) {
	if n <= 0 {
		return nil, ErrEmptyGraph
	}
	if k < 1 {
		return nil, fmt.Errorf("graph: attachment degree %d must be >= 1", k)
	}
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	// targets records every edge endpoint ever chosen; sampling uniformly
	// from it is degree-proportional sampling.
	targets := make([]NodeID, 0, 2*n*k)
	targets = append(targets, 0)
	for u := 1; u < n; u++ {
		for j := 0; j < k; j++ {
			t := targets[rng.Intn(len(targets))]
			b.AddEdge(NodeID(u), t)
			targets = append(targets, t)
		}
		targets = append(targets, NodeID(u))
	}
	return b.Build()
}

// WithUniformWeights returns a copy of g whose edges carry weights drawn
// uniformly from [lo, hi). The paper: "The SSSP algorithm uses edge weights.
// We generated these values using a uniform random distribution." The In
// orientation receives the same weight per edge as its Out counterpart.
func (g *Graph) WithUniformWeights(lo, hi float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	edges := g.EdgeList()
	for i := range edges {
		edges[i].Weight = lo + rng.Float64()*(hi-lo)
	}
	out, err := FromEdges(g.NumNodes(), edges, true)
	if err != nil {
		// g was already a valid graph; re-building it cannot fail.
		panic(fmt.Sprintf("graph: WithUniformWeights rebuild: %v", err))
	}
	return out
}
