package algorithms

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
)

// Spec is one entry of the algorithm catalog: everything a front end (the
// server's run op, pgxd-run's -algo) needs to admit, run and present an
// algorithm by name.
type Spec struct {
	Name string
	// Cols is the peak number of O(N) property columns a run keeps
	// registered — what admission charges, and what Metrics.PropCols reports
	// (TestCatalogColsMatchRegistered holds the two together).
	Cols int
	// Ascending orders Result.Top smallest-first (distances).
	Ascending bool
	// Weighted marks algorithms that need edge weights.
	Weighted bool
	// run executes the algorithm on c with p's values as given.
	run func(c *core.Cluster, p Params) (Result, Metrics, error)
}

// Run executes the algorithm on c, with p's zero fields at their defaults.
func (s Spec) Run(c *core.Cluster, p Params) (Result, Metrics, error) {
	return s.run(c, p.withDefaults())
}

// Params are the request-level inputs of a catalog run; every entry reads
// the fields that apply to it. A zero field takes its default — the one
// place the front ends' defaults are decided.
type Params struct {
	Iterations int     // fixed-iteration algorithms; 10 when <= 0
	Damping    float64 // PageRank family; 0.85 when 0
	Threshold  float64 // pagerank-approx; 1e-7 when 0
	Source     graph.NodeID
	// Graph is the in-memory graph loaded into the cluster, for the entries
	// that precompute from it (triangles); nil on store-backed loads.
	Graph *graph.Graph
}

// withDefaults returns p with its zero fields at their defaults.
func (p Params) withDefaults() Params {
	if p.Iterations <= 0 {
		p.Iterations = 10
	}
	if p.Damping == 0 {
		p.Damping = 0.85
	}
	if p.Threshold == 0 {
		p.Threshold = 1e-7
	}
	return p
}

// Result is a catalog run's output: one value per node in F64 or I64
// (neither for algorithms that only count), plus a one-line Summary where
// the algorithm has a headline number.
type Result struct {
	F64     []float64
	I64     []int64
	Summary string
}

// Vertex is one entry of Result.Top.
type Vertex struct {
	Node  uint32
	Value float64
}

// Top returns the k best vertices by value, largest first unless ascending.
// Unreached and undefined values (±Inf, NaN, MaxInt64) are skipped.
func (r Result) Top(k int, ascending bool) []Vertex {
	var all []Vertex
	for n, v := range r.F64 {
		if !math.IsInf(v, 0) && !math.IsNaN(v) {
			all = append(all, Vertex{Node: uint32(n), Value: v})
		}
	}
	for n, v := range r.I64 {
		if v != math.MaxInt64 {
			all = append(all, Vertex{Node: uint32(n), Value: float64(v)})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if ascending {
			return all[i].Value < all[j].Value
		}
		return all[i].Value > all[j].Value
	})
	return all[:max(0, min(k, len(all)))]
}

// maxSupersteps bounds the run-to-convergence algorithms.
const maxSupersteps = 100000

var catalog = []Spec{
	{Name: "pagerank", Cols: 3, run: func(c *core.Cluster, p Params) (Result, Metrics, error) {
		v, met, err := PageRankPull(c, p.Iterations, p.Damping)
		return Result{F64: v}, met, err
	}},
	{Name: "pagerank-push", Cols: 3, run: func(c *core.Cluster, p Params) (Result, Metrics, error) {
		v, met, err := PageRankPush(c, p.Iterations, p.Damping)
		return Result{F64: v}, met, err
	}},
	{Name: "pagerank-approx", Cols: 3, run: func(c *core.Cluster, p Params) (Result, Metrics, error) {
		v, met, err := PageRankApprox(c, p.Damping, p.Threshold, maxSupersteps)
		return Result{F64: v}, met, err
	}},
	{Name: "eigenvector", Cols: 2, run: func(c *core.Cluster, p Params) (Result, Metrics, error) {
		v, met, err := Eigenvector(c, p.Iterations)
		return Result{F64: v}, met, err
	}},
	{Name: "wcc", Cols: 2, run: func(c *core.Cluster, p Params) (Result, Metrics, error) {
		labels, met, err := WCC(c, maxSupersteps)
		comps := map[int64]bool{}
		for _, l := range labels {
			comps[l] = true
		}
		return Result{I64: labels, Summary: fmt.Sprintf("%d components", len(comps))}, met, err
	}},
	{Name: "sssp", Cols: 2, Ascending: true, Weighted: true, run: func(c *core.Cluster, p Params) (Result, Metrics, error) {
		v, met, err := SSSP(c, p.Source, maxSupersteps)
		return Result{F64: v}, met, err
	}},
	{Name: "hopdist", Cols: 1, Ascending: true, run: func(c *core.Cluster, p Params) (Result, Metrics, error) {
		v, met, err := HopDist(c, p.Source, maxSupersteps)
		return Result{I64: v}, met, err
	}},
	{Name: "kcore", Cols: 3, run: func(c *core.Cluster, p Params) (Result, Metrics, error) {
		best, cores, met, err := KCore(c, 0)
		return Result{I64: cores, Summary: fmt.Sprintf("max core %d", best)}, met, err
	}},
	{Name: "triangles", Cols: 1, run: func(c *core.Cluster, p Params) (Result, Metrics, error) {
		if p.Graph == nil {
			return Result{}, Metrics{}, fmt.Errorf("algorithms: triangles needs the in-memory graph (not available on a store-backed load)")
		}
		total, met, err := TriangleCount(c, p.Graph)
		return Result{Summary: fmt.Sprintf("%d transitive triads", total)}, met, err
	}},
	{Name: "ppr", Cols: 4, run: func(c *core.Cluster, p Params) (Result, Metrics, error) {
		v, met, err := PersonalizedPageRank(c, []graph.NodeID{p.Source}, p.Iterations, p.Damping)
		return Result{F64: v}, met, err
	}},
}

// Catalog returns every algorithm a front end can run by name — the one list
// the server, pgxd-run and the admission memory gate read.
func Catalog() []Spec { return slices.Clone(catalog) }

// Lookup finds a catalog entry by name.
func Lookup(name string) (Spec, bool) {
	for _, s := range catalog {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}
