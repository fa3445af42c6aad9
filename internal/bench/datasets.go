// Package bench is the experiment harness that regenerates the paper's
// evaluation (§5) at laptop scale: Table 3 and Figure 3 (table3.go), Table 4
// (table4.go), Figures 4–7 (figs.go) and Figures 8a/8b (fig8.go), over the
// generated datasets below and the system models in systems.go. Each ExpXxx
// function runs one experiment and returns a printable Table; cmd/pgxd-bench
// drives them and the repository's root bench_test.go wraps representative
// cells as testing.B benchmarks. Every other performance number comes from
// the benchmark/ harness.
//
// Datasets substitute generated graphs for the paper's downloads (DESIGN.md
// §5): TWT' and WEB' are RMAT with Twitter/Web-shaped skew, LJ' and WIK'
// smaller RMATs, UNI' an Erdős–Rényi instance sized like TWT' (Figure 4's
// "no matter how partitioned, (P-1)/P of the edges [cross]" property).
package bench

import (
	"fmt"
	"sync"

	"repro/internal/graph"
)

// Scale sets dataset sizes: graphs have 2^Scale nodes. The default keeps a
// full table-3 sweep under a minute on a laptop; raise it via
// pgxd-bench -scale for bigger runs.
const DefaultScale = 13

// EdgeFactor approximates the paper's |E|/|V| ≈ 35 for Twitter at a value
// that keeps laptop runs quick.
const EdgeFactor = 16

// Dataset names, mirroring the paper's Table 4.
const (
	DSTwitter = "TWT'"
	DSWeb     = "WEB'"
	DSLive    = "LJ'"
	DSWiki    = "WIK'"
	DSUniform = "UNI'"
)

// Datasets caches generated graphs by (name, scale) so multi-experiment runs
// generate each instance once.
type Datasets struct {
	mu    sync.Mutex
	cache map[string]*graph.Graph
}

// NewDatasets returns an empty dataset cache.
func NewDatasets() *Datasets {
	return &Datasets{cache: make(map[string]*graph.Graph)}
}

// Get returns the named dataset at the given scale, generating on first use.
func (d *Datasets) Get(name string, scale int) (*graph.Graph, error) {
	key := fmt.Sprintf("%s@%d", name, scale)
	d.mu.Lock()
	defer d.mu.Unlock()
	if g, ok := d.cache[key]; ok {
		return g, nil
	}
	g, err := generate(name, scale)
	if err != nil {
		return nil, err
	}
	d.cache[key] = g
	return g, nil
}

func generate(name string, scale int) (*graph.Graph, error) {
	switch name {
	case DSTwitter:
		return graph.RMAT(scale, EdgeFactor, graph.TwitterLike(), 20151115)
	case DSWeb:
		// Web-UK has both more nodes and more edges than Twitter in the
		// paper; keep the node count and raise skew + edge factor slightly.
		return graph.RMAT(scale, EdgeFactor+8, graph.WebLike(), 20151116)
	case DSLive:
		return graph.RMAT(scale-2, EdgeFactor, graph.TwitterLike(), 20151117)
	case DSWiki:
		return graph.RMAT(scale-1, EdgeFactor/2, graph.TwitterLike(), 20151118)
	case DSUniform:
		n := 1 << scale
		return graph.Uniform(n, n*EdgeFactor, 20151119)
	default:
		return nil, fmt.Errorf("bench: unknown dataset %q", name)
	}
}

// Weighted returns the dataset with uniform-random edge weights (the
// paper's SSSP setup).
func (d *Datasets) Weighted(name string, scale int) (*graph.Graph, error) {
	g, err := d.Get(name, scale)
	if err != nil {
		return nil, err
	}
	key := fmt.Sprintf("%s@%d/w", name, scale)
	d.mu.Lock()
	defer d.mu.Unlock()
	if wg, ok := d.cache[key]; ok {
		return wg, nil
	}
	wg := g.WithUniformWeights(1, 100, 20151120)
	d.cache[key] = wg
	return wg, nil
}
