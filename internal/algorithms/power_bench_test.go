package algorithms

import (
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/graph"
)

// BenchmarkPowerIteration is the per-iteration price of the pull-form power
// iterations — PageRank-pull, personalized PageRank from the highest
// out-degree vertex, eigenvector centrality — in nanoseconds per edge on
// RMAT(14,16): one machine with two workers, and two machines in process and
// over loopback TCP. Each timed run is b.N iterations of the algorithm after
// a one-iteration warm-up, so the seed job is spread over b.N iterations and
// the result gather is outside the clock (Metrics.Total).
func BenchmarkPowerIteration(b *testing.B) {
	g, err := graph.RMAT(14, 16, graph.TwitterLike(), 20151115)
	if err != nil {
		b.Fatal(err)
	}
	root := maxOutDegreeVertex(g)
	for _, shape := range []struct {
		name    string
		p       int
		workers int // 0: the default
		tcp     bool
	}{
		{"p=1/workers=2", 1, 2, false},
		{"p=2/inproc", 2, 0, false},
		{"p=2/tcp", 2, 0, true},
	} {
		cfg := core.DefaultConfig(shape.p)
		if shape.workers > 0 {
			cfg.Workers = shape.workers
		}
		var fabric *comm.TCPFabric
		if shape.tcp {
			if fabric, err = core.NewTCPFabric(cfg); err != nil {
				b.Fatal(err)
			}
			cfg.Fabric = fabric
		}
		c, err := core.NewCluster(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Load(g); err != nil {
			b.Fatal(err)
		}
		for _, algo := range []struct {
			name string
			run  func(iters int) (Metrics, error)
		}{
			{"pagerank", func(iters int) (Metrics, error) {
				_, met, err := PageRankPull(c, iters, 0.85)
				return met, err
			}},
			{"ppr", func(iters int) (Metrics, error) {
				_, met, err := PersonalizedPageRank(c, []graph.NodeID{root}, iters, 0.85)
				return met, err
			}},
			{"eigenvector", func(iters int) (Metrics, error) {
				_, met, err := Eigenvector(c, iters)
				return met, err
			}},
		} {
			b.Run(fmt.Sprintf("%s/%s", shape.name, algo.name), func(b *testing.B) {
				if _, err := algo.run(1); err != nil { // warm-up: pools, mirrors, side slices
					b.Fatal(err)
				}
				b.ResetTimer()
				met, err := algo.run(b.N)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(met.Total.Nanoseconds())/float64(int64(b.N)*g.NumEdges()), "ns/edge")
				b.ReportMetric(float64(met.Jobs)/float64(b.N), "jobs/iter")
			})
		}
		c.Shutdown()
		if fabric != nil {
			fabric.Close() //nolint:errcheck // the cluster is down; nothing is in flight
		}
	}
}
