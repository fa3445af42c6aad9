// Package repro's root benchmark suite: one testing.B benchmark per table
// and figure of the paper's evaluation, at a scale small enough for
// `go test -bench=.` to finish in minutes. cmd/pgxd-bench runs the same
// experiments as full parameter sweeps with paper-shaped table output.
package repro

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/baseline/gas"
	"repro/internal/baseline/sa"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/partition"
)

const benchScale = 11

var benchData = bench.NewDatasets()

func benchGraph(b *testing.B, name string) *graph.Graph {
	b.Helper()
	g, err := benchData.Get(name, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func bootPGX(b *testing.B, g *graph.Graph, cfg core.Config) *core.Cluster {
	return bootCut(b, g, cfg, partition.EdgeBalanced, nil)
}

// bootCut boots cfg and loads g cut by strat with the replica cap ghosts (nil:
// every referenced address), through LoadPlan.
func bootCut(b *testing.B, g *graph.Graph, cfg core.Config, strat partition.Strategy, ghosts *partition.GhostSet) *core.Cluster {
	b.Helper()
	layout, err := partition.Compute(g, cfg.NumMachines, strat)
	if err != nil {
		b.Fatal(err)
	}
	c, err := core.NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Shutdown)
	if err := c.LoadPlan(g, layout, ghosts); err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkTable3 measures representative Table 3 cells: every algorithm on
// PGX.D, and the shared push algorithms on each comparison system.
func BenchmarkTable3(b *testing.B) {
	g := benchGraph(b, bench.DSTwitter)
	wg, err := benchData.Weighted(bench.DSTwitter, benchScale)
	if err != nil {
		b.Fatal(err)
	}
	src := bench.PickSource(g)

	b.Run("PGX", func(b *testing.B) {
		for _, algo := range bench.AllAlgos {
			b.Run(string(algo), func(b *testing.B) {
				cfg := bench.DefaultCellConfig(2)
				cfg.PRIters = 3
				cfg.MaxK = 8
				cfg.Source = src
				gr := g
				if algo == bench.AlgoSSSP {
					gr = wg
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := bench.RunCell(bench.SysPGX, algo, gr, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	})
	for _, sys := range []bench.System{bench.SysSA, bench.SysGL, bench.SysGX} {
		b.Run(string(sys), func(b *testing.B) {
			for _, algo := range []bench.Algo{bench.AlgoPRPush, bench.AlgoWCC, bench.AlgoHopDist} {
				b.Run(string(algo), func(b *testing.B) {
					cfg := bench.DefaultCellConfig(2)
					cfg.PRIters = 3
					cfg.Source = src
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := bench.RunCell(sys, algo, g, cfg); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}

// BenchmarkTable4_Loading measures graph loading from the text format
// (GraphX/GraphLab-style) and the binary format (PGX.D-style), including the
// distributed build.
func BenchmarkTable4_Loading(b *testing.B) {
	g := benchGraph(b, bench.DSTwitter)
	var text, bin bytes.Buffer
	if err := graph.WriteEdgeList(&text, g); err != nil {
		b.Fatal(err)
	}
	if err := graph.WriteBinary(&bin, g); err != nil {
		b.Fatal(err)
	}
	load := func(b *testing.B, data []byte, binary bool) {
		for i := 0; i < b.N; i++ {
			var lg *graph.Graph
			var err error
			if binary {
				lg, err = graph.ReadBinary(bytes.NewReader(data))
			} else {
				lg, err = graph.ReadEdgeList(bytes.NewReader(data))
			}
			if err != nil {
				b.Fatal(err)
			}
			c, err := core.NewCluster(core.DefaultConfig(4))
			if err != nil {
				b.Fatal(err)
			}
			if err := c.Load(lg); err != nil {
				b.Fatal(err)
			}
			c.Shutdown()
		}
	}
	b.Run("text_GXGL_style", func(b *testing.B) { load(b, text.Bytes(), false) })
	b.Run("binary_PGX_style", func(b *testing.B) { load(b, bin.Bytes(), true) })
}

// BenchmarkFig4_UniformVsSkewed isolates communication efficiency: exact
// PageRank on the uniform random instance versus the skewed one.
func BenchmarkFig4_UniformVsSkewed(b *testing.B) {
	for _, ds := range []string{bench.DSUniform, bench.DSTwitter} {
		g := benchGraph(b, ds)
		for _, variant := range []string{"pull", "push"} {
			b.Run(fmt.Sprintf("%s/%s", ds, variant), func(b *testing.B) {
				c := bootPGX(b, g, core.DefaultConfig(4))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var err error
					if variant == "pull" {
						_, _, err = algorithms.PageRankPull(c, 3, 0.85)
					} else {
						_, _, err = algorithms.PageRankPush(c, 3, 0.85)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(fmt.Sprintf("%s/GL_push", ds), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := gas.PageRank(g, 4, 4, 3, 0.85, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// edgeIterBenchKernel is Figure 5a's row kernel: it only reads the refs,
// summing a chunk's into Ctx.Aux as SA's loop sums neighbor ids.
type edgeIterBenchKernel struct{ core.NoReads }

func (k *edgeIterBenchKernel) RunRows(c *core.Ctx, rows *core.Cursor) {
	var acc int64
	for rows.Next() {
		for _, ref := range rows.Row().Refs {
			acc += ref
		}
	}
	c.Aux += uint64(acc)
}

// BenchmarkFig5a_EdgeIter measures single-machine edge iteration throughput
// per framework; b.N loops iterate all edges once.
func BenchmarkFig5a_EdgeIter(b *testing.B) {
	g := benchGraph(b, bench.DSTwitter)
	b.Run("SA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sa.EdgeIterationRate(g, 4)
		}
		b.SetBytes(g.NumEdges())
	})
	b.Run("PGX", func(b *testing.B) {
		c := bootPGX(b, g, core.DefaultConfig(1))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.RunJob(core.JobSpec{Name: "edge-iter", Iter: core.IterOutEdges, Task: &edgeIterBenchKernel{}}); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(g.NumEdges())
	})
	b.Run("GAS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := gas.EdgeIteration(g, 4); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(g.NumEdges())
	})
}

// BenchmarkFig5b_Barrier measures the distributed barrier versus machine
// count.
func BenchmarkFig5b_Barrier(b *testing.B) {
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			g, err := graph.Uniform(64, 256, 1)
			if err != nil {
				b.Fatal(err)
			}
			c := bootPGX(b, g, core.DefaultConfig(p))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.Barrier(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6a_GhostSweep measures PageRank-pull at increasing ghost
// counts — none (the empty ghost set: no replicas at all), then the top 16,
// 128 and 1024 vertices in every machine's remote sets; more ghosts mean less
// traffic.
func BenchmarkFig6a_GhostSweep(b *testing.B) {
	g := benchGraph(b, bench.DSTwitter)
	for _, ghosts := range []int{0, 16, 128, 1024} {
		b.Run(fmt.Sprintf("ghosts=%d", ghosts), func(b *testing.B) {
			c := bootCut(b, g, core.DefaultConfig(4), partition.EdgeBalanced, partition.SelectTopGhosts(g, ghosts))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := algorithms.PageRankPull(c, 3, 0.85); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6b_Partitioning compares vertex- and edge-balanced machine
// assignment.
func BenchmarkFig6b_Partitioning(b *testing.B) {
	g := benchGraph(b, bench.DSTwitter)
	for _, strat := range []partition.Strategy{partition.VertexBalanced, partition.EdgeBalanced} {
		b.Run(strat.String(), func(b *testing.B) {
			c := bootCut(b, g, core.DefaultConfig(4), strat, nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := algorithms.PageRankPull(c, 3, 0.85); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6c_Breakdown times the three load-balancing configurations of
// Figure 6c (the harness additionally reports the imbalance decomposition).
func BenchmarkFig6c_Breakdown(b *testing.B) {
	g := benchGraph(b, bench.DSTwitter)
	configs := []struct {
		name  string
		strat partition.Strategy
		nodes bool
	}{
		{"ghost_only", partition.VertexBalanced, true},
		{"edge_partitioning", partition.EdgeBalanced, true},
		{"edge_chunking", partition.EdgeBalanced, false},
	}
	for _, cc := range configs {
		b.Run(cc.name, func(b *testing.B) {
			cfg := core.DefaultConfig(4)
			if cc.nodes {
				cfg.Ablate = core.AblateEdgeChunking
			}
			c := bootCut(b, g, cfg, cc.strat, nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := algorithms.PageRankPull(c, 3, 0.85); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig7_WorkerCopier samples the worker/copier grid.
func BenchmarkFig7_WorkerCopier(b *testing.B) {
	g := benchGraph(b, bench.DSTwitter)
	for _, wc := range [][2]int{{1, 1}, {2, 1}, {4, 2}, {8, 4}} {
		b.Run(fmt.Sprintf("w=%d_c=%d", wc[0], wc[1]), func(b *testing.B) {
			cfg := core.DefaultConfig(4)
			cfg.Workers, cfg.Copiers = wc[0], wc[1]
			c := bootPGX(b, g, cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := algorithms.PageRankPull(c, 3, 0.85); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// randReadBenchKernel issues pseudo-random remote reads (Figure 8a).
type randReadBenchKernel struct {
	prop       core.PropID
	remoteSize uint32
}

func (k *randReadBenchKernel) RunNodes(c *core.Ctx, nodes *core.Cursor) {
	dst := 1 - c.Machine()
	for nodes.Next() {
		state := uint64(c.Node)*2862933555777941757 + 3037000493
		for i := 0; i < 8; i++ {
			state = state*2862933555777941757 + 3037000493
			c.ReadRef(core.RemoteRef(dst, uint32(state>>32)%k.remoteSize), k.prop)
		}
	}
}

func (k *randReadBenchKernel) ReadDone(c *core.Ctx, val uint64) {}

// BenchmarkFig8a_RandomRead measures remote random-read throughput between
// two machines at different copier counts.
func BenchmarkFig8a_RandomRead(b *testing.B) {
	n := 1 << benchScale
	g, err := graph.Uniform(n, n, 7)
	if err != nil {
		b.Fatal(err)
	}
	for _, copiers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("copiers=%d", copiers), func(b *testing.B) {
			cfg := core.DefaultConfig(2)
			cfg.Copiers = copiers
			c := bootPGX(b, g, cfg)
			prop, err := c.AddPropF64("payload")
			if err != nil {
				b.Fatal(err)
			}
			remoteSize := uint32(c.Layout().NumLocal(0))
			if s := uint32(c.Layout().NumLocal(1)); s < remoteSize {
				remoteSize = s
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.RunJob(core.JobSpec{
					Name: "rand-read", Iter: core.IterNodes,
					Task:      &randReadBenchKernel{prop: prop, remoteSize: remoteSize},
					ReadProps: []core.PropID{prop},
				}); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(n) * 8 * 8) // 8 reads x 8 bytes per node
		})
	}
}

// BenchmarkFig8b_BufferSize measures engine throughput at different message
// buffer sizes (PageRank-push generates streaming write traffic).
func BenchmarkFig8b_BufferSize(b *testing.B) {
	g := benchGraph(b, bench.DSTwitter)
	for _, bs := range []int{1 << 10, 8 << 10, 64 << 10, 256 << 10} {
		b.Run(fmt.Sprintf("buf=%d", bs), func(b *testing.B) {
			cfg := core.DefaultConfig(4)
			cfg.BufferSize = bs
			c := bootPGX(b, g, cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := algorithms.PageRankPush(c, 3, 0.85); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineAblation_PullVsPush isolates the synchronization saving the
// paper attributes to data pulling (plain adds instead of atomics).
func BenchmarkEngineAblation_PullVsPush(b *testing.B) {
	g := benchGraph(b, bench.DSTwitter)
	c := bootPGX(b, g, core.DefaultConfig(4))
	b.Run("pull", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := algorithms.PageRankPull(c, 3, 0.85); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("push", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := algorithms.PageRankPush(c, 3, 0.85); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBarrierVsJobOverhead contrasts a bare barrier with an empty job —
// the per-step framework overhead that dominates k-core (paper §5.3.1).
func BenchmarkBarrierVsJobOverhead(b *testing.B) {
	g, err := graph.Uniform(1024, 4096, 1)
	if err != nil {
		b.Fatal(err)
	}
	c := bootPGX(b, g, core.DefaultConfig(4))
	b.Run("barrier", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := c.Barrier(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("empty_job", func(b *testing.B) {
		task := &edgeIterBenchKernel{}
		for i := 0; i < b.N; i++ {
			if _, err := c.RunJob(core.JobSpec{Name: "empty", Iter: core.IterNodes, Task: task}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExtensions covers the §6-outlook systems built beyond the
// paper's evaluation: triangle counting (task framework + RMI), MIS,
// personalized PageRank, and pattern matching.
func BenchmarkExtensions(b *testing.B) {
	g := benchGraph(b, bench.DSTwitter)
	b.Run("TriangleCount", func(b *testing.B) {
		c := bootPGX(b, g, core.DefaultConfig(2))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := algorithms.TriangleCount(c, g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("MIS", func(b *testing.B) {
		c := bootPGX(b, g, core.DefaultConfig(2))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := algorithms.MIS(c, int64(i), 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("PersonalizedPageRank", func(b *testing.B) {
		c := bootPGX(b, g, core.DefaultConfig(2))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := algorithms.PersonalizedPageRank(c, []graph.NodeID{0, 1}, 3, 0.85); err != nil {
				b.Fatal(err)
			}
		}
	})
}
