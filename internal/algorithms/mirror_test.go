package algorithms

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/baseline/sa"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/store"
)

// remoteSetModel is the test's own derivation of one machine's remote set for
// an edge iterator: the distinct neighbors that are not owned, how many refs
// reach them, and how many refs the rows hold in all. It never looks at the
// engine's bitmaps.
type remoteSetModel struct{ size, refs, edges int64 }

// modelRemoteSets derives every machine's set for iterator it, over the rows
// of the nodes include selects (nil: all of them).
func modelRemoteSets(g *graph.Graph, layout partition.Layout, it core.IterKind, include func(graph.NodeID) bool) []remoteSetModel {
	sets := make([]remoteSetModel, layout.NumMachines)
	for m := range sets {
		lo, hi := layout.Range(m)
		seen := map[graph.NodeID]bool{}
		scan := func(nbrs []graph.NodeID) {
			for _, u := range nbrs {
				sets[m].edges++
				if u >= lo && u < hi {
					continue
				}
				sets[m].refs++
				seen[u] = true
			}
		}
		for v := lo; v < hi; v++ {
			if include != nil && !include(v) {
				continue
			}
			if it != core.IterOutEdges {
				scan(g.In.Neighbors(v))
			}
			if it != core.IterInEdges {
				scan(g.Out.Neighbors(v))
			}
		}
		sets[m].size = int64(len(seen))
	}
	return sets
}

func sumSizes(sets []remoteSetModel) (n int64) {
	for _, s := range sets {
		n += s.size
	}
	return n
}

// hopPullMirrorWords models the eligibility rule on pinned-pull BFS, whose
// pull sources the unvisited frontier: at each level a machine prefetches its
// whole remote set iff its part of the frontier is a bitmap (at least 1/32 of
// its nodes) whose in-degree sum, times the share of its in-edge refs that are
// remote, reaches the set's size.
func hopPullMirrorWords(g *graph.Graph, layout partition.Layout, sets []remoteSetModel, hop []int64, root graph.NodeID) (words int64) {
	depth := int64(0)
	for _, d := range hop {
		if d != math.MaxInt64 {
			depth = max(depth, d)
		}
	}
	for level := int64(0); level <= depth; level++ {
		for m, set := range sets {
			lo, hi := layout.Range(m)
			var count, inDeg int64
			for v := lo; v < hi; v++ {
				if v != root && hop[v] > level {
					count++
					inDeg += g.InDegree(v)
				}
			}
			dense := count >= max(1, int64(float64(hi-lo)/32))
			if dense && set.size > 0 && float64(inDeg)*float64(set.refs) >= float64(set.size)*float64(set.edges) {
				words += set.size
			}
		}
	}
	return words
}

// mirrorCluster boots the identity matrix's cluster: p machines, from memory
// or from a raw or compressed store file under a residency window and a decode cache both
// smaller than the edge data (so columns and mirrors are off-heap and every
// chunk claim decodes).
func mirrorCluster(t *testing.T, g *graph.Graph, path string, ghosts *partition.GhostSet, p int, useTCP bool, set core.Ablation, tweak ...func(*core.Config)) (*core.Cluster, *obs.Registry) {
	t.Helper()
	cfg := latticeConfig(t, p, useTCP, set)
	cfg.Obs = obs.NewRegistry()
	if path != "" {
		cfg.ResidentBudgetBytes, cfg.DecodeCacheBytes = 16<<10, 8<<10
	}
	for _, f := range tweak {
		f(&cfg)
	}
	c, err := core.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if path == "" {
		t.Cleanup(c.Shutdown)
		if err := loadGhosts(c, g, ghosts); err != nil {
			t.Fatal(err)
		}
		return c, cfg.Obs
	}
	sf, err := store.Open(path)
	if err != nil {
		c.Shutdown()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Shutdown() // before the mapping its sections alias goes away
		sf.Close()   //nolint:errcheck // read-only mapping
	})
	if err := c.LoadStore(sf); err != nil {
		t.Fatal(err)
	}
	return c, cfg.Obs
}

// pullRun is one pull-form algorithm of the matrix: its output as raw words
// (exact comparison) or floats (tolerance), its iteration count, and the words
// its jobs prefetched by the engine's count.
type pullRun struct {
	ints        []int64
	floats      []float64
	iterations  int
	mirrorWords int64
}

// TestMirroredPullMatchesOnDemand: the six pull-form computations — PageRank,
// eigenvector centrality and personalized PageRank, which only exist as pulls,
// and WCC, SSSP and hop distance pinned to their pull schedule — give the
// standalone reference's answer (integers and SSSP bits exactly, the float
// sums to the identity suites' 1e-9) whether their remote reads are prefetched
// into the mirror or requested on demand, in the same number of iterations;
// and the mirrored run reads exactly what the remote sets say: every machine's
// distinct remote addresses once per eligible job, nothing on demand. Over a
// weighted small-world RMAT with ten ghosted hubs and a shortcut-free grid,
// one to three machines, both fabrics, and from memory, a raw store file and
// a compressed one; the on-demand run is always an in-memory load under the
// empty ghost set (a store file's remote set is the file's), and every count
// compared is independent of the load.
func TestMirroredPullMatchesOnDemand(t *testing.T) {
	grid, err := graph.Grid(24, 24, 0, 99)
	if err != nil {
		t.Fatal(err)
	}
	const (
		root  = graph.NodeID(0)
		iters = 3
	)
	for _, tg := range []struct {
		name string
		g    *graph.Graph
	}{{"rmat9", testGraph(t).WithUniformWeights(1, 10, 7)}, {"grid24", grid.WithUniformWeights(1, 10, 7)}} {
		g := tg.g
		wantPR := sa.PageRank(g, iters, 0.85, 1)
		wantEV := sa.Eigenvector(g, iters, 1)
		wantPPR := PersonalizedPageRankReference(g, []graph.NodeID{root}, iters, 0.85)
		wantWCC, _ := sa.WCC(g, 1)
		wantSSSP, _ := sa.SSSP(g, root, 1)
		wantHop, _ := sa.HopDist(g, root, 1)

		for p := 1; p <= 3; p++ {
			paths := map[string]string{"memory": "", "csr2": filepath.Join(t.TempDir(), "g.csr2"), "csr3": filepath.Join(t.TempDir(), "g.csr3")}
			if err := store.WriteGraph(paths["csr2"], g, p); err != nil {
				t.Fatal(err)
			}
			if err := store.WriteGraphCompressed(paths["csr3"], g, p); err != nil {
				t.Fatal(err)
			}
			for _, storage := range []string{"memory", "csr2", "csr3"} {
				for _, useTCP := range []bool{false, true} {
					name := fmt.Sprintf("%s/p=%d/%s/tcp=%v", tg.name, p, storage, useTCP)
					t.Run(name, func(t *testing.T) {
						// suite runs the six computations and returns them with the reads
						// the cluster had served after the five that scan every row, and
						// after hop distance, whose pull sources the unvisited frontier.
						suite := func(onDemand bool) (runs map[string]pullRun, wantWords map[string]int64, servedScans, servedAll int64) {
							path, ghosts := paths[storage], (*partition.GhostSet)(nil)
							if onDemand { // replicates nothing; a store file's remote set is its own
								path, ghosts = "", noGhosts(g)
							}
							c, reg := mirrorCluster(t, g, path, ghosts, p, useTCP, core.AblatePinPull)
							inSets := modelRemoteSets(g, c.Layout(), core.IterInEdges, nil)
							bothSets := modelRemoteSets(g, c.Layout(), core.IterBothEdges, nil)
							runs, wantWords = map[string]pullRun{}, map[string]int64{}
							var words int64
							record := func(name string, ints []int64, floats []float64, met Metrics, err error, perJob int64) {
								t.Helper()
								if err != nil {
									t.Fatalf("%s: %v", name, err)
								}
								total := reg.LifetimeCounters()["mirror_words"]
								runs[name] = pullRun{ints, floats, met.Iterations, total - words}
								words = total
								// One pull job per iteration, each prefetching every remote set once.
								wantWords[name] = int64(met.Iterations) * perJob
								if onDemand {
									wantWords[name] = 0
								}
							}
							n := c.NumNodes()
							pr, met, err := PageRankPull(c, iters, 0.85)
							record("pr-pull", nil, pr, met, err, sumSizes(inSets))
							ev, met, err := Eigenvector(c, iters)
							record("ev-pull", nil, ev, met, err, sumSizes(inSets))
							ppr, met, err := PersonalizedPageRank(c, []graph.NodeID{root}, iters, 0.85)
							record("ppr-pull", nil, ppr, met, err, sumSizes(inSets))
							wcc, met, err := WCC(c, n)
							record("wcc", wcc, nil, met, err, sumSizes(bothSets))
							sssp, met, err := SSSP(c, root, n)
							bits := make([]int64, len(sssp))
							for i, d := range sssp {
								bits[i] = int64(math.Float64bits(d))
							}
							record("sssp", bits, nil, met, err, sumSizes(inSets))
							servedScans = reg.LifetimeCounters()["reads_served"]
							hop, met, err := HopDist(c, root, n)
							record("hopdist", hop, nil, met, err, 0)
							if !onDemand {
								wantWords["hopdist"] = hopPullMirrorWords(g, c.Layout(), inSets, wantHop, root)
							}
							return runs, wantWords, servedScans, reg.LifetimeCounters()["reads_served"]
						}
						mirrored, wantWords, servedScans, servedAll := suite(false)
						onDemand, _, _, _ := suite(true)

						// A mirrored row folds every in-neighbor — local or remote —
						// in row order in one register, as SA does: PageRank-pull is then
						// SA's to the bit at any machine count, where continuations add in
						// arrival order (the on-demand run is held to 1e-9).
						assertBitsF64(t, "pr-pull", mirrored["pr-pull"].floats, wantPR)
						assertClose(t, "pr-pull on demand", onDemand["pr-pull"].floats, wantPR, 1e-9)
						assertClose(t, "ev-pull", mirrored["ev-pull"].floats, wantEV, 1e-9)
						assertClose(t, "ppr-pull", mirrored["ppr-pull"].floats, wantPPR, 1e-9)
						assertEqualI64(t, "wcc", mirrored["wcc"].ints, wantWCC)
						for i, b := range mirrored["sssp"].ints {
							if uint64(b) != math.Float64bits(wantSSSP[i]) {
								t.Fatalf("sssp[%d] = %x, want %x", i, uint64(b), math.Float64bits(wantSSSP[i]))
							}
						}
						assertEqualI64(t, "hopdist", mirrored["hopdist"].ints, wantHop)

						var wantScans int64
						for name, on := range mirrored {
							off := onDemand[name]
							if on.iterations != off.iterations {
								t.Errorf("%s: %d iterations mirrored, %d on demand", name, on.iterations, off.iterations)
							}
							assertEqualI64(t, name+" mirrored vs on demand", on.ints, off.ints)
							assertClose(t, name+" mirrored vs on demand", on.floats, off.floats, 1e-12)
							if off.mirrorWords != 0 {
								t.Errorf("%s: %d words prefetched by a load without replicas", name, off.mirrorWords)
							}
							if on.mirrorWords != wantWords[name] {
								t.Errorf("%s: %d words prefetched, want %d (remote sets x eligible jobs)", name, on.mirrorWords, wantWords[name])
							}
							if name != "hopdist" {
								wantScans += wantWords[name]
							}
						}
						// A full scan reads nothing on demand; hop distance does, on the
						// levels that were not mirrored.
						if servedScans != wantScans {
							t.Errorf("%d reads served by the five full-scan pulls, want the %d they prefetched", servedScans, wantScans)
						}
						if hop := servedAll - servedScans; hop < wantWords["hopdist"] {
							t.Errorf("hopdist: %d reads served, fewer than the %d it prefetched", hop, wantWords["hopdist"])
						}
					})
				}
			}
		}
	}
}
