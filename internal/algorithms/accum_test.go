package algorithms

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/baseline/sa"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/store"
)

// shipped sums, over the machines, what one worker per machine sends for the
// rows of the nodes include selects: the distinct addresses of an accumulated
// job, or — on demand — one record per remote ref.
func shipped(sets []remoteSetModel, accumulated bool) (n int64) {
	for _, s := range sets {
		if accumulated {
			n += s.size
		} else {
			n += s.refs
		}
	}
	return n
}

// aprPushRecords models approximate PageRank with threshold 0, where every
// node stays active: iteration t pushes a non-zero delta from exactly the nodes
// a walk of length t reaches, and a slot only zeros were folded into never
// left the identity, so it is not shipped.
func aprPushRecords(g *graph.Graph, layout partition.Layout, iters int) (n int64) {
	reached := make([]bool, g.NumNodes())
	for v := range reached {
		reached[v] = true
	}
	for t := 0; t < iters; t++ {
		n += shipped(modelRemoteSets(g, layout, core.IterOutEdges, func(v graph.NodeID) bool { return reached[v] }), true)
		next := make([]bool, len(reached))
		for v := range next {
			for _, u := range g.In.Neighbors(graph.NodeID(v)) {
				next[v] = next[v] || reached[u]
			}
		}
		reached = next
	}
	return n
}

// wccPushRecords models WCC pinned to push: min-label propagation from the
// frontier of just-improved nodes, and per superstep and machine the engine's
// eligibility rule — its part of the frontier accumulates iff it is a bitmap
// (at least 1/32 of its nodes) whose degree sum, times the share of its refs
// that are remote, reaches the set's size; otherwise every remote ref is one
// record.
func wccPushRecords(g *graph.Graph, layout partition.Layout) (n int64, steps int) {
	sets := modelRemoteSets(g, layout, core.IterBothEdges, nil)
	label, nxt := make([]int64, g.NumNodes()), make([]int64, g.NumNodes())
	front := make([]bool, g.NumNodes())
	for v := range label {
		label[v], nxt[v], front[v] = int64(v), int64(v), true
	}
	for members := len(front); members > 0; steps++ {
		touched := modelRemoteSets(g, layout, core.IterBothEdges, func(v graph.NodeID) bool { return front[v] })
		for m, set := range sets {
			lo, hi := layout.Range(m)
			var count int64
			for v := lo; v < hi; v++ {
				if front[v] {
					count++
				}
			}
			dense := count >= max(1, int64(float64(hi-lo)/32))
			accumulated := dense && set.size > 0 && float64(touched[m].edges)*float64(set.refs) >= float64(set.size)*float64(set.edges)
			n += shipped(touched[m:m+1], accumulated)
		}
		for v, in := range front {
			if in {
				for _, nbrs := range [][]graph.NodeID{g.Out.Neighbors(graph.NodeID(v)), g.In.Neighbors(graph.NodeID(v))} {
					for _, u := range nbrs {
						nxt[u] = min(nxt[u], label[v])
					}
				}
			}
		}
		members = 0
		for v := range front {
			if front[v] = nxt[v] < label[v]; front[v] {
				label[v] = nxt[v]
				members++
			}
		}
	}
	return n, steps
}

// pushRun is one push-form algorithm of the matrix: its output as raw words
// (exact comparison) or floats (tolerance), its iteration and superstep counts,
// and the remote write records applied and remote writes folded by the
// engine's count.
type pushRun struct {
	ints                 []int64
	floats               []float64
	iterations           int
	pushSteps, pullSteps int
	applied, folded      int64
}

// TestAccumulatedPushMatchesOnDemand: the push-form computations — PageRank
// push, approximate PageRank and WCC pinned to push, whose dense jobs
// accumulate, and SSSP, hop distance and k-core, whose pushes activate and so
// stay on demand — give the standalone reference's answer (integers and SSSP
// bits exactly, the float sums to 1e-9) whether their remote writes fold into
// accumulators or are buffered one by one, in the same iterations and
// supersteps; the accumulated jobs apply exactly the records the model says
// one worker per machine ships — every address of the remote set once per full
// scan — and the activating ones exactly what they applied before. Over a
// weighted small-world RMAT with ten ghosted hubs and a shortcut-free grid, one
// to three machines, both fabrics, and from memory, a raw store file and a
// compressed one under a small window with the write spill armed; the
// on-demand run is always an in-memory load under the empty ghost set (a store
// file's remote set is the file's), and every count compared is independent of
// the load.
func TestAccumulatedPushMatchesOnDemand(t *testing.T) {
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
		wantAPR, _ := sa.PageRankApprox(g, 0.85, 0, iters, 1)
		wantWCC, _ := sa.WCC(g, 1)
		wantSSSP, _ := sa.SSSP(g, root, 1)
		wantHop, _ := sa.HopDist(g, root, 1)
		wantBest, wantCore, _ := sa.KCore(g, 1)

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
						// suite runs the six computations on one worker per machine, so
						// every count is a function of the graph and the layout.
						var layout partition.Layout
						suite := func(onDemand bool) map[string]pushRun {
							path, ghosts := paths[storage], (*partition.GhostSet)(nil)
							if onDemand { // replicates nothing; a store file's remote set is its own
								path, ghosts = "", noGhosts(g)
							}
							c, reg := mirrorCluster(t, g, path, ghosts, p, useTCP, core.AblatePinPush, func(cfg *core.Config) {
								cfg.Workers = 1
								if storage == "csr3" {
									cfg.SpillWrites, cfg.ResidentBudgetBytes, cfg.SpillDir = true, 1<<10, t.TempDir()
								}
							})
							layout = c.Layout()
							runs := map[string]pushRun{}
							var applied, folded int64
							record := func(name string, ints []int64, floats []float64, met Metrics, err error) {
								t.Helper()
								if err != nil {
									t.Fatalf("%s: %v", name, err)
								}
								ctrs := reg.LifetimeCounters()
								run := pushRun{ints: ints, floats: floats, iterations: met.Iterations, pushSteps: met.PushSteps, pullSteps: met.PullSteps,
									applied: ctrs["writes_applied"] - applied, folded: ctrs["accumulated_writes"] - folded}
								applied, folded = applied+run.applied, folded+run.folded
								runs[name] = run
							}
							n := c.NumNodes()
							pr, met, err := PageRankPush(c, iters, 0.85)
							record("pr-push", nil, pr, met, err)
							apr, met, err := PageRankApprox(c, 0.85, 0, iters)
							record("apr-push", nil, apr, met, err)
							wcc, met, err := WCC(c, n)
							record("wcc", wcc, nil, met, err)
							sssp, met, err := SSSP(c, root, n)
							bits := make([]int64, len(sssp))
							for i, d := range sssp {
								bits[i] = int64(math.Float64bits(d))
							}
							record("sssp", bits, nil, met, err)
							hop, met, err := HopDist(c, root, n)
							record("hopdist", hop, nil, met, err)
							best, nums, met, err := KCore(c, 0)
							record("kcore", append(nums, best), nil, met, err)
							return runs
						}
						accumulated := suite(false)
						onDemand := suite(true)

						assertClose(t, "pr-push", accumulated["pr-push"].floats, wantPR, 1e-9)
						assertClose(t, "apr-push", accumulated["apr-push"].floats, wantAPR, 1e-9)
						assertEqualI64(t, "wcc", accumulated["wcc"].ints, wantWCC)
						for i, b := range accumulated["sssp"].ints {
							if uint64(b) != math.Float64bits(wantSSSP[i]) {
								t.Fatalf("sssp[%d] = %x, want %x", i, uint64(b), math.Float64bits(wantSSSP[i]))
							}
						}
						assertEqualI64(t, "hopdist", accumulated["hopdist"].ints, wantHop)
						assertEqualI64(t, "kcore", accumulated["kcore"].ints, append(wantCore, wantBest))

						// What the accumulated jobs must apply, from the model.
						wccRecords, wccSteps := wccPushRecords(g, layout)
						if got := accumulated["wcc"].pushSteps; got != wccSteps {
							t.Errorf("wcc: %d push supersteps, the model has %d", got, wccSteps)
						}
						want := map[string]int64{
							"pr-push":  iters * shipped(modelRemoteSets(g, layout, core.IterOutEdges, nil), true),
							"apr-push": aprPushRecords(g, layout, iters),
							"wcc":      wccRecords,
						}
						for name, on := range accumulated {
							off := onDemand[name]
							if on.iterations != off.iterations || on.pushSteps != off.pushSteps || on.pullSteps != off.pullSteps {
								t.Errorf("%s: %d iterations (%d push, %d pull steps) accumulated, %d (%d, %d) on demand",
									name, on.iterations, on.pushSteps, on.pullSteps, off.iterations, off.pushSteps, off.pullSteps)
							}
							assertEqualI64(t, name+" accumulated vs on demand", on.ints, off.ints)
							assertClose(t, name+" accumulated vs on demand", on.floats, off.floats, 1e-12)
							if off.folded != 0 {
								t.Errorf("%s: %d writes folded by a load without replicas", name, off.folded)
							}
							if records, eligible := want[name]; !eligible {
								// An activating push stays on demand: nothing folded, the same
								// records applied as without the mechanism.
								if on.folded != 0 || on.applied != off.applied {
									t.Errorf("%s: folded %d writes and applied %d records, want none folded and the %d of the on-demand run",
										name, on.folded, on.applied, off.applied)
								}
							} else if on.applied != records {
								t.Errorf("%s: %d write records applied, want the %d the model ships", name, on.applied, records)
							} else if p > 1 && records > 0 && (on.folded < records || off.applied < on.applied) {
								t.Errorf("%s: folded %d writes into %d records; on demand applied %d", name, on.folded, records, off.applied)
							}
						}
					})
				}
			}
		}
	}
}
