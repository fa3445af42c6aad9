package algorithms

import (
	"fmt"
	"testing"

	"repro/internal/baseline/sa"
	"repro/internal/core"
	"repro/internal/graph"
)

// TestFrontierSourcedStepsMatchDense: k-core, SSSP, approximate PageRank and
// MIS iterate frontiers — the alive/dying/touched sets of the peeling, the
// touched set between SSSP's relaxation and its adopt pass, APR's active set,
// MIS's undecided set — where they used to scan every node (or filter it), and
// a step of any of them must be the step it was. Core numbers and distances
// equal the standalone reference exactly, k-core's iteration count equals the
// reference's own peeling-step count, APR's ranks and iteration count match
// the reference's, and every algorithm's Metrics.Iterations — and MIS's member
// count — equal the counts the dense passes produced (recorded from the
// commit before the change), on a skewed RMAT whose hubs are ghosted and on a
// shortcut-free grid, at 1, 2 and 3 machines over both fabrics. SSSP
// additionally runs with the direction pinned to pull, so the pull kernel's
// own-node activation is what feeds the adopt pass, and k-core with a cap on
// k, whose survivors report the cap.
func TestFrontierSourcedStepsMatchDense(t *testing.T) {
	grid, err := graph.Grid(24, 24, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	const capK = 3
	type aprRow struct {
		threshold float64
		iters     int
	}
	type misRow struct {
		seed           int64
		rounds, inSize int
	}
	for _, tg := range []struct {
		name string
		g    *graph.Graph
		src  graph.NodeID
		// Metrics.Iterations of the dense implementation.
		kcoreIters, cappedIters, ssspIters int
		apr                                []aprRow
		mis                                []misRow
	}{
		{"rmat", testGraph(t).WithUniformWeights(1, 10, 7), 0, 111, 6, 5,
			[]aprRow{{1e-7, 45}, {1e-4, 8}}, []misRow{{1, 3, 311}, {42, 4, 323}}},
		{"grid", grid.WithUniformWeights(1, 100, 3), 25, 28, 3, 56,
			[]aprRow{{1e-7, 49}, {1e-4, 7}}, []misRow{{1, 2, 204}, {42, 3, 192}}},
	} {
		wantAPR := make([][]float64, len(tg.apr))
		for i, row := range tg.apr {
			var saIters int
			wantAPR[i], saIters = sa.PageRankApprox(tg.g, 0.85, row.threshold, 100, 1)
			if saIters != row.iters {
				t.Fatalf("%s: the reference's APR at %g takes %d iterations, the recorded count is %d", tg.name, row.threshold, saIters, row.iters)
			}
		}
		wantBest, wantCore, saSteps := sa.KCore(tg.g, 1)
		if saSteps != tg.kcoreIters {
			t.Fatalf("%s: the reference peels in %d steps, the recorded count is %d", tg.name, saSteps, tg.kcoreIters)
		}
		wantCapped := make([]int64, len(wantCore))
		for i, k := range wantCore {
			wantCapped[i] = min(k, capK)
		}
		wantDist, _ := sa.SSSP(tg.g, tg.src, 1)
		for _, p := range []int{1, 2, 3} {
			for _, useTCP := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/p=%d,tcp=%v", tg.name, p, useTCP), func(t *testing.T) {
					load := func(set core.Ablation) *core.Cluster {
						c, err := core.NewCluster(latticeConfig(t, p, useTCP, set))
						if err != nil {
							t.Fatal(err)
						}
						t.Cleanup(c.Shutdown)
						if err := c.Load(tg.g); err != nil {
							t.Fatal(err)
						}
						return c
					}
					c := load(0)
					best, nums, met, err := KCore(c, 0)
					if err != nil {
						t.Fatal(err)
					}
					if best != wantBest || met.Iterations != tg.kcoreIters {
						t.Errorf("kcore: max core %d in %d iterations, want %d in %d", best, met.Iterations, wantBest, tg.kcoreIters)
					}
					assertEqualI64(t, "core", nums, wantCore)

					best, nums, met, err = KCore(c, capK)
					if err != nil {
						t.Fatal(err)
					}
					if best != capK || met.Iterations != tg.cappedIters {
						t.Errorf("kcore capped at %d: max core %d in %d iterations, want %d in %d", capK, best, met.Iterations, capK, tg.cappedIters)
					}
					assertEqualI64(t, "capped core", nums, wantCapped)

					for i, row := range tg.apr {
						ranks, met, err := PageRankApprox(c, 0.85, row.threshold, 100)
						if err != nil {
							t.Fatal(err)
						}
						if met.Iterations != row.iters {
							t.Errorf("apr at %g: %d iterations, want %d", row.threshold, met.Iterations, row.iters)
						}
						assertClose(t, "apr", ranks, wantAPR[i], 1e-9)
					}

					for _, row := range tg.mis {
						inSet, met, err := MIS(c, row.seed, 0)
						if err != nil {
							t.Fatal(err)
						}
						if msg := VerifyMIS(tg.g, inSet); msg != "" {
							t.Fatalf("mis seed %d: %s", row.seed, msg)
						}
						size := 0
						for _, in := range inSet {
							if in {
								size++
							}
						}
						if met.Iterations != row.rounds || size != row.inSize {
							t.Errorf("mis seed %d: %d members in %d rounds, want %d in %d", row.seed, size, met.Iterations, row.inSize, row.rounds)
						}
					}

					for _, set := range []core.Ablation{0, core.AblatePinPull} {
						dist, met, err := SSSP(load(set), tg.src, 1<<20)
						if err != nil {
							t.Fatal(err)
						}
						if met.Iterations != tg.ssspIters {
							t.Errorf("sssp (ablate %#x): %d iterations, want %d", set, met.Iterations, tg.ssspIters)
						}
						if set == core.AblatePinPull && (met.PushSteps != 0 || met.PullSteps != tg.ssspIters) {
							t.Errorf("sssp pinned to pull took %d push and %d pull steps", met.PushSteps, met.PullSteps)
						}
						assertBitsF64(t, "sssp", dist, wantDist)
					}
				})
			}
		}
	}
}
