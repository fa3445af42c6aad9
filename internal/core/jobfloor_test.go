package core

import (
	"slices"
	"testing"
	"time"

	"repro/internal/reduce"
)

// activateSelf activates every node it runs on into build slot 0.
type activateSelf struct{ NoReads }

func (activateSelf) RunNodes(c *Ctx, nodes *Cursor) {
	for nodes.Next() {
		c.Activate(0)
	}
}

// jobFloorSpecs are the two smallest frontier-sourced jobs on an in-process
// cluster of two machines: a push over an empty frontier, where no
// machine dispatches a worker, and a node pass over a one-node frontier that
// rebuilds a frontier, where one machine runs one node — k-core's mark pass
// at its cheapest. What they cost is the per-job constant.
func jobFloorSpecs(t testing.TB) (c *Cluster, empty, oneNode JobSpec) {
	c = bootCluster(t, testGraph(t), DefaultConfig(2))
	dst, _ := c.AddPropI64("dst")
	one, next := c.NewFrontier("one"), c.NewFrontier("next")
	one.Add(0)
	empty = JobSpec{Name: "empty-frontier", Iter: IterOutEdges, Task: &pushOneTask{counter: dst}, Source: c.NewFrontier("none"),
		WriteProps: []WriteSpec{{Prop: dst, Op: reduce.Sum}}}
	oneNode = JobSpec{Name: "one-node", Iter: IterNodes, Task: activateSelf{}, Source: one, Build: []*Frontier{next}}
	return c, empty, oneNode
}

// TestJobFloorAllocations puts a ceiling on what one small frontier-sourced
// job allocates across the driver and both machines: nothing. The fan-out is
// a hand-off to each machine's main goroutine into the cluster's own result
// slots, each machine resets its one job runtime (the abort channel is remade
// only after an abort), and the built frontiers, the source's chunk list, the
// lanes and the frontier stats reuse their scratch — a regression in any of
// them moves the count past the ceiling.
func TestJobFloorAllocations(t *testing.T) {
	c, _, oneNode := jobFloorSpecs(t)
	const ceiling = 0
	allocs := testing.AllocsPerRun(200, func() {
		st, err := c.RunJob(oneNode)
		if err != nil || st.Frontiers[0].Count != 1 {
			t.Fatalf("one-node job: %v, built %v", err, st.Frontiers)
		}
	})
	t.Logf("%.1f allocations per job", allocs)
	if allocs > ceiling {
		t.Errorf("%.1f allocations per frontier-sourced two-machine job, ceiling %d", allocs, ceiling)
	}
}

// BenchmarkJobFloor is the per-job constant as a number: ns/op is the mean
// RunJob of each jobFloorSpecs job, and p50-ns/job and p90-ns/job its median
// and 90th percentile over the run, which one slow job in thousands does not
// move. Hundreds of near-empty supersteps (k-core, a grid traversal) cost this
// times their count.
func BenchmarkJobFloor(b *testing.B) {
	c, empty, oneNode := jobFloorSpecs(b)
	for _, spec := range []JobSpec{empty, oneNode} {
		b.Run(spec.Name, func(b *testing.B) {
			b.ReportAllocs()
			took := make([]time.Duration, b.N)
			b.ResetTimer()
			for i := range took {
				t0 := time.Now()
				if _, err := c.RunJob(spec); err != nil {
					b.Fatal(err)
				}
				took[i] = time.Since(t0)
			}
			b.StopTimer()
			slices.Sort(took)
			b.ReportMetric(float64(took[len(took)/2]), "p50-ns/job")
			b.ReportMetric(float64(took[len(took)*9/10]), "p90-ns/job")
		})
	}
}
