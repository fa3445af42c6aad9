package pgxd_test

import (
	"fmt"

	"repro/pgxd"
)

// Example shows the minimal flow: generate, boot, load, analyze.
func Example() {
	g, _ := pgxd.RMAT(10, 8, pgxd.TwitterLike(), 42)
	cluster, _ := pgxd.NewCluster(pgxd.DefaultConfig(2))
	defer cluster.Shutdown()
	_ = cluster.LoadGraph(g)

	ranks, metrics, _ := cluster.PageRankPull(10, 0.85)
	best := 0
	for i, r := range ranks {
		if r > ranks[best] {
			best = i
		}
	}
	fmt.Printf("iterations=%d top-node=%d\n", metrics.Iterations, best)
	// Output: iterations=10 top-node=0
}

// ExampleCluster_WCC finds communities and reports the largest.
func ExampleCluster_WCC() {
	// Two directed triangles, disconnected from each other.
	edges := []pgxd.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0},
		{Src: 3, Dst: 4}, {Src: 4, Dst: 5}, {Src: 5, Dst: 3},
	}
	g, _ := pgxd.FromEdges(6, edges, false)
	cluster, _ := pgxd.NewCluster(pgxd.DefaultConfig(2))
	defer cluster.Shutdown()
	_ = cluster.LoadGraph(g)

	labels, _, _ := cluster.WCC(100)
	fmt.Println(labels)
	// Output: [0 0 0 3 3 3]
}

// ExampleCluster_RunJob writes a custom push kernel: in-degree counting.
func ExampleCluster_RunJob() {
	g, _ := pgxd.FromEdges(3, []pgxd.Edge{{Src: 0, Dst: 2}, {Src: 1, Dst: 2}}, false)
	cluster, _ := pgxd.NewCluster(pgxd.DefaultConfig(2))
	defer cluster.Shutdown()
	_ = cluster.LoadGraph(g)

	counter, _ := cluster.AddPropI64("in_degree")
	_, _ = cluster.RunJob(pgxd.JobSpec{
		Name:       "count",
		Iter:       pgxd.IterOutEdges,
		Task:       &exampleCountTask{counter: counter},
		WriteProps: []pgxd.WriteSpec{{Prop: counter, Op: pgxd.Sum}},
	})
	fmt.Println(cluster.Core().GatherI64(counter))
	// Output: [0 0 2]
}

type exampleCountTask struct {
	pgxd.NoReads
	counter pgxd.PropID
}

func (k *exampleCountTask) RunRows(c *pgxd.Ctx, rows *pgxd.Cursor) {
	counter := c.Writer(k.counter, pgxd.Sum)
	for rows.Next() {
		counter.WriteRow(rows.Row().Refs, 1) // the word of int64 1
	}
}
