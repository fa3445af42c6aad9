// Quickstart: boot a simulated PGX.D cluster, load a generated graph, and
// compute PageRank with remote data pulling — the engine's headline pattern.
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/pgxd"
)

func main() {
	// A Twitter-shaped power-law graph: 2^14 nodes, ~16 edges per node.
	g, err := pgxd.RMAT(14, 16, pgxd.TwitterLike(), 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())

	// Four simulated machines connected by the in-process fabric. Each has
	// its own workers, copiers, poller, graph partition, and replicas of the
	// remote values its rows reference.
	cluster, err := pgxd.NewCluster(pgxd.DefaultConfig(4))
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Shutdown()
	if err := cluster.LoadGraph(g); err != nil {
		log.Fatal(err)
	}
	fmt.Println("cluster: 4 machines")

	ranks, metrics, err := cluster.PageRankPull(20, 0.85)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pagerank: %d iterations in %v (%v/iter), %d frames over the fabric\n",
		metrics.Iterations, metrics.Total.Round(1000), metrics.PerIteration().Round(1000),
		metrics.Traffic.FramesSent)

	type ranked struct {
		node pgxd.NodeID
		pr   float64
	}
	top := make([]ranked, 0, len(ranks))
	for n, pr := range ranks {
		top = append(top, ranked{pgxd.NodeID(n), pr})
	}
	sort.Slice(top, func(i, j int) bool { return top[i].pr > top[j].pr })
	fmt.Println("top 5 nodes by PageRank:")
	for _, r := range top[:5] {
		fmt.Printf("  node %6d  pr=%.5f  (in-degree %d)\n", r.node, r.pr, g.InDegree(r.node))
	}
}
