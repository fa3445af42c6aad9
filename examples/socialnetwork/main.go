// Social-network analysis: the workload class the paper's introduction
// motivates. On a Twitter-shaped follower graph, find the communities
// (weakly connected components), measure engagement cores (k-core), and
// rank influencers (approximate PageRank with delta propagation) — all on
// one loaded graph, reusing the cluster across algorithms.
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/pgxd"
)

func main() {
	g, err := pgxd.RMAT(13, 16, pgxd.TwitterLike(), 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("follower graph: %d users, %d follow edges\n", g.NumNodes(), g.NumEdges())

	// Each machine keeps a replica of every remote account its rows follow or
	// are followed by — celebrities included — refreshed once per superstep.
	cluster, err := pgxd.NewCluster(pgxd.DefaultConfig(4))
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Shutdown()
	if err := cluster.LoadGraph(g); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cluster: %d machines\n\n", cluster.Core().Machines())

	// 1. Communities: weakly connected components.
	labels, met, err := cluster.WCC(10000)
	if err != nil {
		log.Fatal(err)
	}
	sizes := map[int64]int{}
	for _, l := range labels {
		sizes[l]++
	}
	biggest, biggestSize := int64(0), 0
	for l, s := range sizes {
		if s > biggestSize {
			biggest, biggestSize = l, s
		}
	}
	fmt.Printf("communities: %d components in %d rounds; largest has %d users (%.1f%%)\n",
		len(sizes), met.Iterations, biggestSize, 100*float64(biggestSize)/float64(g.NumNodes()))

	// 2. Engagement: the densest mutual-follow core.
	maxCore, coreNums, met, err := cluster.KCore(0)
	if err != nil {
		log.Fatal(err)
	}
	inMax := 0
	for _, c := range coreNums {
		if c == maxCore {
			inMax++
		}
	}
	fmt.Printf("engagement: max core number %d (%d users) after %d peeling steps\n",
		maxCore, inMax, met.Iterations)

	// 3. Influence: approximate PageRank — vertices deactivate as their
	// rank deltas converge, so late iterations are nearly free.
	ranks, met, err := cluster.PageRankApprox(0.85, 1e-8, 1000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("influence: approximate PageRank converged in %d iterations (%v)\n\n",
		met.Iterations, met.Total.Round(1000))

	type user struct {
		id   pgxd.NodeID
		rank float64
	}
	var users []user
	for id, r := range ranks {
		if labels[id] == biggest { // rank inside the main community
			users = append(users, user{pgxd.NodeID(id), r})
		}
	}
	sort.Slice(users, func(i, j int) bool { return users[i].rank > users[j].rank })
	fmt.Println("top influencers in the largest community:")
	for i := 0; i < 5 && i < len(users); i++ {
		u := users[i]
		fmt.Printf("  #%d user %6d: rank %.5f, %d followers, core %d\n",
			i+1, u.id, u.rank, g.InDegree(u.id), coreNums[u.id])
	}
}
