// Analytics service: the paper's §6 outlook end to end. A long-running
// multi-tenant server hosts several graph instances; an interactive client
// loads graphs and runs analyses over the wire; and the SQL-ish query layer
// post-processes results — the paper's own example, "find the top-100
// Pagerank nodes that have less than 1000 neighbors", at laptop scale.
package main

import (
	"fmt"
	"log"

	"repro/internal/query"
	"repro/internal/server"
	"repro/pgxd"
)

func main() {
	// Host the engine as a service (normally `pgxd-server` in its own
	// process; in-process here so the example is self-contained).
	srv, err := server.New(server.DefaultServerConfig())
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("analytics service up on %s\n\n", srv.Addr())

	client, err := server.Dial(srv.Addr())
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	// Tenant one: a social graph. Tenant two: a road network. Both resident
	// at once, each with its own engine cluster.
	if _, err := client.Generate(server.Request{
		Graph: "social", Kind: "rmat", Scale: 12, EdgeFactor: 16, Seed: 42, Machines: 4,
	}); err != nil {
		log.Fatal(err)
	}
	if _, err := client.Generate(server.Request{
		Graph: "roads", Kind: "grid", Nodes: 60, Seed: 7, WeightLo: 1, WeightHi: 5, Machines: 2,
	}); err != nil {
		log.Fatal(err)
	}
	graphs, err := client.List()
	if err != nil {
		log.Fatal(err)
	}
	for _, g := range graphs {
		fmt.Printf("loaded %-7s %6d nodes %8d edges on %d machines\n",
			g.Name, g.Nodes, g.Edges, g.Machines)
	}

	// Interactive analyses over the wire.
	pr, err := client.Run(server.Request{Graph: "social", Algo: "pagerank", Iterations: 10, TopK: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsocial/pagerank: %d iterations in %.1fms; top node %d\n",
		pr.Iterations, pr.Millis, pr.TopVertices[0].Node)
	tri, err := client.Run(server.Request{Graph: "social", Algo: "triangles"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("social/triangles: %s in %.1fms\n", tri.Extra, tri.Millis)
	sp, err := client.Run(server.Request{Graph: "roads", Algo: "sssp", Source: 0, TopK: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("roads/sssp: converged in %d rounds, %.1fms\n", sp.Iterations, sp.Millis)

	// Post-processing with the query layer (paper §6.1). Recompute ranks
	// locally for full columns, then run the paper's example query.
	g, err := pgxd.RMAT(12, 16, pgxd.TwitterLike(), 42)
	if err != nil {
		log.Fatal(err)
	}
	cluster, err := pgxd.NewCluster(pgxd.DefaultConfig(4))
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Shutdown()
	if err := cluster.LoadGraph(g); err != nil {
		log.Fatal(err)
	}
	ranks, _, err := cluster.PageRankPull(10, 0.85)
	if err != nil {
		log.Fatal(err)
	}
	cols := append(query.DegreeColumns(g), query.F64Col("rank", ranks))
	frame, err := query.NewFrame(g.NumNodes(), cols...)
	if err != nil {
		log.Fatal(err)
	}
	rows, err := frame.
		Where("degree", query.Lt(1000)).
		OrderBy("rank", true).
		Limit(5).
		Select("rank", "degree")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntop PageRank among nodes with fewer than 1000 neighbors:")
	for i, r := range rows {
		fmt.Printf("  #%d node %6d  rank %.5f  degree %.0f\n", i+1, r.Node, r.Values[0], r.Values[1])
	}
	agg, err := frame.Where("degree", query.Ge(1000)).Agg("rank")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("for contrast, the %d hubs with >=1000 neighbors hold mean rank %.5f\n", agg.Count, agg.Mean)
}
