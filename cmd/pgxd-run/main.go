// Command pgxd-run executes one graph algorithm on the PGX.D engine and
// prints the result summary plus execution metrics.
//
// Usage:
//
//	pgxd-run -graph twt.bin -algo pagerank -machines 4 [-iters 10] [-top 5]
//	pgxd-run -graph road.txt -algo sssp -source 0 -machines 2
//	pgxd-run -graph twt.csr2 -algo pagerank -resident-mb 64
//	pgxd-run -graph twt.csr3 -algo pagerank -resident-mb 64 -decode-cache-mb 16
//
// -algo takes any name in internal/algorithms' catalog (the server's run op
// reads the same table); an unknown name prints the list.
//
// A .csr2 or .csr3 graph (pgxd-gen -format csr2/csr3) runs out-of-core: the
// file is mmap'd and adopted zero-copy, the machine count comes from the
// file, and -resident-mb bounds how much of it the engine keeps resident
// and, per machine, how much of the write backlog stays in memory before it
// overflows to a temp file. A compressed .csr3 file
// additionally inflates edge blocks into a resident decode pool sized by
// -decode-cache-mb; with a resident budget set, property columns move
// off-heap too.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"repro/internal/algorithms"
	"repro/internal/graph"
	"repro/pgxd"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "graph file (.bin or text edge list)")
		algo      = flag.String("algo", "pagerank", "algorithm to run: "+strings.Join(algoNames(), ", "))
		machines  = flag.Int("machines", 4, "simulated machine count")
		workers   = flag.Int("workers", 4, "workers per machine")
		copiers   = flag.Int("copiers", 2, "copiers per machine")
		iters     = flag.Int("iters", 10, "iterations for pagerank/eigenvector")
		source    = flag.Uint("source", 0, "source vertex for the single-source algorithms")
		threshold = flag.Float64("threshold", 1e-7, "delta threshold for pagerank-approx")
		top       = flag.Int("top", 5, "print the top-N vertices by result value")
		tcp       = flag.Bool("tcp", false, "run over loopback TCP instead of in-process channels")
		obsOn     = flag.Bool("obs", false, "attach the observability registry and print a per-job report")
		resident  = flag.Int64("resident-mb", 0, ".csr2/.csr3 only: resident budget in MiB for the mmap'd topology (0 = unbounded); also bounds each machine's in-memory write backlog, which overflows to a temp file past it")
		decodeMB  = flag.Int64("decode-cache-mb", 0, ".csr3 only: resident decode pool in MiB (0 = default, <0 = the whole file; never below the file's largest block)")
	)
	flag.Parse()
	if *graphPath == "" {
		fatalf("-graph is required")
	}
	if *source > math.MaxUint32 {
		fatalf("-source %d does not fit a 32-bit node id", *source)
	}
	spec, ok := algorithms.Lookup(*algo)
	if !ok {
		fatalf("unknown -algo %q (have: %s)", *algo, strings.Join(algoNames(), ", "))
	}
	var (
		g        *graph.Graph
		sf       *pgxd.StoreFile
		weighted bool
		err      error
	)
	if strings.HasSuffix(*graphPath, ".csr2") || strings.HasSuffix(*graphPath, ".csr3") {
		sf, err = pgxd.OpenStore(*graphPath)
		if err != nil {
			fatalf("mapping %s: %v", *graphPath, err)
		}
		defer sf.Close()
		weighted = sf.Weighted()
		*machines = sf.NumMachines() // partition count is baked into the file
		format := "csr2"
		if sf.Compressed() {
			format = "csr3"
		}
		fmt.Printf("mapped %s: %s p=%d N=%d M=%d weighted=%v\n",
			*graphPath, format, sf.NumMachines(), sf.NumNodes(), sf.NumEdges(), weighted)
	} else {
		g, err = loadAny(*graphPath)
		if err != nil {
			fatalf("loading %s: %v", *graphPath, err)
		}
		weighted = g.Weighted()
		fmt.Printf("loaded %s: %s\n", *graphPath, graph.ComputeDegreeStats(g))
	}

	cfg := pgxd.DefaultConfig(*machines)
	cfg.Workers = *workers
	cfg.Copiers = *copiers
	if *resident > 0 {
		if sf == nil {
			fatalf("-resident-mb only applies to .csr2/.csr3 graphs")
		}
		cfg.ResidentBudgetBytes = *resident << 20
		cfg.SpillWrites = true
	}
	if *decodeMB != 0 {
		if sf == nil || !sf.Compressed() {
			fatalf("-decode-cache-mb only applies to .csr3 graphs")
		}
		if *decodeMB > 0 {
			cfg.DecodeCacheBytes = *decodeMB << 20
		} else {
			cfg.DecodeCacheBytes = -1 // the whole file
		}
	}
	if *obsOn {
		cfg.Obs = pgxd.NewObsRegistry()
	}
	if *tcp {
		fabric, err := pgxd.NewTCPFabric(cfg)
		if err != nil {
			fatalf("tcp fabric: %v", err)
		}
		cfg.Fabric = fabric
		defer fabric.Close()
	}
	cluster, err := pgxd.NewCluster(cfg)
	if err != nil {
		fatalf("%v", err)
	}
	defer cluster.Shutdown()
	if sf != nil {
		err = cluster.LoadStore(sf)
	} else {
		err = cluster.LoadGraph(g)
	}
	if err != nil {
		fatalf("distributing graph: %v", err)
	}
	fmt.Printf("cluster: %d machines x %d workers/%d copiers\n", *machines, *workers, *copiers)

	if spec.Weighted && !weighted {
		fatalf("%s needs a weighted graph (pgxd-gen -weights)", spec.Name)
	}
	res, met, err := spec.Run(cluster.Core(), algorithms.Params{
		Iterations: *iters, Damping: 0.85, Threshold: *threshold, Source: pgxd.NodeID(*source), Graph: g,
	})
	if err != nil {
		if dump := cluster.LastAbortDump(); dump != nil {
			fmt.Fprintln(os.Stderr, dump.Summary())
		}
		fatalf("%s: %v", *algo, err)
	}

	fmt.Printf("done: %d iterations, %d jobs, %v total (%v per iteration)\n",
		met.Iterations, met.Jobs, met.Total.Round(10e3), met.PerIteration().Round(10e3))
	fmt.Printf("traffic: %s\n", met.Traffic)
	if rep := cluster.LastJobReport(); rep != nil {
		fmt.Printf("obs: %s\n", rep.Line())
		fmt.Println(rep.TrafficMatrixString())
	}
	if res.Summary != "" {
		fmt.Println(res.Summary)
	}
	if top := res.Top(*top, spec.Ascending); len(top) > 0 {
		fmt.Printf("top %d vertices:\n", len(top))
		for _, v := range top {
			fmt.Printf("  node %8d  %g\n", v.Node, v.Value)
		}
	}
}

// algoNames lists the catalog's names, in catalog order.
func algoNames() []string {
	var names []string
	for _, s := range algorithms.Catalog() {
		names = append(names, s.Name)
	}
	return names
}

func loadAny(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".bin") {
		return graph.ReadBinary(f)
	}
	return graph.ReadEdgeList(f)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pgxd-run: "+format+"\n", args...)
	os.Exit(1)
}
