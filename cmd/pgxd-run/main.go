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

// options are pgxd-run's flags.
type options struct {
	graphPath, algo                   string
	machines, workers, copiers, iters int
	top                               int
	source                            uint
	threshold                         float64
	tcp, obs                          bool
	residentMB, decodeMB              int64
}

func parseFlags() *options {
	o := &options{}
	flag.StringVar(&o.graphPath, "graph", "", "graph file (.csr2/.csr3 store file, .bin, or text edge list)")
	flag.StringVar(&o.algo, "algo", "pagerank", "algorithm to run: "+strings.Join(algoNames(), ", "))
	flag.IntVar(&o.machines, "machines", 4, "simulated machine count")
	flag.IntVar(&o.workers, "workers", 4, "workers per machine")
	flag.IntVar(&o.copiers, "copiers", 2, "copiers per machine")
	flag.IntVar(&o.iters, "iters", 0, "iterations for pagerank/eigenvector/ppr (0 = the catalog's default)")
	flag.UintVar(&o.source, "source", 0, "source vertex for the single-source algorithms")
	flag.Float64Var(&o.threshold, "threshold", 0, "delta threshold for pagerank-approx (0 = the catalog's default)")
	flag.IntVar(&o.top, "top", 5, "print the top-N vertices by result value")
	flag.BoolVar(&o.tcp, "tcp", false, "run over loopback TCP instead of in-process channels")
	flag.BoolVar(&o.obs, "obs", false, "attach the observability registry and print a per-job report")
	flag.Int64Var(&o.residentMB, "resident-mb", 0, ".csr2/.csr3 only: resident budget in MiB for the mmap'd topology (0 = unbounded); also bounds each machine's in-memory write backlog, which overflows to a temp file past it")
	flag.Int64Var(&o.decodeMB, "decode-cache-mb", 0, ".csr3 only: resident decode pool in MiB (0 = default, <0 = the whole file; never below the file's largest block)")
	flag.Parse()
	if o.graphPath == "" {
		fatalf("-graph is required")
	}
	if o.source > math.MaxUint32 {
		fatalf("-source %d does not fit a 32-bit node id", o.source)
	}
	return o
}

func main() {
	o := parseFlags()
	spec, ok := algorithms.Lookup(o.algo)
	if !ok {
		fatalf("unknown -algo %q (have: %s)", o.algo, strings.Join(algoNames(), ", "))
	}
	g, sf := openGraph(o)
	if sf != nil {
		defer sf.Close()
	}
	cfg := config(o, sf)
	if o.tcp {
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
	fmt.Printf("cluster: %d machines x %d workers/%d copiers\n", o.machines, o.workers, o.copiers)

	if weighted := sf != nil && sf.Weighted() || g != nil && g.Weighted(); spec.Weighted && !weighted {
		fatalf("%s needs a weighted graph (pgxd-gen -weights)", spec.Name)
	}
	res, met, err := spec.Run(cluster.Core(), algorithms.Params{
		Iterations: o.iters, Threshold: o.threshold, Source: pgxd.NodeID(o.source), Graph: g,
	})
	if err != nil {
		if dump := cluster.LastAbortDump(); dump != nil {
			fmt.Fprintln(os.Stderr, dump.Summary())
		}
		fatalf("%s: %v", o.algo, err)
	}
	report(cluster, spec, res, met, o.top)
}

// openGraph maps a .csr2/.csr3 store file, whose partition count then sets
// o.machines, or reads any other file into memory.
func openGraph(o *options) (*graph.Graph, *pgxd.StoreFile) {
	if !strings.HasSuffix(o.graphPath, ".csr2") && !strings.HasSuffix(o.graphPath, ".csr3") {
		g, err := graph.ReadFile(o.graphPath)
		if err != nil {
			fatalf("loading %s: %v", o.graphPath, err)
		}
		fmt.Printf("loaded %s: %s\n", o.graphPath, graph.ComputeDegreeStats(g))
		return g, nil
	}
	sf, err := pgxd.OpenStore(o.graphPath)
	if err != nil {
		fatalf("mapping %s: %v", o.graphPath, err)
	}
	o.machines = sf.NumMachines() // partition count is baked into the file
	format := "csr2"
	if sf.Compressed() {
		format = "csr3"
	}
	fmt.Printf("mapped %s: %s p=%d N=%d M=%d weighted=%v\n",
		o.graphPath, format, sf.NumMachines(), sf.NumNodes(), sf.NumEdges(), sf.Weighted())
	return nil, sf
}

// config builds the engine configuration from the flags; sf is the mapped
// store file, nil for an in-memory graph.
func config(o *options, sf *pgxd.StoreFile) pgxd.Config {
	cfg := pgxd.DefaultConfig(o.machines)
	cfg.Workers = o.workers
	cfg.Copiers = o.copiers
	if o.residentMB > 0 {
		if sf == nil {
			fatalf("-resident-mb only applies to .csr2/.csr3 graphs")
		}
		cfg.ResidentBudgetBytes = o.residentMB << 20
		cfg.SpillWrites = true
	}
	if o.decodeMB != 0 {
		if sf == nil || !sf.Compressed() {
			fatalf("-decode-cache-mb only applies to .csr3 graphs")
		}
		if o.decodeMB > 0 {
			cfg.DecodeCacheBytes = o.decodeMB << 20
		} else {
			cfg.DecodeCacheBytes = -1 // the whole file
		}
	}
	if o.obs {
		cfg.Obs = pgxd.NewObsRegistry()
	}
	return cfg
}

// report prints the run's metrics, its last job report when observed, and
// its result.
func report(cluster *pgxd.Cluster, spec algorithms.Spec, res algorithms.Result, met algorithms.Metrics, top int) {
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
	if vs := res.Top(top, spec.Ascending); len(vs) > 0 {
		fmt.Printf("top %d vertices:\n", len(vs))
		for _, v := range vs {
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

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pgxd-run: "+format+"\n", args...)
	os.Exit(1)
}
