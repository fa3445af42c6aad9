// Command pgxd-gen generates synthetic graphs and converts between the text
// edge-list and binary formats.
//
// Usage:
//
//	pgxd-gen -kind rmat -scale 16 -edgefactor 16 -shape twitter -o twt.bin
//	pgxd-gen -kind uniform -nodes 100000 -edges 1600000 -o uni.txt
//	pgxd-gen -kind grid -rows 300 -cols 300 -shortcuts 100 -o road.bin
//	pgxd-gen -convert in.txt -o out.bin
//	pgxd-gen -kind rmat -scale 22 -format csr2 -machines 4 -o twt.csr2
//	pgxd-gen -kind rmat -scale 22 -format csr3 -machines 4 -o twt.csr3
//
// The output format is chosen by extension: .bin for binary, anything else
// for text edge list — unless -format csr2/csr3 selects the engine's
// mmap-able CSR store format (partitioned for -machines); csr3 compresses
// the edge sections (delta-varint blocks, typically 2-4x smaller on disk).
// -convert reads a .bin file as binary and anything else as a text edge list.
// rmat and uniform are generator streams (internal/graph checks their
// arguments once, for both paths): without -weights, csr2/csr3 output streams
// through store.WriteStream and never materializes the graph, so files
// larger than RAM can be produced; other kinds (and -convert/-weights)
// materialize first. -weights LO,HI attaches uniform random edge weights.
// Bad arguments exit 1; unknown flags exit 2.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/store"
)

// options are pgxd-gen's flags.
type options struct {
	kind, shape, weights, convert, out, format string
	scale, edgeFactor, nodes, edges, k         int
	rows, cols, shortcuts, machines            int
	seed, bucketMB                             int64
	weightLo, weightHi                         float64 // -weights, parsed
}

func parseFlags() *options {
	o := &options{}
	flag.StringVar(&o.kind, "kind", "rmat", "generator: rmat, uniform, grid, prefattach")
	flag.IntVar(&o.scale, "scale", 14, "rmat: 2^scale nodes")
	flag.IntVar(&o.edgeFactor, "edgefactor", 16, "rmat: edges per node")
	flag.StringVar(&o.shape, "shape", "twitter", "rmat shape: twitter or web")
	flag.IntVar(&o.nodes, "nodes", 1<<14, "uniform/prefattach: node count")
	flag.IntVar(&o.edges, "edges", 1<<18, "uniform: edge count")
	flag.IntVar(&o.k, "k", 4, "prefattach: edges per new node")
	flag.IntVar(&o.rows, "rows", 100, "grid: rows")
	flag.IntVar(&o.cols, "cols", 100, "grid: cols")
	flag.IntVar(&o.shortcuts, "shortcuts", 50, "grid: random long-range edges")
	flag.Int64Var(&o.seed, "seed", 42, "generator seed")
	flag.StringVar(&o.weights, "weights", "", "attach uniform edge weights: LO,HI")
	flag.StringVar(&o.convert, "convert", "", "convert an existing graph file instead of generating")
	flag.StringVar(&o.out, "o", "", "output path (.bin = binary, else text)")
	flag.StringVar(&o.format, "format", "auto", "output format: auto (by extension), csr2 (engine store file), or csr3 (compressed store file)")
	flag.IntVar(&o.machines, "machines", 1, "csr2/csr3: partition count baked into the file")
	flag.Int64Var(&o.bucketMB, "bucket-mb", 64, "csr2/csr3 streaming: scatter bucket size in MiB (peak RSS knob)")
	flag.Parse()
	if o.out == "" {
		fatalf("-o is required")
	}
	if o.format != "auto" && o.format != "csr2" && o.format != "csr3" {
		fatalf("unknown -format %q", o.format)
	}
	if o.format != "auto" && o.machines < 1 {
		fatalf("-machines must be >= 1")
	}
	if o.weights != "" {
		o.weightLo, o.weightHi = weightRange(o.weights)
	}
	return o
}

func main() {
	o := parseFlags()
	es, build, err := source(o)
	if err != nil {
		fatalf("%v", err)
	}
	// Streaming csr path: a generator stream re-sweeps its fixed shards, so
	// the file is produced in O(N + bucket) memory, never O(M).
	if es != nil && o.format != "auto" && o.weights == "" {
		opt := store.StreamOptions{Machines: o.machines, BucketBytes: o.bucketMB << 20, Compress: o.format == "csr3"}
		if err := store.WriteStream(o.out, es, opt); err != nil {
			fatalf("writing %s: %v", o.out, err)
		}
		fi, _ := os.Stat(o.out)
		fmt.Fprintf(os.Stderr, "wrote %s: %s p=%d, %d bytes (streamed)\n", o.out, o.format, o.machines, fi.Size())
		return
	}
	g, err := build()
	if err != nil {
		fatalf("%v", err)
	}
	if o.weights != "" {
		g = g.WithUniformWeights(o.weightLo, o.weightHi, o.seed)
	}
	if err := write(o, g); err != nil {
		fatalf("writing %s: %v", o.out, err)
	}
	where := ""
	if o.format != "auto" {
		where = fmt.Sprintf("%s p=%d, ", o.format, o.machines)
	}
	fmt.Fprintf(os.Stderr, "wrote %s: %s%s\n", o.out, where, graph.ComputeDegreeStats(g))
}

// source resolves -convert and -kind to what builds the graph: a generator
// stream for rmat and uniform (build materializes it), a reader or an
// in-memory generator otherwise.
func source(o *options) (*graph.GenStream, func() (*graph.Graph, error), error) {
	if o.convert != "" {
		return nil, func() (*graph.Graph, error) { return graph.ReadFile(o.convert) }, nil
	}
	var es *graph.GenStream
	var err error
	switch o.kind {
	case "rmat":
		params := graph.TwitterLike()
		if o.shape == "web" {
			params = graph.WebLike()
		} else if o.shape != "twitter" {
			return nil, nil, fmt.Errorf("unknown -shape %q", o.shape)
		}
		es, err = graph.RMATStream(o.scale, o.edgeFactor, params, o.seed)
	case "uniform":
		es, err = graph.UniformStream(o.nodes, o.edges, o.seed)
	case "grid":
		return nil, func() (*graph.Graph, error) { return graph.Grid(o.rows, o.cols, o.shortcuts, o.seed) }, nil
	case "prefattach":
		return nil, func() (*graph.Graph, error) { return graph.PreferentialAttachment(o.nodes, o.k, o.seed) }, nil
	default:
		return nil, nil, fmt.Errorf("unknown -kind %q", o.kind)
	}
	if err != nil {
		return nil, nil, err
	}
	return es, es.Graph, nil
}

// weightRange parses -weights LO,HI.
func weightRange(s string) (lo, hi float64) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		fatalf("-weights wants LO,HI")
	}
	lo, err1 := strconv.ParseFloat(parts[0], 64)
	hi, err2 := strconv.ParseFloat(parts[1], 64)
	if err1 != nil || err2 != nil || hi <= lo {
		fatalf("bad -weights %q", s)
	}
	return lo, hi
}

// write stores g in o's format: a csr2/csr3 store file, or by extension a
// binary or text graph file.
func write(o *options, g *graph.Graph) error {
	switch o.format {
	case "csr2":
		return store.WriteGraph(o.out, g, o.machines)
	case "csr3":
		return store.WriteGraphCompressed(o.out, g, o.machines)
	}
	f, err := os.Create(o.out)
	if err != nil {
		return err
	}
	if strings.HasSuffix(o.out, ".bin") {
		err = graph.WriteBinary(f, g)
	} else {
		err = graph.WriteEdgeList(f, g)
	}
	return errors.Join(err, f.Close())
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pgxd-gen: "+format+"\n", args...)
	os.Exit(1)
}
