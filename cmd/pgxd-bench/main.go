// Command pgxd-bench reproduces the paper's evaluation (§5): every table and
// figure has an experiment id, and -exp selects which to run (default: paper,
// all of them).
//
// Usage:
//
//	pgxd-bench [-exp paper|table3|table4|fig3|fig4|fig5a|fig5b|fig6a|fig6b|fig6c|fig7|fig8a|fig8b]
//	           [-scale N] [-machines 1,2,4] [-workers N] [-copiers N] [-pr-iters N] [-quiet]
//
// Results print as aligned text tables shaped like the paper's originals;
// EXPERIMENTS.md records a reference run with commentary. Every other
// performance number comes from the benchmark/ harness (go run ./benchmark).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		exp      = flag.String("exp", "paper", "experiment id (paper, table3, table4, fig3, fig4, fig5a, fig5b, fig6a, fig6b, fig6c, fig7, fig8a, fig8b)")
		scale    = flag.Int("scale", bench.DefaultScale, "graph scale: datasets have 2^scale nodes")
		machines = flag.String("machines", "1,2,4", "comma-separated machine counts for sweeps")
		workers  = flag.Int("workers", 4, "worker goroutines per machine")
		copiers  = flag.Int("copiers", 2, "copier goroutines per machine")
		prIters  = flag.Int("pr-iters", 5, "power iterations for PageRank/EV cells")
		quiet    = flag.Bool("quiet", false, "suppress progress output")
	)
	flag.Parse()

	machineCounts, err := parseInts(*machines)
	if err != nil {
		fatalf("bad -machines: %v", err)
	}
	var progress bench.Progress
	if !*quiet {
		progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "[%s] "+format+"\n", append([]any{time.Now().Format("15:04:05")}, args...)...)
		}
	}

	ds := bench.NewDatasets()
	want := func(id string) bool { return *exp == "paper" || *exp == id }
	ran := false

	var table3Data *bench.Table3Data
	if want("table3") || want("fig3") {
		ran = true
		opts := bench.DefaultTable3Opts()
		opts.Scale = *scale
		opts.MachineCounts = machineCounts
		opts.Workers = *workers
		opts.Copiers = *copiers
		opts.PRIters = *prIters
		opts.Progress = progress
		tbl, data, err := bench.ExpTable3(ds, opts)
		if err != nil {
			fatalf("table3: %v", err)
		}
		table3Data = data
		if want("table3") {
			fmt.Println(tbl)
		}
	}
	if want("fig3") {
		ran = true
		fmt.Println(bench.ExpFig3(table3Data))
	}
	if want("table4") {
		ran = true
		opts := bench.DefaultTable4Opts()
		opts.Scale = *scale
		opts.Machines = machineCounts[len(machineCounts)-1]
		opts.Progress = progress
		tbl, err := bench.ExpTable4(ds, opts)
		if err != nil {
			fatalf("table4: %v", err)
		}
		fmt.Println(tbl)
	}
	if want("fig4") {
		ran = true
		opts := bench.DefaultFig4Opts()
		opts.Scale = *scale
		opts.MachineCounts = machineCounts
		opts.Workers = *workers
		opts.Copiers = *copiers
		opts.PRIters = *prIters
		opts.Progress = progress
		tbl, err := bench.ExpFig4(ds, opts)
		if err != nil {
			fatalf("fig4: %v", err)
		}
		fmt.Println(tbl)
	}
	if want("fig5a") {
		ran = true
		tbl, err := bench.ExpFig5a(ds, *scale, []int{1, 2, 4, 8}, progress)
		if err != nil {
			fatalf("fig5a: %v", err)
		}
		fmt.Println(tbl)
	}
	if want("fig5b") {
		ran = true
		tbl, err := bench.ExpFig5b(machineCounts, 200, progress)
		if err != nil {
			fatalf("fig5b: %v", err)
		}
		fmt.Println(tbl)
	}
	if want("fig6a") {
		ran = true
		p := machineCounts[len(machineCounts)-1]
		tbl, err := bench.ExpFig6a(ds, *scale, p, []int{0, 1, 4, 16, 64, 256, 1024}, progress)
		if err != nil {
			fatalf("fig6a: %v", err)
		}
		fmt.Println(tbl)
	}
	if want("fig6b") {
		ran = true
		tbl, err := bench.ExpFig6b(ds, *scale, machineCounts, progress)
		if err != nil {
			fatalf("fig6b: %v", err)
		}
		fmt.Println(tbl)
	}
	if want("fig6c") {
		ran = true
		p := machineCounts[len(machineCounts)-1]
		tbl, err := bench.ExpFig6c(ds, *scale, p, progress)
		if err != nil {
			fatalf("fig6c: %v", err)
		}
		fmt.Println(tbl)
	}
	if want("fig7") {
		ran = true
		p := machineCounts[len(machineCounts)-1]
		tbl, err := bench.ExpFig7(ds, *scale, p, []int{1, 2, 4, 8}, []int{1, 2, 4, 8}, progress)
		if err != nil {
			fatalf("fig7: %v", err)
		}
		fmt.Println(tbl)
	}
	if want("fig8a") {
		ran = true
		tbl, err := bench.ExpFig8a([]int{1, 2, 4, 8}, progress)
		if err != nil {
			fatalf("fig8a: %v", err)
		}
		fmt.Println(tbl)
	}
	if want("fig8b") {
		ran = true
		tbl, err := bench.ExpFig8b([]int{2, 4, 8},
			[]int{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10}, 300*time.Millisecond, progress)
		if err != nil {
			fatalf("fig8b: %v", err)
		}
		fmt.Println(tbl)
	}
	if !ran {
		fatalf("unknown experiment %q (see -h)", *exp)
	}
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		if v < 1 {
			return nil, fmt.Errorf("machine count %d must be >= 1", v)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pgxd-bench: "+format+"\n", args...)
	os.Exit(1)
}
