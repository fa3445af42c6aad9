// Command pgxd-bench reproduces the paper's evaluation (§5): every table and
// figure has an experiment id, and -exp selects which to run (default: all).
//
// Usage:
//
//	pgxd-bench [-exp all|table3|table4|fig3|fig4|fig5a|fig5b|fig6a|fig6b|fig6c|fig7|fig8a|fig8b|ablations|faults|direction|balance|serve|ooc]
//	           [-scale N] [-machines 1,2,4] [-workers N] [-copiers N] [-quiet]
//
// The direction, balance, serve, and ooc experiments additionally write their
// sweeps as JSON (-direction-out / -balance-out / -serve-out / -ooc-out,
// defaults BENCH_direction.json / BENCH_balance.json / BENCH_serve.json /
// BENCH_ooc.json). The serve
// experiment load-tests the multi-tenant serving layer: admission latency
// percentiles, jobs/sec, engine-pool scaling on one graph, and
// deadline/cancellation behaviour. The balance experiment measures online
// repartitioning (Cluster.Replan + LoadPlan) on a deliberately skewed
// partition. The ooc experiment exercises the
// out-of-core storage subsystem: bit-identity of mmap'd store-file runs against
// in-memory runs, then BFS and PageRank on a CSR exceeding the resident
// budget with the process peak RSS asserted under -ooc-cap-mb (the run exits
// non-zero when the cap is blown).
//
// Results print as aligned text tables shaped like the paper's originals;
// EXPERIMENTS.md records a reference run with commentary.
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
		exp       = flag.String("exp", "all", "experiment id (all, table3, table4, fig3, fig4, fig5a, fig5b, fig6a, fig6b, fig6c, fig7, fig8a, fig8b, ablations, faults, obs, direction, balance, serve, ooc)")
		balOut    = flag.String("balance-out", "BENCH_balance.json", "output path for the load-balancing experiment's JSON report")
		serveOut  = flag.String("serve-out", "BENCH_serve.json", "output path for the serving-layer experiment's JSON report")
		dirOut    = flag.String("direction-out", "BENCH_direction.json", "output path for the direction switching experiment's JSON report")
		obsOut    = flag.String("obs-out", "BENCH_obs.json", "output path for the observability experiment's JSON report")
		oocOut    = flag.String("ooc-out", "BENCH_ooc.json", "output path for the out-of-core experiment's JSON report")
		oocScale  = flag.Int("ooc-scale", bench.OOCDefaultScale, "graph scale of the ooc experiment's RSS-capped phase")
		oocBudget = flag.Int64("ooc-budget-mb", bench.OOCDefaultBudgetMB, "resident budget (MiB) of the ooc experiment's capped phase")
		oocCap    = flag.Int64("ooc-cap-mb", bench.OOCDefaultRSSCapMB, "peak-RSS cap (MiB) the ooc experiment asserts")
		obsRun    = flag.Bool("obs", false, "also run the observability experiment and write its report")
		scale     = flag.Int("scale", bench.DefaultScale, "graph scale: datasets have 2^scale nodes")
		machines  = flag.String("machines", "1,2,4", "comma-separated machine counts for sweeps")
		workers   = flag.Int("workers", 4, "worker goroutines per machine")
		copiers   = flag.Int("copiers", 2, "copier goroutines per machine")
		prIters   = flag.Int("pr-iters", 5, "power iterations for PageRank/EV cells")
		quiet     = flag.Bool("quiet", false, "suppress progress output")
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
	want := func(id string) bool { return *exp == "all" || *exp == id }
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
	if want("ablations") {
		ran = true
		p := machineCounts[len(machineCounts)-1]
		tbl, err := bench.ExpAblations(ds, *scale, p, progress)
		if err != nil {
			fatalf("ablations: %v", err)
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
	// The fault smoke is diagnostics for the failure model, not part of the
	// paper reproduction, so it runs only when named explicitly.
	if *exp == "faults" {
		ran = true
		p := machineCounts[len(machineCounts)-1]
		tbl, err := bench.ExpFaults(ds, *scale, p, progress)
		if err != nil {
			fatalf("faults: %v", err)
		}
		fmt.Println(tbl)
	}
	// The direction experiment ablates the adaptive push/pull traversal; it
	// boots many clusters per cell, so like faults it runs only when named
	// explicitly.
	if *exp == "direction" {
		ran = true
		p := machineCounts[len(machineCounts)-1]
		tbl, rep, err := bench.ExpDirection(ds, *scale, p, *prIters, progress)
		if err != nil {
			fatalf("direction: %v", err)
		}
		fmt.Println(tbl)
		if err := rep.WriteJSON(*dirOut); err != nil {
			fatalf("direction: writing %s: %v", *dirOut, err)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "direction: report written to %s\n", *dirOut)
		}
	}
	// The balance experiment measures online repartitioning on a deliberately
	// skewed cut; it boots many clusters per cell, so it runs only when named
	// explicitly.
	if *exp == "balance" {
		ran = true
		p := machineCounts[len(machineCounts)-1]
		tbl, rep, err := bench.ExpBalance(ds, *scale, p, *prIters, progress)
		if err != nil {
			fatalf("balance: %v", err)
		}
		fmt.Println(tbl)
		if err := rep.WriteJSON(*balOut); err != nil {
			fatalf("balance: writing %s: %v", *balOut, err)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "balance: report written to %s\n", *balOut)
		}
	}
	// The observability experiment measures the engine's own instrumentation
	// (overhead, trace spans, traffic matrix, abort flight recorder); it runs
	// when named explicitly or requested alongside other experiments via -obs.
	if *exp == "obs" || *obsRun {
		ran = true
		p := machineCounts[len(machineCounts)-1]
		tbl, rep, err := bench.ExpObs(ds, *scale, p, *prIters, progress)
		if err != nil {
			fatalf("obs: %v", err)
		}
		fmt.Println(tbl)
		if rep.LastJob != nil {
			fmt.Println("last superstep traffic matrix:")
			fmt.Println(rep.LastJob.TrafficMatrixString())
		}
		if err := rep.WriteJSON(*obsOut); err != nil {
			fatalf("obs: writing %s: %v", *obsOut, err)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "obs: report written to %s\n", *obsOut)
		}
	}
	// The serve experiment load-tests the multi-tenant serving layer over
	// its TCP protocol; it is system diagnostics rather than a paper figure,
	// so it runs only when named explicitly.
	if *exp == "serve" {
		ran = true
		p := machineCounts[len(machineCounts)-1]
		tbl, rep, err := bench.ExpServe(*scale, p, 4, 6, progress)
		if err != nil {
			fatalf("serve: %v", err)
		}
		fmt.Println(tbl)
		if err := rep.WriteJSON(*serveOut); err != nil {
			fatalf("serve: writing %s: %v", *serveOut, err)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "serve: report written to %s\n", *serveOut)
		}
	}
	// The out-of-core experiment stream-writes a multi-hundred-MiB CSR file
	// and pins the process peak RSS, so it runs only when named explicitly.
	if *exp == "ooc" {
		ran = true
		p := machineCounts[len(machineCounts)-1]
		tbl, rep, err := bench.ExpOOC(ds, *oocScale, p, *prIters, *oocBudget, *oocCap, progress)
		if err != nil {
			fatalf("ooc: %v", err)
		}
		fmt.Println(tbl)
		if err := rep.WriteJSON(*oocOut); err != nil {
			fatalf("ooc: writing %s: %v", *oocOut, err)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "ooc: report written to %s\n", *oocOut)
		}
		if !rep.UnderCap {
			fatalf("ooc: peak RSS %d MiB exceeded the %d MiB cap", rep.PeakVmHWMBytes>>20, rep.RSSCapBytes>>20)
		}
		if *oocScale >= 18 && rep.CompressionRatio < 1.8 {
			fatalf("ooc: csr3 only %.2fx smaller than csr2 (want >= 1.8x at scale %d)",
				rep.CompressionRatio, *oocScale)
		}
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
