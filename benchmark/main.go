// Command benchmark is the repository's one repeatable benchmark: six
// workloads that load different layers of the engine, end-to-end metrics
// with fixed regression bounds, per-layer metrics with written-down
// predictions, a correctness gate against internal/baseline/sa, and a traced
// run per workload. See README.md in this directory.
//
// Two ways to run it:
//
//	go run ./benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// runs one workload once and prints, as the last line of standard output,
// one JSON object {"correct","attempted","failed","metrics"} — the form the
// benchmark driver calls. Without --workload, or with -sets or -check,
//
//	go run ./benchmark [-sets n] [-check] [-workload name] [-seed n]
//
// runs every workload (or the one named), each in a re-exec'd child process
// (so peak RSS and GC state are per workload), untraced and then traced, and
// prints every metric by name with its unit. A set of all workloads at the
// default seed and length is appended to benchmark/history.jsonl.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// defaultSeed feeds only the graph, weight and request generators. heldOutSeed
// is the second seed: a gain claimed while iterating on defaultSeed must also
// hold on it (choosing-metrics §6.3), so do not tune against it.
const (
	defaultSeed = 20151115
	heldOutSeed = 19880216
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// historyPath is the trajectory file: one line per recorded set.
const historyPath = "benchmark/history.jsonl"

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "run this one workload; alone: in this process, printing its result as one JSON line (the driver's form)")
		seed     = fs.Int64("seed", defaultSeed, fmt.Sprintf("seed of the graph, weight and request generators (held-out seed for claims: %d)", heldOutSeed))
		seconds  = fs.Float64("seconds", runSeconds, "length of a run's timed phase")
		trace    = fs.Int("trace", 0, "1: traced run, report the per-layer metrics; 0: report the end-to-end metrics")
		rounds   = fs.Int("rounds", 0, "fix the timed round count instead of running for -seconds")
		tiny     = fs.Bool("tiny", false, "smoke-test sizes: scale-10 graphs (use with -rounds 2)")
		traceOut = fs.String("trace-out", filepath.Join("benchmark", "out"), "directory for trace files and the run's temp files")
		sets     = fs.Int("sets", 0, "run the suite this many times and compare the first set with the last (noise-floor mode)")
		check    = fs.Bool("check", false, "compare a fresh set with the last record of the history file; exit non-zero outside the bounds")
		manifest = fs.String("write-manifest", "", "write BENCHMARK.json to this path from the program's metric tables and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := checkSpecs(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: metric tables:", err)
		return 2
	}
	if *manifest != "" {
		if err := writeManifest(*manifest); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	if *workload != "" && workloadNamed(*workload) == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}

	if *workload != "" && *sets == 0 && !*check {
		return runChild(runConfig{
			workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0,
			rounds: *rounds, tiny: *tiny, outDir: *traceOut, log: os.Stdout,
		})
	}

	s := suite{seed: *seed, seconds: *seconds, rounds: *rounds, tiny: *tiny, traceOut: *traceOut}
	for _, w := range workloads {
		if *workload == "" || *workload == w.Name {
			s.names = append(s.names, w.Name)
		}
	}
	if *sets < 1 {
		*sets = 1
	}
	return s.run(*sets, *check)
}

// runChild runs one workload in this process. Human-readable lines and one
// "detail" line come first; the last line of standard output is the result
// object. A failed output check still prints the result (correct: false,
// failed > 0) and then exits non-zero, naming the workload.
func runChild(cfg runConfig) int {
	res, det, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	db, err := json.Marshal(det)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	rb, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("%s%s\n%s\n", detailPrefix, db, rb)
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "benchmark: workload %s: %d of %d operations failed or differed from the reference\n",
			cfg.workload, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

const detailPrefix = "detail "
