package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// runSeconds is how long one run's timed phase lasts (BENCHMARK.json's
// run_seconds). It is sized from the driver's budget — 4 + 22 × 6 runs plus
// two builds inside 3420 s leaves about 24 s per run; process start, the
// set-ups (up to 3 s and a warm-up) and the warm-up round take 2–5 s on top
// of the timed phase, and the rest is headroom for a slower box.
const runSeconds = 12

// Workload names. They are fixed: later PRs cite them.
const (
	wlScanLocal  = "scan-local"
	wlPullTCP    = "pull-tcp"
	wlPushTCP    = "push-tcp"
	wlMicrostep  = "microstep"
	wlOOCStore   = "ooc-store"
	wlServeMixed = "serve-mixed"
)

// workloadSpec is one workload: its manifest entry and the two functions
// that make it run.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// setup builds the workload's instance; traced attaches obs registries.
	setup func(h *harness, traced bool) (instance, error)
	// micro runs the isolated loops recorded under this workload.
	micro func(h *harness, inst instance)
}

// workloads lists the six workloads in run order. Each `why` says which
// layers the workload loads and which it leaves idle, so a change to one
// layer has a workload that exercises it and one that bypasses it.
var workloads = []workloadSpec{
	{wlScanLocal, "One machine, no communication: PageRank-pull and WCC are all core worker/Task/Ctx edge scan and partition chunk claims; comm, codec, store and server idle. Isolates the local-scan gap to SA.", setupScanLocal, microScanLocal},
	{wlPullTCP, "Two machines over loopback TCP running PageRank-pull: remote reads, so request flush, read combining, sorted-batch codec, TCP round trip and copier serve carry the superstep.", setupPullTCP, microPullTCP},
	{wlPushTCP, "Same graph and fabric as pull-tcp used the other way: PageRank-push and WCC are remote writes, so buffer append, write combining, copier apply via reduce atomics, write drain and ghost merge.", setupPushTCP, microPushTCP},
	{wlMicrostep, "k-core peeling plus hop-distance and SSSP on a shortcut-free grid: hundreds of near-empty supersteps, so barriers, termination allreduce, ghost sync and job set-up dominate; bandwidth idle.", setupMicrostep, microMicrostep},
	{wlOOCStore, "The graph read from csr3 and csr2 store files with decode cache and residency window several times smaller than the edge data: store decode, eviction and mmap faults are hot nowhere else.", setupOOCStore, microOOCStore},
	{wlServeMixed, "Closed loop of nproc clients sending a seeded mix of short analyses to an in-process server: JSON protocol, admission scheduler and engine pool do real work here and none elsewhere.", setupServeMixed, microServeMixed},
}

// metricSpec describes one metric. Bound is set for end-to-end metrics only;
// Layer, Src and Moves for per-layer metrics only.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	// Layer is the module the metric belongs to.
	Layer string
	// Src says how it is measured: "micro" (isolated loop over the layer's
	// public function, measured on the workloads in On only), "span"
	// (benchmark-side timer around a call), "count" (a counter the call
	// already returns), "trace" (the traced run's obs registry).
	Src string
	// On lists the workloads a micro metric is measured on; it reads 0 on the
	// others. Empty means every workload where the data exists.
	On []string
	// Moves is the prediction written down before measuring: which end-to-end
	// metric the layer metric should move, on which workload. On every
	// workload not named the prediction is no change.
	Moves string
}

// endToEnd are the metrics a user of the engine sees. Every workload reports
// every one of them, so each is defined for batch and served workloads alike.
var endToEnd = []metricSpec{
	{Name: "slowdown_vs_sa", Unit: "ratio", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.15},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the single-layer metrics, grouped by module. The traced run
// reports all of them on every workload; one that a workload does not
// exercise reads 0 there (wire_ratio in process, store.* off ooc-store).
var perLayer = []metricSpec{
	// The round as measured. It has no layer and no bound: on a shared host it
	// follows the host's load, which slowdown_vs_sa divides out.
	{Name: "mteps", Unit: "Medges/s", Better: "higher", Layer: "round", Src: "span", Moves: "the round's nominal edges over its median time, as measured"},
	// graph
	{Name: "graph.rmat_gen_s", Unit: "s", Better: "lower", Layer: "graph", Src: "span", Moves: "setup_s @ all"},
	{Name: "graph.weights_s", Unit: "s", Better: "lower", Layer: "graph", Src: "span", Moves: "setup_s @ microstep, ooc-store"},
	{Name: "graph.csr_build_medges_per_s", Unit: "Medges/s", Better: "higher", Layer: "graph", Src: "micro", On: []string{wlScanLocal}, Moves: "setup_s @ all"},
	// partition
	{Name: "partition.compute_ms", Unit: "ms", Better: "lower", Layer: "partition", Src: "micro", On: []string{wlScanLocal}, Moves: "setup_s @ all"},
	{Name: "partition.ghost_select_ms", Unit: "ms", Better: "lower", Layer: "partition", Src: "micro", On: []string{wlScanLocal}, Moves: "setup_s @ all"},
	{Name: "partition.edge_chunks_us", Unit: "us", Better: "lower", Layer: "partition", Src: "micro", On: []string{wlMicrostep}, Moves: "slowdown_vs_sa @ microstep"},
	{Name: "partition.edge_imbalance", Unit: "ratio", Better: "lower", Layer: "partition", Src: "count", Moves: "slowdown_vs_sa @ pull-tcp, push-tcp (slowest machine sets the superstep)"},
	// core
	{Name: "core.load_s", Unit: "s", Better: "lower", Layer: "core", Src: "span", Moves: "setup_s @ all"},
	{Name: "core.scan_medges_per_s", Unit: "Medges/s", Better: "higher", Layer: "core", Src: "span", Moves: "slowdown_vs_sa @ scan-local ~1:1; @ pull-tcp, push-tcp by the local-edge share; ~0 @ microstep"},
	{Name: "core.scan_vs_sa", Unit: "ratio", Better: "higher", Layer: "core", Src: "span", Moves: "slowdown_vs_sa @ scan-local"},
	{Name: "core.empty_job_us", Unit: "us", Better: "lower", Layer: "core", Src: "micro", On: []string{wlMicrostep}, Moves: "slowdown_vs_sa @ microstep, serve-mixed; ~0 @ scan-local"},
	{Name: "core.jobs_per_round", Unit: "count", Better: "lower", Layer: "core", Src: "count", Moves: "slowdown_vs_sa @ microstep (exact count)"},
	{Name: "core.us_per_job", Unit: "us", Better: "lower", Layer: "core", Src: "span", Moves: "slowdown_vs_sa @ microstep; read beside core.empty_job_us and comm.barrier_inproc_us"},
	{Name: "core.fully_parallel_frac", Unit: "frac", Better: "higher", Layer: "core", Src: "count", Moves: "slowdown_vs_sa @ scan-local"},
	{Name: "core.intra_wait_frac", Unit: "frac", Better: "lower", Layer: "core", Src: "count", Moves: "slowdown_vs_sa @ scan-local"},
	{Name: "core.inter_wait_frac", Unit: "frac", Better: "lower", Layer: "core", Src: "count", Moves: "slowdown_vs_sa @ pull-tcp, push-tcp"},
	{Name: "core.sync_frac", Unit: "frac", Better: "lower", Layer: "core", Src: "count", Moves: "slowdown_vs_sa @ microstep"},
	{Name: "core.task_phase_frac", Unit: "frac", Better: "higher", Layer: "core", Src: "trace", Moves: "slowdown_vs_sa @ scan-local (largest share there)"},
	{Name: "core.barrier_frac", Unit: "frac", Better: "lower", Layer: "core", Src: "trace", Moves: "slowdown_vs_sa @ microstep"},
	{Name: "core.ghost_read_sync_frac", Unit: "frac", Better: "lower", Layer: "core", Src: "trace", Moves: "slowdown_vs_sa @ microstep"},
	{Name: "core.write_drain_frac", Unit: "frac", Better: "lower", Layer: "core", Src: "trace", Moves: "slowdown_vs_sa @ push-tcp"},
	{Name: "core.ghost_merge_frac", Unit: "frac", Better: "lower", Layer: "core", Src: "trace", Moves: "slowdown_vs_sa @ push-tcp"},
	{Name: "core.unaccounted_frac", Unit: "frac", Better: "lower", Layer: "core", Src: "trace", Moves: "reported, not asserted: machine time no engine span covers"},
	{Name: "core.flush_busy_frac", Unit: "frac", Better: "lower", Layer: "core", Src: "trace", Moves: "slowdown_vs_sa @ push-tcp"},
	{Name: "core.flush_us_p50", Unit: "us", Better: "lower", Layer: "core", Src: "trace", Moves: "slowdown_vs_sa @ push-tcp"},
	{Name: "core.read_rtt_us_p50", Unit: "us", Better: "lower", Layer: "core", Src: "trace", Moves: "slowdown_vs_sa @ pull-tcp"},
	{Name: "core.copier_busy_frac", Unit: "frac", Better: "lower", Layer: "core", Src: "trace", Moves: "slowdown_vs_sa @ pull-tcp, push-tcp; on 2 cores copier CPU is taken from workers, so a saving can exceed its share"},
	{Name: "core.copier_serve_us_p50", Unit: "us", Better: "lower", Layer: "core", Src: "trace", Moves: "slowdown_vs_sa @ pull-tcp, push-tcp"},
	{Name: "core.dedup_hit_ratio", Unit: "ratio", Better: "higher", Layer: "core", Src: "trace", Moves: "slowdown_vs_sa @ pull-tcp via comm.wire_mb_per_round"},
	{Name: "core.reads_served_per_round", Unit: "count", Better: "lower", Layer: "core", Src: "trace", Moves: "slowdown_vs_sa @ pull-tcp"},
	{Name: "core.write_combine_hit_ratio", Unit: "ratio", Better: "higher", Layer: "core", Src: "trace", Moves: "slowdown_vs_sa @ push-tcp"},
	{Name: "core.writes_applied_per_round", Unit: "count", Better: "lower", Layer: "core", Src: "trace", Moves: "slowdown_vs_sa @ push-tcp, microstep"},
	{Name: "core.push_steps", Unit: "count", Better: "lower", Layer: "core", Src: "count", Moves: "slowdown_vs_sa @ microstep, push-tcp"},
	{Name: "core.pull_steps", Unit: "count", Better: "lower", Layer: "core", Src: "count", Moves: "slowdown_vs_sa @ microstep, ooc-store"},
	{Name: "core.spilled_write_mb_per_round", Unit: "MB", Better: "lower", Layer: "core", Src: "trace", Moves: "peak_rss_mb, slowdown_vs_sa @ ooc-store"},
	{Name: "core.alloc_mb_per_round", Unit: "MB", Better: "lower", Layer: "core", Src: "count", Moves: "slowdown_vs_sa @ microstep, serve-mixed; peak_rss_mb @ all"},
	{Name: "core.gc_pause_ms_per_round", Unit: "ms", Better: "lower", Layer: "core", Src: "count", Moves: "slowdown_vs_sa @ microstep, serve-mixed"},
	{Name: "core.live_growth_mb_per_round", Unit: "MB", Better: "lower", Layer: "core", Src: "count", Moves: "peak_rss_mb @ all, most @ serve-mixed: every algorithm call leaves its result property registered"},
	// comm
	{Name: "comm.barrier_inproc_us", Unit: "us", Better: "lower", Layer: "comm", Src: "micro", On: []string{wlMicrostep}, Moves: "slowdown_vs_sa @ microstep"},
	{Name: "comm.barrier_tcp_us", Unit: "us", Better: "lower", Layer: "comm", Src: "micro", On: []string{wlPullTCP}, Moves: "slowdown_vs_sa @ pull-tcp, push-tcp"},
	{Name: "comm.allreduce_tcp_us", Unit: "us", Better: "lower", Layer: "comm", Src: "micro", On: []string{wlPullTCP}, Moves: "slowdown_vs_sa @ pull-tcp, push-tcp"},
	{Name: "comm.inproc_rtt_us", Unit: "us", Better: "lower", Layer: "comm", Src: "micro", On: []string{wlPullTCP}, Moves: "slowdown_vs_sa @ microstep, ooc-store"},
	{Name: "comm.tcp_rtt_us", Unit: "us", Better: "lower", Layer: "comm", Src: "micro", On: []string{wlPullTCP}, Moves: "slowdown_vs_sa @ pull-tcp"},
	{Name: "comm.tcp_stream_mb_per_s", Unit: "MB/s", Better: "higher", Layer: "comm", Src: "micro", On: []string{wlPushTCP}, Moves: "slowdown_vs_sa @ push-tcp"},
	{Name: "comm.buffer_append_mb_per_s", Unit: "MB/s", Better: "higher", Layer: "comm", Src: "micro", On: []string{wlPushTCP}, Moves: "slowdown_vs_sa @ push-tcp"},
	{Name: "comm.wire_mb_per_round", Unit: "MB", Better: "lower", Layer: "comm", Src: "count", Moves: "slowdown_vs_sa @ pull-tcp, push-tcp; 0 in process"},
	{Name: "comm.frames_per_round", Unit: "count", Better: "lower", Layer: "comm", Src: "count", Moves: "slowdown_vs_sa @ pull-tcp, push-tcp, microstep"},
	{Name: "comm.send_errors", Unit: "count", Better: "lower", Layer: "comm", Src: "count", Moves: "failed @ all (must stay 0)"},
	// codec
	{Name: "codec.encode_mb_per_s", Unit: "MB/s", Better: "higher", Layer: "codec", Src: "micro", On: []string{wlPullTCP}, Moves: "slowdown_vs_sa @ pull-tcp, push-tcp"},
	{Name: "codec.decode_mb_per_s", Unit: "MB/s", Better: "higher", Layer: "codec", Src: "micro", On: []string{wlOOCStore}, Moves: "slowdown_vs_sa @ ooc-store first, pull-tcp and push-tcp second"},
	{Name: "codec.wire_ratio", Unit: "ratio", Better: "lower", Layer: "codec", Src: "trace", Moves: "slowdown_vs_sa @ pull-tcp, push-tcp; exactly 0 in process (compression forced off)"},
	// reduce
	{Name: "reduce.atomic_sum_f64_ns", Unit: "ns", Better: "lower", Layer: "reduce", Src: "micro", On: []string{wlPushTCP}, Moves: "slowdown_vs_sa @ push-tcp"},
	{Name: "reduce.atomic_min_f64_ns", Unit: "ns", Better: "lower", Layer: "reduce", Src: "micro", On: []string{wlPushTCP}, Moves: "slowdown_vs_sa @ push-tcp"},
	// store
	{Name: "store.write_csr2_s", Unit: "s", Better: "lower", Layer: "store", Src: "span", Moves: "setup_s @ ooc-store"},
	{Name: "store.write_csr3_s", Unit: "s", Better: "lower", Layer: "store", Src: "span", Moves: "setup_s @ ooc-store"},
	{Name: "store.open_csr2_s", Unit: "s", Better: "lower", Layer: "store", Src: "span", Moves: "setup_s @ ooc-store"},
	{Name: "store.open_csr3_s", Unit: "s", Better: "lower", Layer: "store", Src: "span", Moves: "setup_s @ ooc-store"},
	{Name: "store.compression_ratio", Unit: "ratio", Better: "higher", Layer: "store", Src: "count", Moves: "setup_s, peak_rss_mb @ ooc-store"},
	{Name: "store.csr2_round_s", Unit: "s", Better: "lower", Layer: "store", Src: "span", Moves: "slowdown_vs_sa @ ooc-store"},
	{Name: "store.csr3_round_s", Unit: "s", Better: "lower", Layer: "store", Src: "span", Moves: "slowdown_vs_sa @ ooc-store"},
	{Name: "store.decode_hit_ratio", Unit: "ratio", Better: "higher", Layer: "store", Src: "count", Moves: "slowdown_vs_sa @ ooc-store (< 1: the cache is smaller than the working set)"},
	{Name: "store.decoded_mb_per_round", Unit: "MB", Better: "lower", Layer: "store", Src: "count", Moves: "slowdown_vs_sa @ ooc-store"},
	{Name: "store.decode_evicted_mb_per_round", Unit: "MB", Better: "lower", Layer: "store", Src: "count", Moves: "slowdown_vs_sa, peak_rss_mb @ ooc-store"},
	{Name: "store.residency_evicted_mb_per_round", Unit: "MB", Better: "lower", Layer: "store", Src: "trace", Moves: "slowdown_vs_sa, peak_rss_mb @ ooc-store"},
	{Name: "store.pin_cold_mb_per_s", Unit: "MB/s", Better: "higher", Layer: "store", Src: "micro", On: []string{wlOOCStore}, Moves: "slowdown_vs_sa @ ooc-store"},
	// algorithms
	{Name: "algorithms.pr_pull_iter_ms", Unit: "ms", Better: "lower", Layer: "algorithms", Src: "span", Moves: "slowdown_vs_sa @ scan-local, pull-tcp, ooc-store"},
	{Name: "algorithms.pr_push_iter_ms", Unit: "ms", Better: "lower", Layer: "algorithms", Src: "span", Moves: "slowdown_vs_sa @ push-tcp"},
	{Name: "algorithms.wcc_ms", Unit: "ms", Better: "lower", Layer: "algorithms", Src: "span", Moves: "slowdown_vs_sa @ scan-local, push-tcp"},
	{Name: "algorithms.sssp_ms", Unit: "ms", Better: "lower", Layer: "algorithms", Src: "span", Moves: "slowdown_vs_sa @ microstep"},
	{Name: "algorithms.hopdist_ms", Unit: "ms", Better: "lower", Layer: "algorithms", Src: "span", Moves: "slowdown_vs_sa @ microstep, ooc-store"},
	{Name: "algorithms.kcore_ms", Unit: "ms", Better: "lower", Layer: "algorithms", Src: "span", Moves: "slowdown_vs_sa @ microstep"},
	{Name: "algorithms.kcore_steps", Unit: "count", Better: "lower", Layer: "algorithms", Src: "count", Moves: "slowdown_vs_sa @ microstep (repeats exactly for a seed)"},
	{Name: "algorithms.hopdist_steps", Unit: "count", Better: "lower", Layer: "algorithms", Src: "count", Moves: "slowdown_vs_sa @ microstep (repeats exactly for a seed)"},
	// obs
	{Name: "obs.overhead_ratio", Unit: "ratio", Better: "lower", Layer: "obs", Src: "trace", Moves: "none: pins the cost of running with the registry attached (nothing reading it)"},
	{Name: "obs.job_reports_caught", Unit: "ratio", Better: "higher", Layer: "obs", Src: "trace", Moves: "none: share of the traced rounds' job reports the collector saw before the registry dropped them; the core.*_frac shares are scaled from these"},
	{Name: "obs.wrapped_jobs", Unit: "count", Better: "lower", Layer: "obs", Src: "trace", Moves: "none: caught jobs whose spans overran a machine's span ring (must stay 0)"},
	// server
	{Name: "server.jobs_per_s", Unit: "1/s", Better: "higher", Layer: "server", Src: "span", Moves: "slowdown_vs_sa @ serve-mixed"},
	{Name: "server.job_p50_ms", Unit: "ms", Better: "lower", Layer: "server", Src: "span", Moves: "slowdown_vs_sa @ serve-mixed (closed loop: latency is clients over throughput)"},
	{Name: "server.job_p95_ms", Unit: "ms", Better: "lower", Layer: "server", Src: "span", Moves: "server.job_p50_ms @ serve-mixed; a layer metric until shown to repeat within a tenth"},
	{Name: "server.queue_p50_ms", Unit: "ms", Better: "lower", Layer: "server", Src: "span", Moves: "server.job_p50_ms @ serve-mixed"},
	{Name: "server.exec_share", Unit: "ratio", Better: "higher", Layer: "server", Src: "span", Moves: "server.job_p50_ms @ serve-mixed (engine time over client latency)"},
	{Name: "server.protocol_us", Unit: "us", Better: "lower", Layer: "server", Src: "micro", On: []string{wlServeMixed}, Moves: "server.job_p50_ms @ serve-mixed"},
	{Name: "server.deferred", Unit: "count", Better: "lower", Layer: "server", Src: "count", Moves: "server.job_p50_ms @ serve-mixed (memory-gate deferrals; 0 with no budget)"},
	// baseline
	{Name: "baseline.sa_round_s", Unit: "s", Better: "lower", Layer: "baseline", Src: "span", Moves: "the denominator of slowdown_vs_sa: a machine-speed shift moves it too"},
	{Name: "baseline.sa_scan_medges_per_s", Unit: "Medges/s", Better: "higher", Layer: "baseline", Src: "span", Moves: "denominator of core.scan_vs_sa"},
}

// manifest is BENCHMARK.json: exactly the keys the builder's contract names.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []workloadSpec   `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestLayer  `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifestLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
	}
	for _, s := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, manifestMetric{s.Name, s.Unit, s.Better, s.Bound})
	}
	for _, s := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestLayer{s.Name, s.Unit, s.Better})
	}
	return m
}

// manifestBytes renders BENCHMARK.json from the tables above, so the file
// and the program cannot name different metrics.
func manifestBytes() ([]byte, error) {
	data, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

func writeManifest(path string) error {
	data, err := manifestBytes()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkSpecs validates the tables against the contract's limits: name and
// unit alphabets, unique names, bound and count ranges.
func checkSpecs() error {
	seen := map[string]bool{}
	check := func(kind, name, unit, better string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("%s name %q outside [A-Za-z0-9_.-]{1,64}", kind, name)
		}
		if seen[name] {
			return fmt.Errorf("%s name %q used twice", kind, name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			return fmt.Errorf("%s %q unit %q outside the unit alphabet", kind, name, unit)
		}
		if better != "" && better != "higher" && better != "lower" {
			return fmt.Errorf("%s %q better %q", kind, name, better)
		}
		return nil
	}
	if n := len(workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range workloads {
		if err := check("workload", w.Name, "", ""); err != nil {
			return err
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			return fmt.Errorf("workload %q why is %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	hasSetup := false
	for _, s := range endToEnd {
		if err := check("end-to-end metric", s.Name, s.Unit, s.Better); err != nil {
			return err
		}
		if s.Bound <= 0 || s.Bound > 0.25 {
			return fmt.Errorf("end-to-end metric %q bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
		if s.Name == "setup_s" {
			hasSetup = s.Unit == "s" && s.Better == "lower"
		}
	}
	if !hasSetup {
		return fmt.Errorf("end-to-end metrics need setup_s in s, lower is better")
	}
	if n := len(perLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, s := range perLayer {
		if err := check("per-layer metric", s.Name, s.Unit, s.Better); err != nil {
			return err
		}
	}
	return nil
}

// workloadNamed returns the workload of that name, or nil.
func workloadNamed(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
