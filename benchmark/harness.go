package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/algorithms"
	"repro/internal/obs"
)

// metricVal is one reported number with its unit.
type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line of output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

// detail is what a run knows beyond result: the per-round distribution
// behind each end-to-end metric, for the suite's noise-floor table.
type detail struct {
	Workload string             `json:"workload"`
	Rounds   int                `json:"rounds"`
	Q1       map[string]float64 `json:"q1"`
	Q3       map[string]float64 `json:"q3"`
	RSS      string             `json:"rss_method"`
}

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// rounds, when positive, fixes the timed round count instead of running
	// for seconds.
	rounds int
	tiny   bool
	// outDir receives the trace file and holds the run's temp files.
	outDir string
	log    io.Writer
}

// Timed-phase shape. A round is the workload's fixed algorithm sequence;
// round 0 warms caches (and lets the persisted direction EWMA settle) and is
// not timed.
const (
	minTimedRounds = 10
	minTraceRounds = 2
	// setup_s is the median of a run's set-ups. One set-up takes 40-550 ms and
	// its time swings with the host's load, so after one set-up that is not
	// timed (cold page cache, first heap growth) a run sets up at least
	// minSetupReps times and goes on until setupBudget is spent or
	// maxSetupReps are done; the cheap set-ups get the most repetitions.
	minSetupReps = 5
	maxSetupReps = 31
	setupBudget  = 3 * time.Second
)

// roundRec is what one round measured.
type roundRec struct {
	// wall is the round's time: the sum of the spans around its public
	// algorithm calls (for a served round, first send to last reply).
	wall time.Duration
	// ref is what the standalone reference took for the same algorithm
	// sequence immediately before the round — the denominator of the
	// round's slowdown, taken beside it so that the host's load moves both.
	ref    refTiming
	edges  int64
	byKind map[string]time.Duration
	iters  map[string]int
	calls  map[string]int
	met    algorithms.Metrics
	// Served workloads: per-request client latency, server-side queue wait
	// and execution time, all in ms.
	lat, queue []float64
	execMS     float64
	requests   int
}

// slowdown is the round's time over SA's for the same work.
func (r *roundRec) slowdown() float64 { return r.wall.Seconds() / r.ref.round.Seconds() }

// roundCtx is handed to a workload's round: call wraps each public
// algorithm call with a span, a timer and an output check.
type roundCtx struct {
	h   *harness
	rec *roundRec
}

// call times fn, which makes one public algorithm call and returns its
// metrics plus a verify function; verify runs after the clock stops and
// returns "" or what differed from the reference.
func (rc *roundCtx) call(kind string, edges int64, fn func() (algorithms.Metrics, func() string, error)) {
	h := rc.h
	id := h.tr.begin("algorithms." + kind)
	met, verify, err := fn()
	d := h.tr.end(id)
	r := rc.rec
	r.wall += d
	r.edges += edges
	r.byKind[kind] += d
	r.iters[kind] += met.Iterations
	r.calls[kind]++
	r.met.Jobs += met.Jobs
	r.met.JobTime += met.JobTime
	r.met.Breakdown.Add(met.Breakdown)
	r.met.Traffic = r.met.Traffic.Add(met.Traffic)
	r.met.PushSteps += met.PushSteps
	r.met.PullSteps += met.PullSteps
	h.attempted++
	switch {
	case err != nil:
		h.fail("%s: %s returned %v", h.cfg.workload, kind, err)
	case verify != nil:
		if msg := verify(); msg != "" {
			h.fail("%s: %s output differs from the SA reference: %s", h.cfg.workload, kind, msg)
		}
	}
}

// refTiming is what one pass of the standalone reference took.
type refTiming struct {
	round     time.Duration
	scan      time.Duration // the PageRank part, the edge-scan denominator
	scanEdges int64
}

// instance is one set-up workload.
type instance interface {
	// describe states the inputs: graph sizes, edge-data bytes, shape.
	describe() string
	// reference runs the round's algorithm sequence with internal/baseline/sa
	// on the same graph in the same process, keeps its outputs as the
	// expected values, and reports how long SA took.
	reference() refTiming
	// round runs the fixed algorithm sequence once.
	round(rc *roundCtx)
	// registries returns the obs registries of a traced set-up (nil otherwise).
	registries() []*obs.Registry
	// machines is how many simulated machines share a round's wall time.
	machines() int
	// beginPhase / endPhase bracket a timed phase, untraced or traced, for
	// instances that read counters of their own (decode cache, server stats)
	// around it.
	beginPhase()
	endPhase(rounds int, traced bool)
	close()
}

// base supplies the no-op parts of instance.
type base struct{ regs []*obs.Registry }

func (b *base) registries() []*obs.Registry { return b.regs }
func (b *base) beginPhase()                 {}
func (b *base) endPhase(int, bool)          {}

// harness is the state of one run.
type harness struct {
	cfg   runConfig
	sz    sizes
	nproc int
	tr    *tracer
	log   io.Writer
	// parts collects named sub-span durations (seconds) across set-ups; a
	// metric of that name reports their median.
	parts map[string][]float64
	// vals holds per-layer values set directly (counts, micro results).
	vals map[string]float64
	// wire is set by workloads whose fabric serializes frames (TCP). In
	// process, frames pass by reference, so their bytes are not wire bytes.
	wire bool

	attempted, failed int
}

func (h *harness) fail(format string, args ...any) {
	h.failed++
	fmt.Fprintln(h.log, "FAIL", fmt.Sprintf(format, args...))
}

// part runs fn inside a span and files its duration under name.
func (h *harness) part(name string, fn func()) {
	d := h.tr.timed(name, fn)
	h.parts[name] = append(h.parts[name], d.Seconds())
}

func (h *harness) logf(format string, args ...any) {
	fmt.Fprintf(h.log, format+"\n", args...)
}

// runRound runs the standalone reference and then one round of inst, each
// under a span. The warm-up round keeps the reference's outputs but its
// times are not used.
func (h *harness) runRound(inst instance, round int) roundRec {
	h.tr.setRound(round)
	rec := roundRec{byKind: map[string]time.Duration{}, iters: map[string]int{}, calls: map[string]int{}}
	h.tr.timed("baseline.sa_round", func() { rec.ref = inst.reference() })
	id := h.tr.begin("round")
	inst.round(&roundCtx{h: h, rec: &rec})
	h.tr.end(id)
	h.tr.setRound(-1)
	return rec
}

// timedPhase runs rounds first.. until the budget is spent: a fixed count
// when cfg.rounds is set, else at least min rounds and then until seconds
// elapse (three times that if rounds are slower than sized for, so a loaded
// box still yields enough rounds). With a collector, each round also yields
// the engine sample its registries produced; a meter is told when each ends.
func (h *harness) timedPhase(inst instance, first int, seconds float64, min int, col *obsCollector, rss *rssMeter) ([]roundRec, []engineSample) {
	var recs []roundRec
	var samples []engineSample
	start := time.Now()
	for r := first; ; r++ {
		el := time.Since(start).Seconds()
		if n := r - first; h.cfg.rounds > 0 {
			if n >= h.cfg.rounds {
				break
			}
		} else if (n >= min && el >= seconds) || el >= 3*seconds {
			break
		}
		if col != nil {
			col.beginRound(r)
		}
		rec := h.runRound(inst, r)
		recs = append(recs, rec)
		if rss != nil {
			rss.roundEnd()
		}
		if col != nil {
			samples = append(samples, col.endRound(&rec))
		}
	}
	return recs, samples
}

// phaseStats are the per-round series of one timed phase.
type phaseStats struct {
	walls, slowdowns, refs []float64
	edges                  float64
}

func statsOf(recs []roundRec) phaseStats {
	ps := phaseStats{edges: float64(recs[0].edges)}
	for i := range recs {
		r := &recs[i]
		ps.walls = append(ps.walls, r.wall.Seconds())
		ps.refs = append(ps.refs, r.ref.round.Seconds())
		ps.slowdowns = append(ps.slowdowns, r.slowdown())
	}
	return ps
}

// runWorkload is one whole run: set up (several times), warm-up round with
// the correctness gate, timed phase, and — when cfg.trace — a second set-up
// with the obs registry attached, traced rounds and the workload's micro
// loops.
func runWorkload(cfg runConfig) (result, detail, error) {
	def := workloadNamed(cfg.workload)
	if def == nil {
		return result{}, detail{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	h := &harness{
		cfg: cfg, sz: sizesFor(cfg.tiny), nproc: runtime.NumCPU(),
		tr: newTracer(), log: cfg.log,
		parts: map[string][]float64{}, vals: map[string]float64{},
	}
	if h.log == nil {
		h.log = io.Discard
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return result{}, detail{}, err
	}

	// Set-up, repeated: the first is a warm-up and the last instance is the
	// one measured. Each repetition starts from a collected heap, so that
	// what one leaves behind is not collected on the next one's clock.
	inst, err := def.setup(h, false)
	for k := range h.parts { // the warm-up's sub-spans are not samples either
		delete(h.parts, k)
	}
	var spent time.Duration
	for i := 0; err == nil && i < maxSetupReps && (i < minSetupReps || spent < setupBudget); i++ {
		inst.close()
		runtime.GC()
		h.part("setup", func() { inst, err = def.setup(h, false) })
		n := h.parts["setup"]
		spent += time.Duration(n[len(n)-1] * float64(time.Second))
	}
	if err != nil {
		return result{}, detail{}, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
	}
	defer func() { inst.close() }()

	h.runRound(inst, 0) // warm-up + correctness gate, not timed

	seconds := cfg.seconds
	min := minTimedRounds
	if cfg.trace {
		// A traced run splits its time between the untraced rounds the
		// overhead is measured against and the traced ones.
		seconds /= 2
		min /= 2
	}
	debug.FreeOSMemory()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	rss := newRSSMeter()
	inst.beginPhase()
	recs, _ := h.timedPhase(inst, 1, seconds, min, nil, rss)
	inst.endPhase(len(recs), false)
	runtime.GC() // so that HeapAlloc below is what the rounds left live
	runtime.ReadMemStats(&ms1)
	if len(recs) == 0 {
		return result{}, detail{}, fmt.Errorf("%s: no timed rounds", cfg.workload)
	}

	ps := statsOf(recs)
	e2e := map[string]float64{
		"slowdown_vs_sa": median(ps.slowdowns),
		"peak_rss_mb":    rss.peak,
		"setup_s":        median(h.parts["setup"]),
	}
	res := result{Metrics: map[string]metricVal{}}
	det := detail{Workload: cfg.workload, Rounds: len(recs), Q1: map[string]float64{}, Q3: map[string]float64{}, RSS: rss.method}
	det.Q1["slowdown_vs_sa"], det.Q3["slowdown_vs_sa"] = quartiles(ps.slowdowns)
	det.Q1["setup_s"], det.Q3["setup_s"] = quartiles(h.parts["setup"])
	det.Q1["peak_rss_mb"], det.Q3["peak_rss_mb"] = rss.peak, rss.peak

	wq1, wq3 := quartiles(ps.walls)
	h.logf("workload %s  seed %d  %s", cfg.workload, cfg.seed, inst.describe())
	h.logf("  timed rounds %d: median round %.4f s (q1 %.4f, q3 %.4f) = %.3f Medges/s as measured; SA beside it %.4f s; work %.0f edges/round; RSS by %s",
		len(recs), median(ps.walls), wq1, wq3, ps.edges/median(ps.walls)/1e6, median(ps.refs), ps.edges, rss.method)
	h.logf("  rounds (ms):    %s", fmtScaled(ps.walls, 1e3))
	h.logf("  SA beside (ms): %s", fmtScaled(ps.refs, 1e3))
	h.logf("  slowdowns:      %s", fmtScaled(ps.slowdowns, 1))
	h.logf("  set-ups (ms):   %s", fmtScaled(h.parts["setup"], 1e3))
	if !cfg.trace {
		for _, s := range endToEnd {
			res.Metrics[s.Name] = metricVal{e2e[s.Name], s.Unit}
			h.logf("  %-15s %14.6g %-6s q1 %.6g  q3 %.6g  (bound %.2f)", s.Name, e2e[s.Name], s.Unit, det.Q1[s.Name], det.Q3[s.Name], s.Bound)
		}
	} else if err := h.tracedPart(def, inst, recs, ps, &ms0, &ms1, seconds, &res); err != nil {
		return result{}, detail{}, err
	}
	res.Attempted, res.Failed = h.attempted, h.failed
	res.Correct = h.failed == 0
	return res, det, nil
}

func fmtScaled(xs []float64, scale float64) string {
	var b strings.Builder
	for _, x := range xs {
		fmt.Fprintf(&b, "%.1f ", x*scale)
	}
	return b.String()
}

func latencies(recs []roundRec) []float64 {
	var lat []float64
	for _, r := range recs {
		lat = append(lat, r.lat...)
	}
	return lat
}

// tracedPart does what only a --trace 1 run does: derives the span- and
// count-sourced layer metrics from the untraced rounds, runs the micro
// loops, then sets the workload up again with registries attached, runs
// traced rounds, and writes the trace file. The traced rounds come in two
// halves: the first with the registries attached and nothing reading them,
// which is what obs.overhead_ratio compares with the untraced rounds; the
// second with the collector's poller running, which the engine samples come
// from.
func (h *harness) tracedPart(def *workloadSpec, untraced instance, recs []roundRec, ps phaseStats, ms0, ms1 *runtime.MemStats, seconds float64, res *result) error {
	h.deriveUntraced(recs, ps, ms0, ms1)
	def.micro(h, untraced)

	var inst instance
	var err error
	h.tr.timed("setup.traced", func() { inst, err = def.setup(h, true) })
	if err != nil {
		return fmt.Errorf("%s: traced set-up: %w", h.cfg.workload, err)
	}
	defer inst.close()
	h.runRound(inst, 0)
	inst.beginPhase()
	attached, _ := h.timedPhase(inst, len(recs)+1, seconds/2, minTraceRounds, nil, nil)
	col := newObsCollector(inst.registries(), traceDepth)
	traced, samples := h.timedPhase(inst, len(recs)+len(attached)+1, seconds/2, minTraceRounds, col, nil)
	if len(attached) == 0 || len(traced) == 0 {
		return fmt.Errorf("%s: no traced rounds", h.cfg.workload)
	}
	inst.endPhase(len(attached)+len(traced), true)
	h.vals["obs.overhead_ratio"] = median(statsOf(attached).slowdowns)/median(ps.slowdowns) - 1
	h.deriveTraced(inst, samples)

	for _, s := range perLayer {
		v := h.vals[s.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// 0 means "not exercised here"; a broken derivation must not read
			// as idle.
			h.fail("%s: layer metric %s is %v", h.cfg.workload, s.Name, v)
		}
		res.Metrics[s.Name] = metricVal{v, s.Unit}
	}
	h.printLayers(res.Metrics)
	totals := h.tr.totals()
	h.logf("  harness spans (self = duration minus children):")
	for i, t := range totals {
		if i == 12 {
			break
		}
		h.logf("    %-28s n=%-6d total %10.2f ms  self %10.2f ms", t.Name, t.Count, t.TotalMS, t.SelfMS)
	}
	path, err := writeTraceFile(h.cfg.outDir, traceFile{
		Workload: h.cfg.workload, Seed: h.cfg.seed, Env: stampEnv(false),
		Metrics: res.Metrics, Totals: totals, Engine: samples, Spans: h.tr.spans,
	})
	if err != nil {
		return fmt.Errorf("%s: write trace: %w", h.cfg.workload, err)
	}
	h.logf("  trace written to %s", path)
	return nil
}

func (h *harness) printLayers(m map[string]metricVal) {
	layer := ""
	for _, s := range perLayer {
		if s.Layer != layer {
			layer = s.Layer
			h.logf("  [%s]", layer)
		}
		h.logf("    %-38s %14.6g %-9s (%s)", s.Name, m[s.Name].Value, s.Unit, s.Src)
	}
}

// deriveUntraced fills the span- and count-sourced layer metrics from the
// untraced timed rounds. Times are as measured; the ratios to SA pair each
// round with the SA pass beside it.
func (h *harness) deriveUntraced(recs []roundRec, ps phaseStats, ms0, ms1 *runtime.MemStats) {
	v := h.vals
	n := float64(len(recs))
	for _, name := range []string{
		"graph.rmat_gen_s", "graph.weights_s", "core.load_s",
		"store.write_csr2_s", "store.write_csr3_s", "store.open_csr2_s", "store.open_csr3_s",
	} {
		v[name] = median(h.parts[name])
	}
	wall := median(ps.walls)
	v["mteps"] = ps.edges / wall / 1e6
	v["baseline.sa_round_s"] = median(ps.refs)

	// Per-kernel split of the round: medians over rounds of the time and the
	// iteration count of one call (ooc-store calls each kernel twice a round).
	kindMS := func(kind string) (ms float64, iters float64) {
		var ds, its []float64
		for _, r := range recs {
			if d, ok := r.byKind[kind]; ok {
				calls := 1.0
				if c := r.calls[kind]; c > 0 {
					calls = float64(c)
				}
				ds = append(ds, d.Seconds()*1e3/calls)
				its = append(its, float64(r.iters[kind])/calls)
			}
		}
		return median(ds), median(its)
	}
	perIter := func(kind string) float64 {
		ms, its := kindMS(kind)
		if its == 0 {
			return 0
		}
		return ms / its
	}
	v["algorithms.pr_pull_iter_ms"] = perIter("pr_pull")
	v["algorithms.pr_push_iter_ms"] = perIter("pr_push")
	v["algorithms.wcc_ms"], _ = kindMS("wcc")
	v["algorithms.sssp_ms"], _ = kindMS("sssp")
	v["algorithms.hopdist_ms"], v["algorithms.hopdist_steps"] = kindMS("hopdist")
	v["algorithms.kcore_ms"], v["algorithms.kcore_steps"] = kindMS("kcore")
	v["store.csr2_round_s"], _ = kindMS("csr2")
	v["store.csr3_round_s"], _ = kindMS("csr3")
	v["store.csr2_round_s"] /= 1e3
	v["store.csr3_round_s"] /= 1e3

	// Counters the algorithm calls already return, summed over the phase.
	var met algorithms.Metrics
	var push, pull float64
	for _, r := range recs {
		met.Jobs += r.met.Jobs
		met.JobTime += r.met.JobTime
		met.Breakdown.Add(r.met.Breakdown)
		met.Traffic = met.Traffic.Add(r.met.Traffic)
		push += float64(r.met.PushSteps)
		pull += float64(r.met.PullSteps)
	}
	v["core.jobs_per_round"] = float64(met.Jobs) / n
	if met.Jobs > 0 {
		v["core.us_per_job"] = wall * 1e6 / v["core.jobs_per_round"]
	}
	if jt := met.JobTime.Seconds(); jt > 0 {
		v["core.fully_parallel_frac"] = met.Breakdown.FullyParallel.Seconds() / jt
		v["core.intra_wait_frac"] = met.Breakdown.IntraMachine.Seconds() / jt
		v["core.inter_wait_frac"] = met.Breakdown.InterMachine.Seconds() / jt
		v["core.sync_frac"] = met.Breakdown.Sync.Seconds() / jt
	}
	v["core.push_steps"] = push / n
	v["core.pull_steps"] = pull / n
	if h.wire {
		v["comm.wire_mb_per_round"] = float64(met.Traffic.BytesSent) / 1e6 / n
	}
	v["comm.frames_per_round"] = float64(met.Traffic.FramesSent) / n
	v["comm.send_errors"] = float64(met.Traffic.SendErrors)
	v["core.alloc_mb_per_round"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6 / n
	v["core.gc_pause_ms_per_round"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6 / n
	// Both snapshots follow a forced collection, so the difference is live
	// heap the rounds left behind, not garbage.
	v["core.live_growth_mb_per_round"] = (float64(ms1.HeapAlloc) - float64(ms0.HeapAlloc)) / 1e6 / n

	// The PageRank part of the round is the edge-scan figure, and SA's
	// PageRank beside it the denominator.
	var scanRate, saRate, vsSA []float64
	for _, r := range recs {
		scan := (r.byKind["pr_pull"] + r.byKind["pr_push"]).Seconds()
		if scan > 0 && r.ref.scan > 0 {
			e := float64(r.ref.scanEdges)
			scanRate = append(scanRate, e/scan/1e6)
			saRate = append(saRate, e/r.ref.scan.Seconds()/1e6)
			vsSA = append(vsSA, r.ref.scan.Seconds()/scan)
		}
	}
	v["core.scan_medges_per_s"] = median(scanRate)
	v["baseline.sa_scan_medges_per_s"] = median(saRate)
	v["core.scan_vs_sa"] = median(vsSA)

	// Served workloads: request-level figures.
	if lat := latencies(recs); len(lat) > 0 {
		var reqs int
		var total, exec float64
		var queue []float64
		for _, r := range recs {
			reqs += r.requests
			total += r.wall.Seconds()
			exec += r.execMS
			queue = append(queue, r.queue...)
		}
		v["server.jobs_per_s"] = float64(reqs) / total
		v["server.job_p50_ms"] = nearestRank(lat, 0.50)
		v["server.job_p95_ms"] = nearestRank(lat, 0.95)
		v["server.queue_p50_ms"] = nearestRank(queue, 0.50)
		if s := sum(lat); s > 0 {
			v["server.exec_share"] = exec / s
		}
	}
}

// deriveTraced fills the trace-sourced layer metrics from the collected
// rounds' engine samples.
func (h *harness) deriveTraced(inst instance, samples []engineSample) {
	v := h.vals
	if len(inst.registries()) == 0 {
		return // served workload: the engines' registries belong to the server
	}
	n := float64(len(samples))
	ctr := map[string]float64{}
	main := map[string]float64{}
	var wallNS, flushNS, serveNS float64
	var jobs, jobsRun, wrapped int
	var flushDur, serveDur, rttDur []float64
	for _, s := range samples {
		for k, c := range s.Counters {
			ctr[k] += float64(c)
		}
		for k, ns := range s.MainNS {
			main[k] += float64(ns)
		}
		wallNS += float64(s.WallNS)
		flushNS += float64(s.FlushNS)
		serveNS += float64(s.ServeNS)
		jobs += s.Jobs
		jobsRun += s.JobsRun
		wrapped += s.Wrapped
		flushDur = append(flushDur, s.flushDur...)
		serveDur = append(serveDur, s.serveDur...)
		rttDur = append(rttDur, s.rttDur...)
	}
	// The poller sees a job's report only while it is among the registry's
	// last 64. What it caught is a sample of the round's jobs: the shares
	// below scale it to all of them by job count, and the two obs.* numbers
	// say how thin and how whole the sample was.
	if jobs == 0 || jobsRun == 0 {
		h.fail("%s: the collector caught %d of %d job reports in %d traced rounds", h.cfg.workload, jobs, jobsRun, len(samples))
		return
	}
	v["obs.job_reports_caught"] = float64(jobs) / float64(jobsRun)
	v["obs.wrapped_jobs"] = float64(wrapped)
	if jobs != jobsRun || wrapped > 0 {
		h.logf("  FLAG %s: the collector caught %d of %d job reports, %d with a wrapped span ring; main-goroutine shares are scaled from the caught ones",
			h.cfg.workload, jobs, jobsRun, wrapped)
	}
	scale := float64(jobsRun) / float64(jobs)
	// Shares of machines × round wall on the machines' main goroutines; what
	// no engine span covers (driver-side sequential regions, job publish,
	// result gather) is reported as unaccounted rather than guessed.
	machineNS := wallNS * float64(inst.machines())
	covered := 0.0
	for metric, kind := range map[string]string{
		"core.task_phase_frac":      "task_phase",
		"core.barrier_frac":         "barrier",
		"core.ghost_read_sync_frac": "ghost_read_sync",
		"core.write_drain_frac":     "write_drain",
		"core.ghost_merge_frac":     "ghost_merge",
	} {
		v[metric] = main[kind] * scale / machineNS
		covered += v[metric]
	}
	v["core.unaccounted_frac"] = 1 - covered
	workers, copiers := h.engineShape(inst.machines())
	v["core.flush_busy_frac"] = flushNS / (machineNS * float64(workers))
	v["core.copier_busy_frac"] = serveNS / (machineNS * float64(copiers))
	v["core.flush_us_p50"] = median(flushDur) / 1e3
	v["core.copier_serve_us_p50"] = median(serveDur) / 1e3
	v["core.read_rtt_us_p50"] = median(rttDur) / 1e3
	if d := ctr["dedup_hits"] + ctr["dedup_misses"]; d > 0 {
		v["core.dedup_hit_ratio"] = ctr["dedup_hits"] / d
	}
	v["core.reads_served_per_round"] = ctr["reads_served"] / n
	v["core.writes_applied_per_round"] = ctr["writes_applied"] / n
	if d := ctr["write_combine_hits"] + ctr["writes_applied"]; d > 0 {
		v["core.write_combine_hit_ratio"] = ctr["write_combine_hits"] / d
	}
	v["core.spilled_write_mb_per_round"] = ctr["spilled_write_bytes"] / 1e6 / n
	if raw := ctr["wire_raw_bytes"]; raw > 0 {
		v["codec.wire_ratio"] = ctr["wire_bytes"] / raw
	}
	v["store.residency_evicted_mb_per_round"] = ctr["residency_evicted_bytes"] / 1e6 / n
}
