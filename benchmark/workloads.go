package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/algorithms"
	"repro/internal/baseline/sa"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/store"
)

// sizes are the input sizes of every workload. They are constants of the
// benchmark, identical on every commit; -tiny swaps in the smoke-test set.
//
// The issue sized the TWT graph at scale 18 for 15–25 s timed phases. The
// driver's budget (136 runs in 3420 s) allows 12 s, and a run needs a few
// dozen rounds for a steady median, so the graph is scale 16: 65 536 nodes,
// 1.05 M edges, 16.8 MB of int64 edge refs over both orientations — eight
// times a core's 2 MiB L2; the host reports a 260 MiB L3, which no scale
// that fits the budget would exceed.
type sizes struct {
	twtScale   int // RMAT scale of the TWT graph (scan-local, pull-tcp, push-tcp, ooc-store)
	edgeFactor int
	prIters    int // PageRank iterations per call
	oocPRIters int
	kcoreScale int // RMAT scale of microstep's k-core graph
	gridSide   int // microstep's grid is gridSide × gridSide, no shortcuts
	// ooc-store budgets: the decode cache and residency window are several
	// times smaller than the 16.8 MB of edge refs.
	decodeCacheBytes int64
	residentBytes    int64
	// serve-mixed: two graphs, and each client's requests per round.
	serveScale  int
	serveGrid   int
	servePRIter int
	serveSeqLen int
}

func sizesFor(tiny bool) sizes {
	if tiny {
		return sizes{
			twtScale: 10, edgeFactor: 16, prIters: 2, oocPRIters: 2,
			kcoreScale: 8, gridSide: 12,
			decodeCacheBytes: 32 << 10, residentBytes: 64 << 10,
			serveScale: 8, serveGrid: 8, servePRIter: 2, serveSeqLen: 10,
		}
	}
	return sizes{
		twtScale: 16, edgeFactor: 16, prIters: 10, oocPRIters: 5,
		kcoreScale: 13, gridSide: 128,
		decodeCacheBytes: 2 << 20, residentBytes: 4 << 20,
		serveScale: 13, serveGrid: 64, servePRIter: 5, serveSeqLen: 20,
	}
}

const damping = 0.85

// maxIter bounds the traversals; none of the inputs gets near it.
const maxIter = 1 << 20

// engineShape is the load shape for the box: one machine gets every core as
// a worker; a distributed run splits them, one copier each.
func (h *harness) engineShape(machines int) (workers, copiers int) {
	if machines == 1 {
		return h.nproc, 1
	}
	w := h.nproc / machines
	if w < 1 {
		w = 1
	}
	return w, 1
}

// engineConfig is core.DefaultConfig (ghosts auto, edge-balanced, combining
// and wire compression on, stealing off) in the box's load shape.
func (h *harness) engineConfig(machines int, reg *obs.Registry) core.Config {
	cfg := core.DefaultConfig(machines)
	cfg.Workers, cfg.Copiers = h.engineShape(machines)
	cfg.Obs = reg
	return cfg
}

// tcpFabric is a loopback-TCP fabric sized as pgxd.NewTCPFabric sizes it.
func tcpFabric(cfg core.Config) (comm.Fabric, error) {
	pool := 2*cfg.Workers*cfg.NumMachines + 4
	return comm.NewTCPFabricOpts(cfg.NumMachines, cfg.NumMachines*pool+64, cfg.BufferSize, comm.TCPOptions{})
}

// genRMAT generates the RMAT graph of the given scale under a span.
func (h *harness) genRMAT(scale int, seed int64) (g *graph.Graph, err error) {
	h.part("graph.rmat_gen_s", func() {
		g, err = graph.RMAT(scale, h.sz.edgeFactor, graph.TwitterLike(), seed)
	})
	return g, err
}

// boot builds a cluster and loads g under a span. The returned closer shuts
// the cluster down and closes a fabric it was given.
func (h *harness) boot(cfg core.Config, load func(c *core.Cluster) error) (c *core.Cluster, closer func(), err error) {
	h.part("core.load_s", func() {
		c, err = core.NewCluster(cfg)
		if err == nil {
			err = load(c)
		}
	})
	closer = func() {
		if c != nil {
			c.Shutdown()
		}
		if cfg.Fabric != nil {
			cfg.Fabric.Close() //nolint:errcheck // teardown of a loopback fabric
		}
	}
	if err != nil {
		closer()
		return nil, nil, err
	}
	return c, closer, nil
}

func maxOutDegreeVertex(g *graph.Graph) graph.NodeID {
	best := graph.NodeID(0)
	for v := 1; v < g.NumNodes(); v++ {
		if g.OutDegree(graph.NodeID(v)) > g.OutDegree(best) {
			best = graph.NodeID(v)
		}
	}
	return best
}

// traceDepth is the span ring a traced set-up gives each machine — the
// registry's own default, set explicitly so that the collector's wrap check
// and the ring agree. A job's spans are read out of the ring when the job
// ends, so the ring must hold the longest job's spans: the most one machine
// records for one job here is 171 (push-tcp; max_spans_per_job in the trace
// file's engine_rounds). A deeper ring is not free: EndJob scans all of it, and at
// 1<<15 that scan more than doubled microstep's 150 us jobs.
const traceDepth = 4096

func newRegistry(traced bool) *obs.Registry {
	if !traced {
		return nil
	}
	reg := obs.NewRegistry()
	reg.SetTraceDepth(traceDepth)
	return reg
}

func regList(regs ...*obs.Registry) []*obs.Registry {
	var out []*obs.Registry
	for _, r := range regs {
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}

// --- output checks ----------------------------------------------------------

func cmpI64(got, want []int64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("node %d: %d, want %d", i, got[i], want[i])
		}
	}
	return ""
}

// cmpF64 compares within tol; infinities must match exactly.
func cmpF64(got, want []float64, tol float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("length %d, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g == w {
			continue
		}
		if math.IsInf(g, 0) || math.IsInf(w, 0) || math.IsNaN(g) || math.Abs(g-w) > tol {
			return fmt.Sprintf("node %d: %v, want %v (tolerance %g)", i, g, w, tol)
		}
	}
	return ""
}

// PageRank is compared at max-abs 1e-9 (pull accumulates in arrival order);
// the integer and min-reduction kernels exactly.
const prTol = 1e-9

// --- the TWT workloads: scan-local, pull-tcp, push-tcp -----------------------

// twt is the shared shape of the three in-memory TWT workloads; they differ
// in machine count, fabric and which kernels make the round.
type twt struct {
	base
	h      *harness
	g      *graph.Graph
	c      *core.Cluster
	closer func()
	nmach  int
	tcp    bool
	pull   bool // PageRank direction
	wcc    bool // round ends with WCC
	refPR  []float64
	refWCC []int64
}

func (w *twt) machines() int { return w.nmach }
func (w *twt) close()        { w.closer() }

func (w *twt) describe() string {
	fab := "in process"
	if w.tcp {
		fab = "loopback TCP"
	}
	m := w.g.NumEdges()
	return fmt.Sprintf("TWT%d = RMAT(%d,%d,TwitterLike): %d nodes, %d edges, %.1f MB of int64 edge refs over both orientations (LLC %s); %d machine(s) %s",
		w.h.sz.twtScale, w.h.sz.twtScale, w.h.sz.edgeFactor, w.g.NumNodes(), m, float64(16*m)/1e6, llcSize(), w.nmach, fab)
}

func setupTWT(h *harness, traced bool, nmach int, tcp, pull, wcc bool) (instance, error) {
	g, err := h.genRMAT(h.sz.twtScale, h.cfg.seed)
	if err != nil {
		return nil, err
	}
	reg := newRegistry(traced)
	cfg := h.engineConfig(nmach, reg)
	if tcp {
		if cfg.Fabric, err = tcpFabric(cfg); err != nil {
			return nil, err
		}
		h.wire = true
	}
	c, closer, err := h.boot(cfg, func(c *core.Cluster) error { return c.Load(g) })
	if err != nil {
		return nil, err
	}
	h.vals["partition.edge_imbalance"] = c.Layout().EdgeImbalance(g)
	return &twt{base: base{regList(reg)}, h: h, g: g, c: c, closer: closer, nmach: nmach, tcp: tcp, pull: pull, wcc: wcc}, nil
}

func setupScanLocal(h *harness, traced bool) (instance, error) {
	return setupTWT(h, traced, 1, false, true, true)
}

func setupPullTCP(h *harness, traced bool) (instance, error) {
	return setupTWT(h, traced, 2, true, true, false)
}

func setupPushTCP(h *harness, traced bool) (instance, error) {
	return setupTWT(h, traced, 2, true, false, true)
}

func (w *twt) reference() refTiming {
	th := sa.Threads(w.h.nproc)
	var rt refTiming
	t0 := time.Now()
	w.refPR = sa.PageRank(w.g, w.h.sz.prIters, damping, th)
	rt.scan = time.Since(t0)
	rt.scanEdges = int64(w.h.sz.prIters) * w.g.NumEdges()
	if w.wcc {
		w.refWCC, _ = sa.WCC(w.g, th)
	}
	rt.round = time.Since(t0)
	return rt
}

func (w *twt) round(rc *roundCtx) {
	m := w.g.NumEdges()
	iters := w.h.sz.prIters
	kind, run := "pr_pull", algorithms.PageRankPull
	if !w.pull {
		kind, run = "pr_push", algorithms.PageRankPush
	}
	rc.call(kind, int64(iters)*m, func() (algorithms.Metrics, func() string, error) {
		pr, met, err := run(w.c, iters, damping)
		return met, func() string { return cmpF64(pr, w.refPR, prTol) }, err
	})
	if w.wcc {
		rc.call("wcc", m, func() (algorithms.Metrics, func() string, error) {
			lab, met, err := algorithms.WCC(w.c, maxIter)
			return met, func() string { return cmpI64(lab, w.refWCC) }, err
		})
	}
}

// --- microstep ---------------------------------------------------------------

// microstep runs kernels whose cost is the number of supersteps, not the
// edges: k-core peeling on a small RMAT graph, and hop distance plus SSSP on
// a grid. The issue's grid had 1024 random shortcuts; those cut the diameter
// to ~37 levels and make it vary with the seed, so the grid here has none:
// HopDist takes exactly 2·side−3 levels from vertex (1,1) on every seed, and
// only SSSP's step count follows the seeded weights.
type microstep struct {
	base
	h           *harness
	gk, gg      *graph.Graph
	ck, cg      *core.Cluster
	closers     []func()
	src         graph.NodeID
	refCoreBest int64
	refCore     []int64
	refHop      []int64
	refSSSP     []float64
}

func (w *microstep) machines() int { return 2 }

func (w *microstep) close() {
	for _, c := range w.closers {
		c()
	}
}

func (w *microstep) describe() string {
	return fmt.Sprintf("k-core on RMAT(%d,%d): %d nodes, %d edges; HopDist+SSSP on Grid(%d,%d,0) weights [1,100): %d nodes, %d edges; 2 machines in process each",
		w.h.sz.kcoreScale, w.h.sz.edgeFactor, w.gk.NumNodes(), w.gk.NumEdges(),
		w.h.sz.gridSide, w.h.sz.gridSide, w.gg.NumNodes(), w.gg.NumEdges())
}

func setupMicrostep(h *harness, traced bool) (instance, error) {
	w := &microstep{h: h}
	var err error
	if w.gk, err = h.genRMAT(h.sz.kcoreScale, h.cfg.seed); err != nil {
		return nil, err
	}
	grid, err := graph.Grid(h.sz.gridSide, h.sz.gridSide, 0, h.cfg.seed)
	if err != nil {
		return nil, err
	}
	h.part("graph.weights_s", func() { w.gg = grid.WithUniformWeights(1, 100, h.cfg.seed) })
	w.src = maxOutDegreeVertex(w.gg)
	rk, rg := newRegistry(traced), newRegistry(traced)
	w.regs = regList(rk, rg)
	var closer func()
	if w.ck, closer, err = h.boot(h.engineConfig(2, rk), func(c *core.Cluster) error { return c.Load(w.gk) }); err != nil {
		return nil, err
	}
	w.closers = append(w.closers, closer)
	if w.cg, closer, err = h.boot(h.engineConfig(2, rg), func(c *core.Cluster) error { return c.Load(w.gg) }); err != nil {
		w.close()
		return nil, err
	}
	w.closers = append(w.closers, closer)
	h.vals["partition.edge_imbalance"] = w.ck.Layout().EdgeImbalance(w.gk)
	return w, nil
}

func (w *microstep) reference() refTiming {
	th := sa.Threads(w.h.nproc)
	t0 := time.Now()
	w.refCoreBest, w.refCore, _ = sa.KCore(w.gk, th)
	w.refHop, _ = sa.HopDist(w.gg, w.src, th)
	w.refSSSP, _ = sa.SSSP(w.gg, w.src, th)
	return refTiming{round: time.Since(t0)}
}

func (w *microstep) round(rc *roundCtx) {
	rc.call("kcore", w.gk.NumEdges(), func() (algorithms.Metrics, func() string, error) {
		best, nums, met, err := algorithms.KCore(w.ck, 0)
		return met, func() string {
			if best != w.refCoreBest {
				return fmt.Sprintf("max core %d, want %d", best, w.refCoreBest)
			}
			return cmpI64(nums, w.refCore)
		}, err
	})
	rc.call("hopdist", w.gg.NumEdges(), func() (algorithms.Metrics, func() string, error) {
		d, met, err := algorithms.HopDist(w.cg, w.src, maxIter)
		return met, func() string { return cmpI64(d, w.refHop) }, err
	})
	rc.call("sssp", w.gg.NumEdges(), func() (algorithms.Metrics, func() string, error) {
		d, met, err := algorithms.SSSP(w.cg, w.src, maxIter)
		return met, func() string { return cmpF64(d, w.refSSSP, 0) }, err
	})
}

// --- ooc-store ----------------------------------------------------------------

// oocStore runs the TWT graph from store files: csr3 (compressed, through
// the bounded decode cache) then csr2 (raw mmap, through the residency
// window), with the out-of-core configuration pgxd-run uses — spillable
// write buffers on.
type oocStore struct {
	base
	h        *harness
	g        *graph.Graph
	dir      string
	f3, f2   *store.File
	c3, c2   *core.Cluster
	dc       *store.DecodeCache
	dc0      store.DecodeCacheStats
	closers  []func()
	src      graph.NodeID
	refPR    []float64
	refHop   []int64
	fileSize [2]int64
}

func (w *oocStore) machines() int { return 2 }

func (w *oocStore) close() {
	for _, c := range w.closers {
		c()
	}
	for _, f := range []*store.File{w.f3, w.f2} {
		if f != nil {
			f.Close() //nolint:errcheck // read-only mapping
		}
	}
	os.RemoveAll(w.dir) //nolint:errcheck // temp dir under the out dir
}

func (w *oocStore) describe() string {
	m := w.g.NumEdges()
	return fmt.Sprintf("TWT%d: %d nodes, %d edges, %.1f MB of edge refs; csr3 %d bytes, csr2 %d bytes (p=2); decode cache %d KiB, residency window %d KiB; in process",
		w.h.sz.twtScale, w.g.NumNodes(), m, float64(16*m)/1e6, w.fileSize[0], w.fileSize[1],
		w.h.sz.decodeCacheBytes>>10, w.h.sz.residentBytes>>10)
}

func setupOOCStore(h *harness, traced bool) (instance, error) {
	w := &oocStore{h: h}
	ok := false
	defer func() {
		if !ok {
			w.close()
		}
	}()
	var err error
	if w.g, err = h.genRMAT(h.sz.twtScale, h.cfg.seed); err != nil {
		return nil, err
	}
	w.src = maxOutDegreeVertex(w.g)
	if w.dir, err = os.MkdirTemp(h.cfg.outDir, "ooc-"); err != nil {
		return nil, err
	}
	p3, p2 := filepath.Join(w.dir, "twt.csr3"), filepath.Join(w.dir, "twt.csr2")
	h.part("store.write_csr3_s", func() { err = store.WriteGraphCompressed(p3, w.g, 2) })
	if err != nil {
		return nil, err
	}
	h.part("store.write_csr2_s", func() { err = store.WriteGraph(p2, w.g, 2) })
	if err != nil {
		return nil, err
	}
	h.part("store.open_csr3_s", func() { w.f3, err = store.Open(p3) })
	if err != nil {
		return nil, err
	}
	h.part("store.open_csr2_s", func() { w.f2, err = store.Open(p2) })
	if err != nil {
		return nil, err
	}
	w.fileSize = [2]int64{w.f3.FileBytes(), w.f2.FileBytes()}
	h.vals["store.compression_ratio"] = float64(w.fileSize[1]) / float64(w.fileSize[0])

	r3, r2 := newRegistry(traced), newRegistry(traced)
	w.regs = regList(r3, r2)
	ooc := func(reg *obs.Registry) core.Config {
		cfg := h.engineConfig(2, reg)
		cfg.DecodeCacheBytes = h.sz.decodeCacheBytes
		cfg.ResidentBudgetBytes = h.sz.residentBytes
		cfg.SpillWrites = true
		cfg.SpillDir = w.dir
		return cfg
	}
	var closer func()
	if w.c3, closer, err = h.boot(ooc(r3), func(c *core.Cluster) error { return c.LoadStore(w.f3) }); err != nil {
		return nil, err
	}
	w.closers = append(w.closers, closer)
	if w.c2, closer, err = h.boot(ooc(r2), func(c *core.Cluster) error { return c.LoadStore(w.f2) }); err != nil {
		return nil, err
	}
	w.closers = append(w.closers, closer)
	// The file's decode cache is a singleton LoadStore created; asking again
	// returns it, which is how its counters are read from outside.
	if w.dc, err = w.f3.EnsureDecodeCache(h.sz.decodeCacheBytes); err != nil {
		return nil, err
	}
	h.vals["partition.edge_imbalance"] = w.c3.Layout().EdgeImbalance(w.g)
	ok = true
	return w, nil
}

func (w *oocStore) reference() refTiming {
	th := sa.Threads(w.h.nproc)
	var rt refTiming
	t0 := time.Now()
	w.refPR = sa.PageRank(w.g, w.h.sz.oocPRIters, damping, th)
	rt.scan = time.Since(t0)
	rt.scanEdges = int64(w.h.sz.oocPRIters) * w.g.NumEdges()
	w.refHop, _ = sa.HopDist(w.g, w.src, th)
	// The round runs the pair on both files; SA has one representation.
	rt.round = 2 * time.Since(t0)
	rt.scan *= 2
	rt.scanEdges *= 2
	return rt
}

func (w *oocStore) beginPhase() { w.dc0 = w.dc.Stats() }

func (w *oocStore) endPhase(rounds int, traced bool) {
	if rounds == 0 || traced { // count-sourced: from the untraced rounds
		return
	}
	s, n, v := w.dc.Stats(), float64(rounds), w.h.vals
	if claims := (s.Hits - w.dc0.Hits) + (s.Misses - w.dc0.Misses); claims > 0 {
		v["store.decode_hit_ratio"] = float64(s.Hits-w.dc0.Hits) / float64(claims)
	}
	v["store.decoded_mb_per_round"] = float64(s.DecodedBytes-w.dc0.DecodedBytes) / 1e6 / n
	v["store.decode_evicted_mb_per_round"] = float64(s.EvictedBytes-w.dc0.EvictedBytes) / 1e6 / n
}

func (w *oocStore) round(rc *roundCtx) {
	m := w.g.NumEdges()
	iters := w.h.sz.oocPRIters
	for _, f := range []struct {
		name string
		c    *core.Cluster
	}{{"csr3", w.c3}, {"csr2", w.c2}} {
		// The per-format span nests the two algorithm calls, so the round is
		// split by file format as well as by kernel.
		id := w.h.tr.begin("store." + f.name + "_round")
		rc.call("pr_pull", int64(iters)*m, func() (algorithms.Metrics, func() string, error) {
			pr, met, err := algorithms.PageRankPull(f.c, iters, damping)
			return met, func() string { return cmpF64(pr, w.refPR, prTol) }, err
		})
		rc.call("hopdist", m, func() (algorithms.Metrics, func() string, error) {
			d, met, err := algorithms.HopDist(f.c, w.src, maxIter)
			return met, func() string { return cmpI64(d, w.refHop) }, err
		})
		rc.rec.byKind[f.name] += w.h.tr.end(id)
	}
}
