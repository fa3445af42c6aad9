package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/baseline/sa"
	"repro/internal/graph"
	"repro/internal/server"
)

// serveMixed is the served workload: an in-process server with an engine
// pool of 2 per graph, two small graphs, and a closed loop of nproc client
// connections. Each client's round is a fixed-length request sequence in a
// seeded order — 40 % pagerank, 25 % hopdist, 20 % wcc, 10 % sssp, 5 % stats —
// and the next request is sent only when the previous reply has arrived.
type serveMixed struct {
	base
	h       *harness
	srv     *server.Server
	admin   *server.Client
	clients []*server.Client
	graphs  []serveGraph
	// seqs[c] is client c's request sequence, the same every round.
	seqs  [][]serveReq
	stat0 *server.ServerStats
}

type serveGraph struct {
	name string
	g    *graph.Graph
	src  graph.NodeID
	// want maps algo to the top-K values a correct reply carries.
	want map[string][]float64
}

type serveReq struct {
	req   server.Request
	graph int   // index into graphs; -1 for stats
	edges int64 // nominal work
}

const serveTopK = 5

// serveRefReps is how often the reference repeats each SA kernel: one pass
// over these small graphs is a millisecond, too short to time steadily.
const serveRefReps = 6

func (w *serveMixed) machines() int { return 2 }

func (w *serveMixed) describe() string {
	a, b := w.graphs[0].g, w.graphs[1].g
	return fmt.Sprintf("server pool 2; rmat = RMAT(%d,%d) %d nodes %d edges, grid = Grid(%d,%d,%d) %d nodes %d edges, both weighted [1,100), 2 machines each; closed loop of %d clients x %d requests per round",
		w.h.sz.serveScale, w.h.sz.edgeFactor, a.NumNodes(), a.NumEdges(),
		w.h.sz.serveGrid, w.h.sz.serveGrid, w.h.sz.serveGrid/2, b.NumNodes(), b.NumEdges(),
		len(w.clients), w.h.sz.serveSeqLen)
}

func (w *serveMixed) close() {
	for _, c := range w.clients {
		c.Close() //nolint:errcheck // loopback connection teardown
	}
	if w.admin != nil {
		w.admin.Close() //nolint:errcheck
	}
	if w.srv != nil {
		w.srv.Close()
	}
}

// setupServeMixed starts the server and has it generate both graphs. The
// untraced set-up runs with the server's observability off — the end-to-end
// numbers are measured with tracing off on every workload — and the traced
// one with it on, its default.
func setupServeMixed(h *harness, traced bool) (instance, error) {
	w := &serveMixed{h: h}
	ok := false
	defer func() {
		if !ok {
			w.close()
		}
	}()
	cfg := server.DefaultServerConfig()
	cfg.AnalysisPoolSize = 2
	cfg.DefaultMachines = 2
	cfg.DisableObservability = !traced
	var err error
	h.part("server.start", func() {
		if w.srv, err = server.New(cfg); err == nil {
			w.admin, err = server.Dial(w.srv.Addr())
		}
	})
	if err != nil {
		return nil, err
	}
	gens := []server.Request{
		{Graph: "rmat", Kind: "rmat", Scale: h.sz.serveScale, EdgeFactor: h.sz.edgeFactor},
		{Graph: "grid", Kind: "grid", Nodes: h.sz.serveGrid},
	}
	for i := range gens {
		gens[i].Seed, gens[i].WeightLo, gens[i].WeightHi, gens[i].Machines = h.cfg.seed, 1, 100, 2
		h.part("server.generate", func() { _, err = w.admin.Generate(gens[i]) })
		if err != nil {
			return nil, err
		}
	}
	for i := 0; i < h.nproc; i++ {
		c, err := server.Dial(w.srv.Addr())
		if err != nil {
			return nil, err
		}
		w.clients = append(w.clients, c)
	}
	ok = true
	return w, nil
}

// reference rebuilds both graphs with the generator calls the server's
// generate op makes, runs SA on them, and derives the request sequences.
func (w *serveMixed) reference() refTiming {
	h := w.h
	if w.graphs == nil {
		rmat, err := graph.RMAT(h.sz.serveScale, h.sz.edgeFactor, graph.TwitterLike(), h.cfg.seed)
		if err != nil {
			h.fail("serve-mixed: reference rmat: %v", err)
			return refTiming{}
		}
		grid, err := graph.Grid(h.sz.serveGrid, h.sz.serveGrid, h.sz.serveGrid/2, h.cfg.seed)
		if err != nil {
			h.fail("serve-mixed: reference grid: %v", err)
			return refTiming{}
		}
		for _, ng := range []struct {
			name string
			g    *graph.Graph
		}{{"rmat", rmat}, {"grid", grid}} {
			g := ng.g.WithUniformWeights(1, 100, h.cfg.seed)
			w.graphs = append(w.graphs, serveGraph{name: ng.name, g: g, src: maxOutDegreeVertex(g)})
		}
		w.buildSequences()
	}
	th := sa.Threads(h.nproc)
	// SA's time for a round is each algorithm's time on each graph times how
	// often the round asks for it.
	type kernel struct {
		graph int
		algo  string
	}
	count := map[kernel]int{}
	for _, seq := range w.seqs {
		for _, r := range seq {
			if r.graph >= 0 {
				count[kernel{r.graph, r.req.Algo}]++
			}
		}
	}
	var total time.Duration
	for gi := range w.graphs {
		sg := &w.graphs[gi]
		sg.want = map[string][]float64{}
		timeIt := func(algo string, fn func() []float64) {
			t0 := time.Now()
			for rep := 0; rep < serveRefReps; rep++ {
				sg.want[algo] = fn()
			}
			total += time.Duration(count[kernel{gi, algo}]) * time.Since(t0) / serveRefReps
		}
		timeIt("pagerank", func() []float64 { return topF64(sa.PageRank(sg.g, h.sz.servePRIter, damping, th), true) })
		timeIt("hopdist", func() []float64 { d, _ := sa.HopDist(sg.g, sg.src, th); return topI64(d, false) })
		timeIt("wcc", func() []float64 { l, _ := sa.WCC(sg.g, th); return topI64(l, true) })
		timeIt("sssp", func() []float64 { d, _ := sa.SSSP(sg.g, sg.src, th); return topF64(d, false) })
	}
	return refTiming{round: total}
}

// serveMix is the request mix as shares of a client's sequence.
var serveMix = []struct {
	algo  string
	share float64
}{{"pagerank", 0.40}, {"hopdist", 0.25}, {"wcc", 0.20}, {"sssp", 0.10}, {"stats", 0.05}}

// buildSequences makes each client's fixed request sequence. The composition
// is exact, not drawn: every sequence holds the mix's share of each
// algorithm, split evenly over the two graphs, and the seed only shuffles the
// order — so the work in a round is the same on every seed and two seeds'
// throughputs compare. (Drawing 80 requests independently moves the count of
// the dearest request, PageRank on the RMAT graph, by ±22 %.)
func (w *serveMixed) buildSequences() {
	h := w.h
	rng := rand.New(rand.NewSource(h.cfg.seed))
	w.seqs = make([][]serveReq, len(w.clients))
	for c := range w.seqs {
		var seq []serveReq
		for _, mix := range serveMix {
			n := int(mix.share*float64(h.sz.serveSeqLen) + 0.5)
			for i := 0; i < n; i++ {
				if mix.algo == "stats" {
					seq = append(seq, serveReq{req: server.Request{Op: "stats"}, graph: -1})
					continue
				}
				gi := i % len(w.graphs)
				sg := w.graphs[gi]
				r := serveReq{graph: gi, edges: sg.g.NumEdges(), req: server.Request{
					Graph: sg.name, Algo: mix.algo, TopK: serveTopK, Source: uint32(sg.src), Tenant: fmt.Sprintf("client-%d", c),
				}}
				if mix.algo == "pagerank" {
					r.req.Iterations = h.sz.servePRIter
					r.edges *= int64(h.sz.servePRIter)
				}
				seq = append(seq, r)
			}
		}
		rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
		w.seqs[c] = seq
	}
}

// topF64 / topI64 mirror the server's top-K: the K best finite values,
// descending or ascending. Only values are compared — the server's sort is
// not stable, so which of several tied vertices it names is not defined.
func topF64(vals []float64, descending bool) []float64 {
	var fin []float64
	for _, v := range vals {
		if !math.IsInf(v, 0) && !math.IsNaN(v) {
			fin = append(fin, v)
		}
	}
	sort.Float64s(fin)
	if descending {
		for i, j := 0, len(fin)-1; i < j; i, j = i+1, j-1 {
			fin[i], fin[j] = fin[j], fin[i]
		}
	}
	if len(fin) > serveTopK {
		fin = fin[:serveTopK]
	}
	return fin
}

func topI64(vals []int64, descending bool) []float64 {
	f := make([]float64, 0, len(vals))
	for _, v := range vals {
		if v != math.MaxInt64 {
			f = append(f, float64(v))
		}
	}
	return topF64(f, descending)
}

// checkReply compares a run reply with the reference: iteration count for
// PageRank (the other kernels' superstep counts follow message timing), and
// the top-K values for every algorithm.
func (w *serveMixed) checkReply(r serveReq, res *server.RunResult) string {
	if res == nil {
		return "no result"
	}
	if r.req.Algo == "pagerank" && res.Iterations != r.req.Iterations {
		return fmt.Sprintf("iterations %d, want %d", res.Iterations, r.req.Iterations)
	}
	want := w.graphs[r.graph].want[r.req.Algo]
	got := make([]float64, len(res.TopVertices))
	for i, tv := range res.TopVertices {
		got[i] = tv.Value
	}
	tol := 0.0
	if r.req.Algo == "pagerank" {
		tol = prTol
	}
	return cmpF64(got, want, tol)
}

func (w *serveMixed) beginPhase() {
	w.stat0, _ = w.admin.Stats()
}

func (w *serveMixed) endPhase(rounds int, traced bool) {
	st, err := w.admin.Stats()
	if err != nil || w.stat0 == nil || rounds == 0 {
		return
	}
	if st.FailedRuns != w.stat0.FailedRuns {
		w.h.fail("serve-mixed: server counted %d failed runs", st.FailedRuns-w.stat0.FailedRuns)
	}
	if traced {
		// Only a server with observability on counts engine jobs.
		w.h.vals["core.jobs_per_round"] = float64(st.JobsObserved-w.stat0.JobsObserved) / float64(rounds)
		return
	}
	w.h.vals["server.deferred"] = float64(st.BudgetDeferrals - w.stat0.BudgetDeferrals)
}

// round lets every client send its sequence once, concurrently; the round's
// wall time is from the first send to the last reply.
func (w *serveMixed) round(rc *roundCtx) {
	h := w.h
	parent := h.tr.top()
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	for c, cl := range w.clients {
		wg.Add(1)
		go func(cl *server.Client, seq []serveReq) {
			defer wg.Done()
			for _, r := range seq {
				st := time.Now()
				var res *server.RunResult
				var err error
				name := "server.stats"
				if r.graph < 0 {
					_, err = cl.Stats()
				} else {
					name = "server.run." + r.req.Algo
					res, err = cl.Run(r.req)
				}
				d := time.Since(st)
				h.tr.leaf(name, parent, st, d)
				msg := ""
				if err == nil && r.graph >= 0 {
					msg = w.checkReply(r, res)
				}
				mu.Lock()
				h.attempted++
				rec := rc.rec
				rec.edges += r.edges
				switch {
				case err != nil:
					h.fail("serve-mixed: %s on %s returned %v", r.req.Algo, r.req.Graph, err)
				case msg != "":
					h.fail("serve-mixed: %s on %s differs from the SA reference: %s", r.req.Algo, r.req.Graph, msg)
				}
				if r.graph >= 0 {
					rec.requests++
					rec.lat = append(rec.lat, d.Seconds()*1e3)
					if res != nil {
						rec.queue = append(rec.queue, res.QueueMillis)
						rec.execMS += res.Millis
					}
				}
				mu.Unlock()
			}
		}(cl, w.seqs[c])
	}
	wg.Wait()
	rc.rec.wall = time.Since(t0)
}
