package server

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
)

// Config bounds the server's resource usage — the paper's open question
// "how should the system assign memory and CPU resources between clients
// while achieving overall fairness and efficiency?" answered with explicit
// admission control: a cap on resident edges (memory proxy), a global cap
// on concurrently running analyses, per-tenant quotas, and priority-with-
// aging admission order.
type Config struct {
	// Addr is the TCP listen address, e.g. "127.0.0.1:7427". Empty picks
	// an ephemeral loopback port (tests).
	Addr string
	// MaxResidentEdges caps the sum of edges across loaded graphs.
	MaxResidentEdges int64
	// MaxConcurrentAnalyses caps simultaneously running algorithms across
	// all graphs and tenants.
	MaxConcurrentAnalyses int
	// AnalysisPoolSize is how many engine clusters each graph instance
	// boots over its shared immutable graph — the number of read-only
	// analyses that can run concurrently on one graph. Default 2.
	AnalysisPoolSize int
	// RunMemoryBudgetMB caps the summed resident-memory need of concurrently
	// running analyses: each run's Request.MaxResidentMB, or else what it
	// adds to its instance — its catalog columns (memCharge). A run that
	// would push the total past the budget queues until enough memory frees
	// (counted as a budget deferral); an idle server always admits. <=0
	// disables the memory gate.
	RunMemoryBudgetMB int64
	// TenantQuota caps concurrently running analyses per tenant; <=0
	// disables the per-tenant cap.
	TenantQuota int
	// PriorityAging is how long a queued request waits to gain one
	// priority level (anti-starvation). Default 250ms; <0 disables aging.
	PriorityAging time.Duration
	// DefaultMachines is the simulated cluster size for graphs loaded
	// without an explicit machine count.
	DefaultMachines int
	// DebugAddr, when set, serves the observability debug surface over HTTP
	// (/debug/metrics, /debug/trace, /debug/abort, /debug/pprof/*) on that
	// address. Multi-graph servers select an instance with ?graph=<name>.
	// Empty disables the debug listener.
	DebugAddr string
	// DisableObservability runs instances without registries: no per-job
	// reports or flight recorder, and the extended stats fields stay zero.
	DisableObservability bool

	// runHook, when set, is invoked after a run is admitted (engine held)
	// and before the algorithm starts. Tests use it to hold an engine busy
	// deterministically.
	runHook func(*Request)
}

// DefaultServerConfig returns modest laptop limits.
func DefaultServerConfig() Config {
	return Config{
		Addr:                  "127.0.0.1:0",
		MaxResidentEdges:      64 << 20,
		MaxConcurrentAnalyses: 2,
		AnalysisPoolSize:      2,
		DefaultMachines:       4,
		PriorityAging:         250 * time.Millisecond,
	}
}

// instance is one loaded graph with a pool of engine clusters over the
// shared graph, immutable once admitted. Read-only analyses lease one engine
// each and run concurrently; drop waits for every lease to end.
type instance struct {
	name     string
	machines int
	engines  []*engine
	g        *graph.Graph

	// Admission state, guarded by scheduler.mu: the engines no lease holds,
	// whether drop has closed the instance to admission, and the channel the
	// release of a closed instance's last lease closes.
	idle    []*engine
	closed  bool
	drained chan struct{}
}

// Server is the long-running multi-tenant engine host.
type Server struct {
	cfg      Config
	listener net.Listener

	mu        sync.Mutex
	instances map[string]*instance
	booting   map[string]struct{} // names admit has reserved and is booting engines for
	resident  int64               // edges of the instances and of the graphs booting
	conns     map[net.Conn]struct{}

	// sched is the ledger of every run, from enqueue to release.
	sched *scheduler

	// reg is the server's own observability registry (queue-wait and
	// run-latency histograms); nil with observability disabled.
	reg *obs.Registry

	start time.Time

	debugLn  net.Listener
	debugSrv *http.Server

	wg     sync.WaitGroup
	closed atomic.Bool
}

// New starts a server listening per cfg. Call Close to stop.
func New(cfg Config) (*Server, error) {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.MaxConcurrentAnalyses < 1 {
		cfg.MaxConcurrentAnalyses = 1
	}
	if cfg.AnalysisPoolSize < 1 {
		cfg.AnalysisPoolSize = 1
	}
	if cfg.DefaultMachines < 1 {
		cfg.DefaultMachines = 1
	}
	if cfg.PriorityAging == 0 {
		cfg.PriorityAging = 250 * time.Millisecond
	}
	l, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen %s: %w", cfg.Addr, err)
	}
	s := &Server{
		cfg:       cfg,
		listener:  l,
		instances: make(map[string]*instance),
		booting:   make(map[string]struct{}),
		conns:     make(map[net.Conn]struct{}),
		sched: newScheduler(cfg.MaxConcurrentAnalyses, cfg.TenantQuota,
			cfg.PriorityAging, cfg.RunMemoryBudgetMB),
		start: time.Now(),
	}
	if !cfg.DisableObservability {
		s.reg = obs.NewRegistry()
		s.reg.Attach(1)
	}
	if cfg.DebugAddr != "" {
		dl, err := net.Listen("tcp", cfg.DebugAddr)
		if err != nil {
			l.Close()
			return nil, fmt.Errorf("server: debug listen %s: %w", cfg.DebugAddr, err)
		}
		s.debugLn = dl
		s.debugSrv = &http.Server{Handler: s.debugHandler()}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.debugSrv.Serve(dl)
		}()
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// DebugAddr returns the bound debug HTTP address, or "" when disabled.
func (s *Server) DebugAddr() string {
	if s.debugLn == nil {
		return ""
	}
	return s.debugLn.Addr().String()
}

// debugHandler routes the observability debug surface. The registry
// endpoints dispatch per instance: with one graph loaded it is implicit,
// otherwise ?graph=<name> selects it; ?engine=<idx> selects a pool engine
// (default 0). /debug/server reports the same stats as the wire protocol's
// stats op.
func (s *Server) debugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/server", func(w http.ResponseWriter, r *http.Request) {
		resp := s.handleStats()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(resp.Stats)
	})
	forward := func(w http.ResponseWriter, r *http.Request) {
		reg, err := s.pickRegistry(r.URL.Query().Get("graph"), r.URL.Query().Get("engine"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		reg.Handler().ServeHTTP(w, r)
	}
	mux.HandleFunc("/debug/metrics", forward)
	mux.HandleFunc("/debug/trace", forward)
	mux.HandleFunc("/debug/abort", forward)
	// pprof profiles the whole process; any instance's handler serves it,
	// but it must work with zero graphs loaded too, so forward to a fresh
	// registry's mux (the pprof routes don't touch registry state).
	mux.Handle("/debug/pprof/", obs.NewRegistry().Handler())
	return mux
}

// pickRegistry resolves the registry the debug surface should read: the
// named graph (or the single loaded instance when the name is empty), and
// within it the selected pool engine (default 0).
func (s *Server) pickRegistry(name, engineIdx string) (*obs.Registry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var inst *instance
	if name != "" {
		inst = s.instances[name]
		if inst == nil {
			return nil, fmt.Errorf("graph %q not loaded", name)
		}
	} else {
		if len(s.instances) != 1 {
			return nil, fmt.Errorf("%d graphs loaded; select one with ?graph=<name>", len(s.instances))
		}
		for _, i := range s.instances {
			inst = i
		}
	}
	var reg *obs.Registry
	if engineIdx != "" {
		idx, err := strconv.Atoi(engineIdx)
		if err != nil || idx < 0 || idx >= len(inst.engines) {
			return nil, fmt.Errorf("bad engine index %q (pool size %d)", engineIdx, len(inst.engines))
		}
		reg = inst.engines[idx].reg
	} else {
		// Default to the pool engine that has executed the most jobs — with
		// light load the whole history tends to live on one engine.
		var best int64 = -1
		for _, eng := range inst.engines {
			if n := eng.reg.JobsObserved(); n > best {
				best, reg = n, eng.reg
			}
		}
	}
	if reg == nil {
		return nil, fmt.Errorf("observability disabled")
	}
	return reg, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.listener.Addr().String() }

// Close stops accepting, fails queued admissions, cancels running engine
// jobs, drains handlers, and shuts down all engines. A request parked in
// the admission queue gets a clean "shutting down" error response before
// its connection closes — Close never wedges behind a queued run.
func (s *Server) Close() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	s.listener.Close()
	if s.debugSrv != nil {
		s.debugSrv.Close()
	}
	// Fail queued admissions and cancel running leases first: their
	// handlers write error responses while the write half of each conn
	// still works, and a drop waiting on a lease gets it back.
	s.sched.shutdown()
	// Unblock handlers parked reading from idle clients, keeping the write
	// half open so in-flight responses (including the shutdown errors
	// above) can flush.
	s.mu.Lock()
	for conn := range s.conns {
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.CloseRead()
		} else {
			conn.Close()
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, inst := range s.instances {
		for _, eng := range inst.engines {
			eng.cluster.Shutdown()
		}
		delete(s.instances, name)
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// serveConn handles one client: a stream of JSON-line requests.
func (s *Server) serveConn(conn net.Conn) {
	s.mu.Lock()
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	dec := json.NewDecoder(bufio.NewReader(conn))
	enc := json.NewEncoder(conn)
	for {
		var req Request
		if err := dec.Decode(&req); err != nil {
			return // disconnect or garbage; drop the session
		}
		resp := s.handle(&req)
		if err := encode(enc, resp); err != nil {
			return
		}
	}
}

func (s *Server) handle(req *Request) Response {
	switch req.Op {
	case "load":
		return s.handleLoad(req)
	case "generate":
		return s.handleGenerate(req)
	case "run":
		return s.handleRun(req)
	case "cancel":
		return s.handleCancel(req)
	case "list":
		return s.handleList()
	case "drop":
		return s.handleDrop(req)
	case "stats":
		return s.handleStats()
	default:
		return errResp("unknown op %q", req.Op)
	}
}

// bootEngines builds the instance's engine pool: AnalysisPoolSize clusters,
// each with its own registry, all loaded with the same immutable graph.
func (s *Server) bootEngines(g *graph.Graph, machines int) ([]*engine, error) {
	n := s.cfg.AnalysisPoolSize
	engines := make([]*engine, 0, n)
	fail := func(err error) ([]*engine, error) {
		for _, e := range engines {
			e.cluster.Shutdown()
		}
		return nil, err
	}
	for i := 0; i < n; i++ {
		cfg := core.DefaultConfig(machines)
		if !s.cfg.DisableObservability {
			cfg.Obs = obs.NewRegistry()
		}
		cluster, err := core.NewCluster(cfg)
		if err != nil {
			return fail(fmt.Errorf("boot cluster: %w", err))
		}
		engines = append(engines, &engine{cluster: cluster, reg: cfg.Obs})
		if err := cluster.Load(g); err != nil {
			return fail(fmt.Errorf("distribute graph: %w", err))
		}
	}
	return engines, nil
}

// admit installs a new instance under the resident-edge budget. The name and
// the edges are reserved before any engine boots, so a duplicate name or an
// over-budget graph is refused without building an engine, and of two
// concurrent admits of one name exactly one boots.
func (s *Server) admit(name string, g *graph.Graph, machines int) (Response, bool) {
	s.mu.Lock()
	_, exists := s.instances[name]
	if _, booting := s.booting[name]; exists || booting {
		s.mu.Unlock()
		return errResp("graph %q already loaded", name), false
	}
	if err := s.overBudget(g.NumEdges()); err != nil {
		s.mu.Unlock()
		return errResp("%v", err), false
	}
	s.booting[name] = struct{}{}
	s.resident += g.NumEdges()
	s.mu.Unlock()

	engines, err := s.bootEngines(g, machines)
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.booting, name)
	if err != nil {
		s.resident -= g.NumEdges()
		return errResp("%v", err), false
	}
	inst := &instance{name: name, g: g, machines: machines, engines: engines,
		idle: slices.Clone(engines), drained: make(chan struct{})}
	s.instances[name] = inst
	return Response{OK: true, Graphs: []GraphInfo{s.info(inst)}}, true
}

// overBudget is admit's refusal of edges more resident edges than the budget
// has room for, or nil. Caller holds s.mu.
func (s *Server) overBudget(edges int64) error {
	if s.cfg.MaxResidentEdges > 0 && edges > s.cfg.MaxResidentEdges-s.resident {
		return fmt.Errorf("resident edge budget exceeded: %d + %d > %d", s.resident, edges, s.cfg.MaxResidentEdges)
	}
	return nil
}

func (s *Server) info(inst *instance) GraphInfo {
	g := inst.g
	return GraphInfo{
		Name:     inst.name,
		Nodes:    g.NumNodes(),
		Edges:    g.NumEdges(),
		Weighted: g.Weighted(),
		Machines: inst.machines,
	}
}

func (s *Server) machinesFor(req *Request) int {
	if req.Machines > 0 {
		return req.Machines
	}
	return s.cfg.DefaultMachines
}

func (s *Server) handleLoad(req *Request) Response {
	if req.Graph == "" || req.Path == "" {
		return errResp("load needs graph and path")
	}
	g, err := graph.ReadFile(req.Path)
	if err != nil {
		return errResp("load %s: %v", req.Path, err)
	}
	resp, _ := s.admit(req.Graph, g, s.machinesFor(req))
	return resp
}

// handleGenerate builds a generated graph and admits it. A generator's node
// and edge counts follow from its arguments — for rmat and uniform, the
// stream's counts — so a request the resident-edge budget has no room for is
// refused before a byte of it is allocated: admit checks only after the
// build, which for a large enough request is an out-of-memory crash instead
// of an error. The larger of the two counts is charged: a node costs the
// graph's arrays at least what an edge does.
func (s *Server) handleGenerate(req *Request) Response {
	if req.Graph == "" {
		return errResp("generate needs graph")
	}
	var gen func() (*graph.Graph, error)
	var size int64 // max(nodes, edges) of what gen builds
	switch req.Kind {
	case "rmat", "", "uniform":
		es, err := streamOf(req)
		if err != nil {
			return errResp("generate: %v", err)
		}
		size, gen = int64(max(es.NumNodes(), es.NumEdges())), es.Graph
	case "grid":
		n := cmp.Or(req.Nodes, 100)
		if n > 0 { // n² nodes; the mesh's 4n(n-1) directed edges and n/2 shortcuts, both ways
			size = max(satMul(int64(n), int64(n)), satMul(satMul(4, int64(n)), int64(n-1))+satMul(2, int64(n/2)))
		}
		gen = func() (*graph.Graph, error) { return graph.Grid(n, n, n/2, req.Seed) }
	default:
		return errResp("unknown generator %q", req.Kind)
	}
	s.mu.Lock()
	err := s.overBudget(size)
	s.mu.Unlock()
	if err != nil {
		return errResp("%v", err)
	}
	g, err := gen()
	if err != nil {
		return errResp("generate: %v", err)
	}
	if req.WeightHi > req.WeightLo {
		g = g.WithUniformWeights(req.WeightLo, req.WeightHi, req.Seed)
	}
	resp, _ := s.admit(req.Graph, g, s.machinesFor(req))
	return resp
}

// streamOf is the generator stream of an rmat (the default kind) or uniform
// request, with the protocol's defaults for zero arguments.
func streamOf(req *Request) (*graph.GenStream, error) {
	if req.Kind == "uniform" {
		n := cmp.Or(req.Nodes, 1<<14)
		return graph.UniformStream(n, cmp.Or(req.Edges, n*16), req.Seed)
	}
	return graph.RMATStream(cmp.Or(req.Scale, 14), cmp.Or(req.EdgeFactor, 16), graph.TwitterLike(), req.Seed)
}

// satMul is a*b for non-negative a and b, saturated at math.MaxInt64/2 so
// that a sum of two stays positive.
func satMul(a, b int64) int64 {
	const limit = math.MaxInt64 / 2
	if a != 0 && b > limit/a {
		return limit
	}
	return a * b
}

// maxPriority clamps client-supplied priorities to [-8, 8].
const maxPriority = 8

// tenantOf maps the wire tenant field to an accounting key.
func tenantOf(req *Request) string {
	if req.Tenant == "" {
		return "default"
	}
	return req.Tenant
}

// memCharge is what a run costs the admission memory gate: the client's
// declared need, or — only when a budget is actually configured — what the
// run adds to its instance, the algorithm's catalog columns of 8 bytes per
// word, in MiB rounded up: a column is a word per node and one per replica
// slot of each machine (core.Cluster.ColumnWords). The shared graph and the
// engines' local stores are not charged: admit pinned them when it booted the
// instance, and deferring a run cannot free them. A run whose columns reuse
// dropped ones is charged them all the same: conservatively, never short.
func (s *Server) memCharge(inst *instance, spec algorithms.Spec, req *Request) int64 {
	if req.MaxResidentMB > 0 || s.cfg.RunMemoryBudgetMB <= 0 {
		return req.MaxResidentMB
	}
	return (int64(spec.Cols)*8*inst.engines[0].cluster.ColumnWords() + 1<<20 - 1) >> 20
}

// handleRun admits an analysis through the scheduler, executes it on the
// leased engine and releases the lease with the outcome. Admission charges a
// global slot only when the run can actually execute (idle engine on the
// target graph, tenant under quota), so a busy graph never starves requests
// for other graphs. The scheduler resolves every ticket — a lease, its
// deadline, an op=cancel matching its tag, a drop of its graph, or server
// shutdown — so the handler waits on admission alone.
func (s *Server) handleRun(req *Request) Response {
	s.mu.Lock()
	inst, ok := s.instances[req.Graph]
	s.mu.Unlock()
	if !ok {
		return errResp("graph %q not loaded", req.Graph)
	}
	spec, ok := algorithms.Lookup(req.Algo)
	if !ok {
		return errResp("%s on %s: unknown algorithm %q", req.Algo, req.Graph, req.Algo)
	}
	if spec.Weighted && !inst.g.Weighted() {
		return errResp("%s on %s: graph is unweighted", req.Algo, req.Graph)
	}
	t := &ticket{
		tenant:        tenantOf(req),
		tag:           req.Tag,
		priority:      min(max(req.Priority, -maxPriority), maxPriority),
		timeoutMillis: req.TimeoutMillis,
		inst:          inst,
		memMB:         s.memCharge(inst, spec, req),
		result:        make(chan admitResult, 1),
	}
	jobID := s.sched.enqueue(t)
	admitted := <-t.result
	if admitted.err != nil {
		return errResp("run on %s: %v", req.Graph, admitted.err)
	}
	queueWait := time.Since(t.enqueued)
	s.reg.Observe(0, obs.HistQueueWait, queueWait)
	if s.cfg.runHook != nil {
		s.cfg.runHook(req)
	}

	start := time.Now()
	result, err := runAlgo(spec, inst, admitted.eng, req)
	runDur := time.Since(start)
	millis := float64(runDur.Microseconds()) / 1000
	s.sched.release(t, millis, err)
	if err != nil {
		// Engine-level job aborts (transport faults, cancellation,
		// deadlines) surface here as error responses — the server and its
		// other engines stay up.
		return errResp("%s on %s: %v", req.Algo, req.Graph, err)
	}
	s.reg.Observe(0, obs.HistRunLatency, runDur)
	result.Millis = millis
	result.JobID = jobID
	result.QueueMillis = float64(queueWait.Microseconds()) / 1000
	return Response{OK: true, Result: result}
}

// handleCancel kills runs carrying req.Tag: queued ones are rejected with
// a cancel error, running ones have their engine job aborted through the
// core cancellation latch. With req.Tenant set, only that tenant's runs
// match.
func (s *Server) handleCancel(req *Request) Response {
	if req.Tag == "" {
		return errResp("cancel needs tag")
	}
	cause := fmt.Errorf("canceled by tag %q", req.Tag)
	n := s.sched.cancelByTag(req.Tag, req.Tenant, cause)
	return Response{OK: true, Result: &RunResult{
		Algo:  "cancel",
		Extra: fmt.Sprintf("%d runs canceled", n),
	}}
}

// runAlgo runs spec, the catalog entry req names, on the leased engine.
func runAlgo(spec algorithms.Spec, inst *instance, eng *engine, req *Request) (*RunResult, error) {
	p := algorithms.Params{Iterations: req.Iterations, Damping: req.Damping, Threshold: req.Threshold, Source: req.Source, Graph: inst.g}
	out, met, err := spec.Run(eng.cluster, p)
	if err != nil {
		return nil, err
	}
	topK := req.TopK
	if topK <= 0 {
		topK = 5
	}
	res := &RunResult{Algo: req.Algo, Iterations: met.Iterations, Extra: out.Summary}
	for _, v := range out.Top(topK, spec.Ascending) {
		res.TopVertices = append(res.TopVertices, TopVertex(v))
	}
	return res, nil
}

func (s *Server) handleList() Response {
	s.mu.Lock()
	defer s.mu.Unlock()
	resp := Response{OK: true}
	names := make([]string, 0, len(s.instances))
	for name := range s.instances {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		resp.Graphs = append(resp.Graphs, s.info(s.instances[name]))
	}
	return resp
}

// handleDrop unloads a graph: queued runs for it fail with a "dropped"
// error, in-flight analyses finish, then every engine shuts down. The
// instance leaves s.instances under s.mu, so no second drop can reach it;
// the scheduler closes it to admission and hands back a channel the release
// of its last lease closes.
func (s *Server) handleDrop(req *Request) Response {
	s.mu.Lock()
	inst, ok := s.instances[req.Graph]
	if ok {
		delete(s.instances, req.Graph)
		s.resident -= inst.g.NumEdges()
	}
	s.mu.Unlock()
	if !ok {
		return errResp("graph %q not loaded", req.Graph)
	}
	<-s.sched.drop(inst)
	for _, eng := range inst.engines {
		eng.cluster.Shutdown()
	}
	return Response{OK: true}
}

func (s *Server) handleStats() Response {
	s.mu.Lock()
	var transportErrors, jobs, aborts int64
	var staleWrites, staleReads int64
	var lastAbort *AbortSummary
	var lastWhen time.Time
	for _, inst := range s.instances {
		for _, eng := range inst.engines {
			snap := eng.cluster.TrafficSnapshot()
			transportErrors += snap.SendErrors + snap.RecvErrors
			jobs += eng.reg.JobsObserved()
			aborts += eng.reg.AbortsObserved()
			ctrs := eng.reg.LifetimeCounters()
			staleWrites += ctrs["stale_write_frames"]
			staleReads += ctrs["stale_read_frames"]
			if d := eng.reg.LastAbort(); d != nil && d.When.After(lastWhen) {
				lastWhen = d.When
				lastAbort = &AbortSummary{
					Graph:      inst.name,
					Job:        d.Job,
					Name:       d.Name,
					Err:        d.Err,
					AgeSeconds: time.Since(d.When).Seconds(),
					Spans:      len(d.Spans),
				}
			}
		}
	}
	loaded, resident := len(s.instances), s.resident
	s.mu.Unlock()
	st := s.sched.stats()
	st.LoadedGraphs, st.ResidentEdges = loaded, resident
	st.MaxEdges = s.cfg.MaxResidentEdges
	st.TransportErrors = transportErrors
	st.StaleWriteFrames, st.StaleReadFrames = staleWrites, staleReads
	st.UptimeSeconds = time.Since(s.start).Seconds()
	st.JobsObserved, st.AbortsSeen = jobs, aborts
	st.EnginePoolSize = s.cfg.AnalysisPoolSize
	st.LastAbort = lastAbort
	if s.reg != nil {
		h := s.reg.LifetimeHistogram(obs.HistQueueWait)
		st.QueueP50Millis = h.Quantile(0.50).Seconds() * 1000
		st.QueueP99Millis = h.Quantile(0.99).Seconds() * 1000
	}
	return Response{OK: true, Stats: &st}
}
