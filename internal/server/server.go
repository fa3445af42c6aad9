package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/store"
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
	// RunMemoryBudgetMB caps the summed resident-memory need (declared via
	// Request.MaxResidentMB, or estimated from store sizing) of concurrently
	// running analyses. A run that would push the total past the budget
	// queues until enough memory frees (counted as a budget deferral); an
	// idle server always admits. <=0 disables the memory gate.
	RunMemoryBudgetMB int64
	// TenantQuota caps concurrently running analyses per tenant; <=0
	// disables the per-tenant cap.
	TenantQuota int
	// TenantQuotas overrides TenantQuota for specific tenant IDs.
	TenantQuotas map[string]int
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
// each and run concurrently; drop collects the whole pool.
type instance struct {
	name     string
	machines int
	pool     *enginePool
	g        *graph.Graph

	// closed flips when the instance is dropped so queued tickets fail
	// instead of waiting on a pool that will never refill.
	closed atomic.Bool
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

	sched *scheduler
	// doneCh closes when Close begins: queued admissions and exclusive
	// waits abort with a clean error instead of wedging.
	doneCh chan struct{}

	runsServed       atomic.Int64
	failedRuns       atomic.Int64
	active           atomic.Int64
	deadlineExceeded atomic.Int64
	canceledRuns     atomic.Int64

	// tenants accumulates per-tenant served/failed counters.
	tenantMu sync.Mutex
	tenants  map[string]*tenantCounters

	// reg is the server's own observability registry (queue-wait and
	// run-latency histograms); nil with observability disabled.
	reg *obs.Registry

	start time.Time

	// durs is a sliding window of recent analysis durations (milliseconds)
	// backing the stats percentiles.
	durMu   sync.Mutex
	durs    []float64
	durNext int

	debugLn  net.Listener
	debugSrv *http.Server

	wg     sync.WaitGroup
	closed atomic.Bool
}

// tenantCounters is the mutable backing of TenantStats.
type tenantCounters struct {
	served atomic.Int64
	failed atomic.Int64
}

// runDurWindow is the sliding-window size for run-duration percentiles.
const runDurWindow = 512

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
		tenants:   make(map[string]*tenantCounters),
		doneCh:    make(chan struct{}),
		sched: newScheduler(cfg.MaxConcurrentAnalyses, cfg.TenantQuota,
			cfg.TenantQuotas, cfg.PriorityAging, cfg.RunMemoryBudgetMB),
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
		if err != nil || idx < 0 || idx >= len(inst.pool.all) {
			return nil, fmt.Errorf("bad engine index %q (pool size %d)", engineIdx, len(inst.pool.all))
		}
		reg = inst.pool.all[idx].reg
	} else {
		// Default to the pool engine that has executed the most jobs — with
		// light load the whole history tends to live on one engine.
		var best int64 = -1
		for _, eng := range inst.pool.all {
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
	// Wake queued admissions and exclusive waits first: their handlers
	// write error responses while the write half of each conn still works.
	close(s.doneCh)
	// Abort running engine jobs through the cancellation latch so leases
	// come back promptly instead of after many supersteps.
	s.sched.cancelAll(errShutdown)
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
		inst.closed.Store(true)
		for _, eng := range inst.pool.all {
			eng.cluster.Shutdown()
		}
		delete(s.instances, name)
	}
}

// cancelAll cancels every running engine lease (shutdown path).
func (s *scheduler) cancelAll(cause error) {
	s.mu.Lock()
	engines := make([]*engine, 0, len(s.running))
	for _, eng := range s.running {
		engines = append(engines, eng)
	}
	s.mu.Unlock()
	for _, eng := range engines {
		eng.cluster.Cancel(cause)
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
		engines = append(engines, &engine{idx: i, cluster: cluster, reg: cfg.Obs})
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
	inst := &instance{name: name, g: g, machines: machines, pool: newEnginePool(engines)}
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
	f, err := os.Open(req.Path)
	if err != nil {
		return errResp("open %s: %v", req.Path, err)
	}
	defer f.Close()
	var g *graph.Graph
	if strings.HasSuffix(req.Path, ".bin") {
		g, err = graph.ReadBinary(f)
	} else {
		g, err = graph.ReadEdgeList(f)
	}
	if err != nil {
		return errResp("parse %s: %v", req.Path, err)
	}
	resp, _ := s.admit(req.Graph, g, s.machinesFor(req))
	return resp
}

// handleGenerate builds a generated graph and admits it. A generator's node
// and edge counts follow from its arguments, so a request the resident-edge
// budget has no room for is refused before a byte of it is allocated — admit
// checks only after the build, which for a large enough request is an
// out-of-memory crash instead of an error. The larger of the two counts is
// charged: a node costs the graph's arrays at least what an edge does.
func (s *Server) handleGenerate(req *Request) Response {
	if req.Graph == "" {
		return errResp("generate needs graph")
	}
	var gen func() (*graph.Graph, error)
	var size int64 // max(nodes, edges) of what gen builds; arguments gen refuses count 0
	switch req.Kind {
	case "rmat", "":
		scale, ef := req.Scale, req.EdgeFactor
		if scale == 0 {
			scale = 14
		}
		if ef == 0 {
			ef = 16
		}
		if scale >= 1 && scale <= 30 && ef >= 1 {
			size = satMul(1<<scale, int64(ef))
		}
		gen = func() (*graph.Graph, error) { return graph.RMAT(scale, ef, graph.TwitterLike(), req.Seed) }
	case "uniform":
		n, m := req.Nodes, req.Edges
		if n == 0 {
			n = 1 << 14
		}
		if m == 0 {
			m = n * 16
		}
		size = int64(max(n, m, 0))
		gen = func() (*graph.Graph, error) { return graph.Uniform(n, m, req.Seed) }
	case "grid":
		n := req.Nodes
		if n == 0 {
			n = 100
		}
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

// tenantCountersFor returns (creating if needed) tenant's counters.
func (s *Server) tenantCountersFor(tenant string) *tenantCounters {
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	tc := s.tenants[tenant]
	if tc == nil {
		tc = &tenantCounters{}
		s.tenants[tenant] = tc
	}
	return tc
}

// memCharge is what a run costs the admission memory gate: the client's
// declared need, or — only when a budget is actually configured — the
// store-sizing estimate of what an engine run on this graph pins resident
// with the algorithm's catalog column count. An unknown name (the run will
// fail with "unknown algorithm" once admitted) is charged a flat 3 columns.
func (s *Server) memCharge(inst *instance, req *Request) int64 {
	if req.MaxResidentMB > 0 || s.cfg.RunMemoryBudgetMB <= 0 {
		return req.MaxResidentMB
	}
	cols := 3
	if spec, ok := algorithms.Lookup(req.Algo); ok {
		cols = spec.Cols
	}
	g := inst.g
	return store.SizeOf(g.NumNodes(), g.NumEdges(), inst.machines, g.Weighted(), cols).EstimatedResidentMB()
}

// handleRun admits an analysis through the scheduler, executes it on a
// leased engine, and classifies the outcome. Admission charges a global
// slot only when the run can actually execute (idle engine on the target
// graph, tenant under quota), so a busy graph never starves requests for
// other graphs. A queued request always has an exit: its deadline, an
// op=cancel matching its tag, or server shutdown.
func (s *Server) handleRun(req *Request) Response {
	s.mu.Lock()
	inst, ok := s.instances[req.Graph]
	s.mu.Unlock()
	if !ok {
		return errResp("graph %q not loaded", req.Graph)
	}
	tenant := tenantOf(req)
	tc := s.tenantCountersFor(tenant)
	prio := req.Priority
	if prio > maxPriority {
		prio = maxPriority
	}
	if prio < -maxPriority {
		prio = -maxPriority
	}
	t := &ticket{
		tenant:   tenant,
		tag:      req.Tag,
		priority: prio,
		enqueued: time.Now(),
		inst:     inst,
		memMB:    s.memCharge(inst, req),
		result:   make(chan admitResult, 1),
	}
	var deadline <-chan time.Time
	var deadlineTimer *time.Timer
	if req.TimeoutMillis > 0 {
		deadlineTimer = time.NewTimer(time.Duration(req.TimeoutMillis) * time.Millisecond)
		defer deadlineTimer.Stop()
		deadline = deadlineTimer.C
	}
	jobID := s.sched.enqueue(t)

	fail := func(format string, args ...any) Response {
		s.failedRuns.Add(1)
		tc.failed.Add(1)
		return errResp(format, args...)
	}

	var admitted admitResult
	select {
	case admitted = <-t.result:
	case <-deadline:
		if s.sched.remove(t) {
			s.deadlineExceeded.Add(1)
			return fail("run on %s: deadline exceeded after %dms in queue",
				req.Graph, req.TimeoutMillis)
		}
		// Admitted concurrently with expiry: take the lease and let the
		// armed deadline below cancel the run almost immediately.
		admitted = <-t.result
	case <-s.doneCh:
		if !s.sched.remove(t) {
			// Admitted concurrently with shutdown: hand the lease back.
			if got := <-t.result; got.eng != nil {
				s.sched.release(t)
			}
		}
		return fail("run on %s: %v", req.Graph, errShutdown)
	}
	if admitted.err != nil {
		if errors.Is(admitted.err, errRunCanceled) {
			s.canceledRuns.Add(1)
		}
		return fail("run on %s: %v", req.Graph, admitted.err)
	}

	eng := admitted.eng
	// Clear stickiness a late-firing deadline timer from a previous lease
	// may have left on this engine.
	eng.cluster.Uncancel()
	queueWait := time.Since(t.enqueued)
	s.reg.Observe(0, obs.HistQueueWait, queueWait)
	s.active.Add(1)
	defer func() {
		s.active.Add(-1)
		// Clear any sticky cancel so the next lease of this engine starts
		// clean, then return it to the pool.
		eng.cluster.Uncancel()
		s.sched.release(t)
	}()

	// Arm the remaining deadline against the engine: expiry fires the
	// core cancellation latch, aborting the job in flight — not the server.
	var deadlineHit atomic.Bool
	if req.TimeoutMillis > 0 {
		remaining := time.Duration(req.TimeoutMillis)*time.Millisecond - queueWait
		if remaining < 0 {
			remaining = 0
		}
		timer := time.AfterFunc(remaining, func() {
			deadlineHit.Store(true)
			eng.cluster.Cancel(fmt.Errorf("deadline exceeded after %dms", req.TimeoutMillis))
		})
		defer timer.Stop()
	}
	if s.cfg.runHook != nil {
		s.cfg.runHook(req)
	}

	start := time.Now()
	result, err := runAlgo(inst, eng, req)
	runDur := time.Since(start)
	if err != nil {
		// Engine-level job aborts (transport faults, cancellation,
		// deadlines) surface here as error responses — the server and its
		// other engines stay up.
		switch {
		case deadlineHit.Load() || strings.Contains(err.Error(), "deadline exceeded"):
			s.deadlineExceeded.Add(1)
		case errors.Is(err, core.ErrJobCanceled):
			s.canceledRuns.Add(1)
		}
		return fail("%s on %s: %v", req.Algo, req.Graph, err)
	}
	s.reg.Observe(0, obs.HistRunLatency, runDur)
	result.Millis = float64(runDur.Microseconds()) / 1000
	result.JobID = jobID
	result.QueueMillis = float64(queueWait.Microseconds()) / 1000
	s.recordRunDuration(result.Millis)
	s.runsServed.Add(1)
	tc.served.Add(1)
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

// recordRunDuration appends one analysis duration to the percentile window.
func (s *Server) recordRunDuration(millis float64) {
	s.durMu.Lock()
	if len(s.durs) < runDurWindow {
		s.durs = append(s.durs, millis)
	} else {
		s.durs[s.durNext%runDurWindow] = millis
	}
	s.durNext++
	s.durMu.Unlock()
}

// nearestRank returns the q-quantile of sorted using the nearest-rank
// method: the smallest element such that at least q*n elements are <= it,
// i.e. index ceil(q*n)-1. (The previous int(q*n) truncation was biased one
// rank high: p50 of two samples returned the max.)
func nearestRank(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// runPercentiles returns the (p50, p90, p99) of the duration window, or
// zeros with no completed runs.
func (s *Server) runPercentiles() (p50, p90, p99 float64) {
	s.durMu.Lock()
	window := make([]float64, len(s.durs))
	copy(window, s.durs)
	s.durMu.Unlock()
	if len(window) == 0 {
		return 0, 0, 0
	}
	sort.Float64s(window)
	return nearestRank(window, 0.50), nearestRank(window, 0.90), nearestRank(window, 0.99)
}

// runAlgo runs the catalog entry req names on the leased engine.
func runAlgo(inst *instance, eng *engine, req *Request) (*RunResult, error) {
	spec, ok := algorithms.Lookup(req.Algo)
	if !ok {
		return nil, fmt.Errorf("unknown algorithm %q", req.Algo)
	}
	g := inst.g
	if spec.Weighted && !g.Weighted() {
		return nil, fmt.Errorf("graph is unweighted")
	}
	p := algorithms.Params{Iterations: req.Iterations, Damping: req.Damping, Threshold: req.Threshold, Source: req.Source, Graph: g}
	if p.Iterations <= 0 {
		p.Iterations = 10
	}
	if p.Damping == 0 {
		p.Damping = 0.85
	}
	if p.Threshold == 0 {
		p.Threshold = 1e-7
	}
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
// error, in-flight analyses finish (drop collects the whole pool), then
// every engine shuts down. The instance leaves s.instances under s.mu before
// its pool is collected, so no second drop can reach it: acquireAll has one
// caller per pool.
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
	inst.closed.Store(true)
	s.sched.dispatch() // flush queued tickets targeting the dropped graph
	engines, err := inst.pool.acquireAll(s.doneCh)
	if err != nil {
		// Shutdown race: Close owns the engines now and will stop them.
		return errResp("drop %s: %v", req.Graph, err)
	}
	for _, eng := range engines {
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
	poolSize := s.cfg.AnalysisPoolSize
	for _, inst := range s.instances {
		for _, eng := range inst.pool.all {
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
	loaded := len(s.instances)
	resident := s.resident
	s.mu.Unlock()
	p50, p90, p99 := s.runPercentiles()
	var queueP50, queueP99 float64
	if s.reg != nil {
		h := s.reg.LifetimeHistogram(obs.HistQueueWait)
		queueP50 = h.Quantile(0.50).Seconds() * 1000
		queueP99 = h.Quantile(0.99).Seconds() * 1000
	}
	memInUse, memDeferrals := s.sched.memStats()
	running, queued := s.sched.tenantLoad()
	s.tenantMu.Lock()
	tenants := make(map[string]*TenantStats, len(s.tenants))
	for name, tc := range s.tenants {
		tenants[name] = &TenantStats{
			Served:  tc.served.Load(),
			Failed:  tc.failed.Load(),
			Running: running[name],
			Queued:  queued[name],
		}
	}
	s.tenantMu.Unlock()
	return Response{OK: true, Stats: &ServerStats{
		LoadedGraphs:         loaded,
		ResidentEdges:        resident,
		MaxEdges:             s.cfg.MaxResidentEdges,
		RunsServed:           s.runsServed.Load(),
		FailedRuns:           s.failedRuns.Load(),
		ActiveAnalyses:       int(s.active.Load()),
		TransportErrors:      transportErrors,
		StaleWriteFrames:     staleWrites,
		StaleReadFrames:      staleReads,
		UptimeSeconds:        time.Since(s.start).Seconds(),
		RunP50Millis:         p50,
		RunP90Millis:         p90,
		RunP99Millis:         p99,
		JobsObserved:         jobs,
		AbortsSeen:           aborts,
		QueuedAnalyses:       s.sched.queueLen(),
		EnginePoolSize:       poolSize,
		BudgetDeferrals:      memDeferrals,
		MemInUseMB:           memInUse,
		DeadlineExceededRuns: s.deadlineExceeded.Load(),
		CanceledRuns:         s.canceledRuns.Load(),
		QueueP50Millis:       queueP50,
		QueueP99Millis:       queueP99,
		Tenants:              tenants,
		LastAbort:            lastAbort,
	}}
}
