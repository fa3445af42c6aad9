package server

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNearestRankPercentiles pins the nearest-rank formula with golden
// values. The regression this guards: int(q*n) truncation returned the max
// of a 2-sample window for p50 (rank 1 of [0,1]) instead of the min.
func TestNearestRankPercentiles(t *testing.T) {
	cases := []struct {
		sorted []float64
		q      float64
		want   float64
	}{
		{[]float64{7}, 0.50, 7},
		{[]float64{7}, 0.99, 7},
		{[]float64{1, 2}, 0.50, 1}, // the old int(q*n) indexing returned 2
		{[]float64{1, 2}, 0.90, 2},
		{[]float64{1, 2, 3}, 0.50, 2},
		{[]float64{1, 2, 3, 4}, 0.50, 2},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.50, 5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.90, 9},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.99, 10},
		{nil, 0.50, 0},
	}
	for _, tc := range cases {
		if got := nearestRank(tc.sorted, tc.q); got != tc.want {
			t.Errorf("nearestRank(%v, %v) = %v, want %v", tc.sorted, tc.q, got, tc.want)
		}
	}
}

// hookGate wires Config.runHook so a run carrying Tag "block" parks after
// admission (engine held) until release is closed. entered signals each
// parked run.
type hookGate struct {
	entered chan struct{}
	release chan struct{}
}

func newHookGate() *hookGate {
	return &hookGate{
		entered: make(chan struct{}, 16),
		release: make(chan struct{}),
	}
}

func (h *hookGate) hook(req *Request) {
	if req.Tag == "block" {
		h.entered <- struct{}{}
		<-h.release
	}
}

// waitLedger returns once cond holds over the scheduler's ledger — a request
// reaching the queue is a count there, not a guess at how long to sleep — and
// fails the test after 10 s.
func waitLedger(t *testing.T, s *Server, what string, cond func(st *ServerStats) bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
		st := s.sched.stats()
		if cond(&st) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no %s after 10s: %+v", what, st)
		}
	}
}

// queued is a waitLedger condition: n requests await admission.
func queued(n int) func(*ServerStats) bool {
	return func(st *ServerStats) bool { return st.QueuedAnalyses == n }
}

// TestBusyGraphDoesNotStarveOthers is the admission regression test: with
// the old runSem a second request for a busy graph charged a global slot and
// then slept on the instance lock, starving every other graph. Now the slot
// is charged only when the run can execute, so graph "b" proceeds while two
// requests contend for graph "a"'s single engine.
func TestBusyGraphDoesNotStarveOthers(t *testing.T) {
	gate := newHookGate()
	cfg := DefaultServerConfig()
	cfg.MaxConcurrentAnalyses = 2 // old code: a1 + queued a2 consume both slots
	cfg.AnalysisPoolSize = 1      // one engine per graph forces same-graph queueing
	cfg.runHook = gate.hook
	s := startServer(t, cfg)
	c := dial(t, s)

	for _, name := range []string{"a", "b"} {
		if _, err := c.Generate(Request{Graph: name, Kind: "rmat", Scale: 9, EdgeFactor: 4, Seed: 3, Machines: 2}); err != nil {
			t.Fatal(err)
		}
	}

	// a1 holds graph a's only engine inside the hook.
	a1 := dial(t, s)
	a1Done := make(chan error, 1)
	go func() {
		_, err := a1.Run(Request{Graph: "a", Algo: "pagerank", Iterations: 2, Tag: "block"})
		a1Done <- err
	}()
	<-gate.entered

	// a2 queues behind a1 (same graph, no idle engine).
	a2 := dial(t, s)
	a2Done := make(chan error, 1)
	go func() {
		_, err := a2.Run(Request{Graph: "a", Algo: "pagerank", Iterations: 2})
		a2Done <- err
	}()
	waitLedger(t, s, "a2 queued", queued(1))

	// Graph b must run now, not after a1/a2 finish.
	bDone := make(chan error, 1)
	go func() {
		_, err := c.Run(Request{Graph: "b", Algo: "pagerank", Iterations: 2})
		bDone <- err
	}()
	select {
	case err := <-bDone:
		if err != nil {
			t.Fatalf("run on idle graph b: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run on graph b starved behind busy graph a")
	}

	close(gate.release)
	if err := <-a1Done; err != nil {
		t.Fatalf("a1: %v", err)
	}
	if err := <-a2Done; err != nil {
		t.Fatalf("a2: %v", err)
	}
}

// TestCloseUnblocksQueuedRun: Server.Close must not wedge behind a request
// waiting for admission; the queued run gets a clean shutdown error.
func TestCloseUnblocksQueuedRun(t *testing.T) {
	gate := newHookGate()
	cfg := DefaultServerConfig()
	cfg.MaxConcurrentAnalyses = 1
	cfg.AnalysisPoolSize = 1
	cfg.runHook = gate.hook
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := dial(t, s)
	if _, err := c.Generate(Request{Graph: "g", Kind: "rmat", Scale: 9, EdgeFactor: 4, Seed: 3, Machines: 2}); err != nil {
		t.Fatal(err)
	}

	// r1 holds the only engine inside the hook; r2 waits in the queue.
	r1 := dial(t, s)
	r1Done := make(chan error, 1)
	go func() {
		_, err := r1.Run(Request{Graph: "g", Algo: "pagerank", Iterations: 2, Tag: "block"})
		r1Done <- err
	}()
	<-gate.entered
	r2 := dial(t, s)
	r2Done := make(chan error, 1)
	go func() {
		_, err := r2.Run(Request{Graph: "g", Algo: "pagerank", Iterations: 2})
		r2Done <- err
	}()
	waitLedger(t, s, "r2 queued", queued(1))

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Close()
	}()

	// The queued r2 must resolve promptly even though r1 is still parked in
	// its hook (the old code left it waiting on the semaphore forever).
	select {
	case err := <-r2Done:
		if err == nil {
			t.Fatal("queued run succeeded during shutdown, want error")
		}
		if !strings.Contains(err.Error(), "shutting down") {
			t.Fatalf("queued run error = %v, want shutdown notice", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("queued run still blocked 10s into Close")
	}

	close(gate.release)
	<-r1Done // r1's job was canceled by shutdown; either error shape is fine
	wg.Wait()
}

// TestDeadlineCancelsRunningJob: a request deadline aborts the engine job
// through the cancellation latch — the server and the engine survive and
// serve the next run.
func TestDeadlineCancelsRunningJob(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.AnalysisPoolSize = 1
	s := startServer(t, cfg)
	c := dial(t, s)
	if _, err := c.Generate(Request{Graph: "g", Kind: "rmat", Scale: 10, EdgeFactor: 8, Seed: 3, Machines: 2}); err != nil {
		t.Fatal(err)
	}

	// 100k iterations cannot finish inside 150ms; the deadline must abort.
	start := time.Now()
	_, err := c.Run(Request{Graph: "g", Algo: "pagerank", Iterations: 100000, TimeoutMillis: 150})
	if err == nil {
		t.Fatal("run completed despite deadline")
	}
	if !strings.Contains(err.Error(), "deadline exceeded") {
		t.Fatalf("error = %v, want deadline notice", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("deadline abort took %v", elapsed)
	}

	// Same engine, next lease: a normal run succeeds (latch was cleared).
	if _, err := c.Run(Request{Graph: "g", Algo: "pagerank", Iterations: 3}); err != nil {
		t.Fatalf("run after deadline abort: %v", err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.DeadlineExceededRuns < 1 {
		t.Errorf("DeadlineExceededRuns = %d, want >= 1", st.DeadlineExceededRuns)
	}
	if st.RunsServed != 1 {
		t.Errorf("RunsServed = %d, want 1", st.RunsServed)
	}
}

// TestDeadlineExpiresInQueue: a request whose deadline passes while still
// queued is rejected without ever holding an engine.
func TestDeadlineExpiresInQueue(t *testing.T) {
	gate := newHookGate()
	cfg := DefaultServerConfig()
	cfg.MaxConcurrentAnalyses = 1
	cfg.AnalysisPoolSize = 1
	cfg.runHook = gate.hook
	s := startServer(t, cfg)
	c := dial(t, s)
	if _, err := c.Generate(Request{Graph: "g", Kind: "rmat", Scale: 9, EdgeFactor: 4, Seed: 3, Machines: 2}); err != nil {
		t.Fatal(err)
	}

	r1 := dial(t, s)
	r1Done := make(chan error, 1)
	go func() {
		_, err := r1.Run(Request{Graph: "g", Algo: "pagerank", Iterations: 2, Tag: "block"})
		r1Done <- err
	}()
	<-gate.entered

	_, err := c.Run(Request{Graph: "g", Algo: "pagerank", Iterations: 2, TimeoutMillis: 100})
	if err == nil || !strings.Contains(err.Error(), "deadline exceeded") {
		t.Fatalf("queued run error = %v, want queue-deadline notice", err)
	}

	close(gate.release)
	if err := <-r1Done; err != nil {
		t.Fatalf("r1: %v", err)
	}
}

// TestCancelByTag: op=cancel from a second connection aborts a running
// tagged analysis via the engine latch.
func TestCancelByTag(t *testing.T) {
	started := make(chan struct{}, 1)
	cfg := DefaultServerConfig()
	cfg.AnalysisPoolSize = 1
	cfg.runHook = func(req *Request) {
		if req.Tag == "longjob" {
			started <- struct{}{}
		}
	}
	s := startServer(t, cfg)
	c := dial(t, s)
	if _, err := c.Generate(Request{Graph: "g", Kind: "rmat", Scale: 10, EdgeFactor: 8, Seed: 3, Machines: 2}); err != nil {
		t.Fatal(err)
	}

	runDone := make(chan error, 1)
	r := dial(t, s)
	go func() {
		_, err := r.Run(Request{Graph: "g", Algo: "pagerank", Iterations: 100000, Tag: "longjob", Tenant: "acme"})
		runDone <- err
	}()
	<-started

	n, err := c.Cancel("longjob", "")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("cancel matched %d runs, want 1", n)
	}
	select {
	case err := <-runDone:
		if err == nil {
			t.Fatal("tagged run completed despite cancel")
		}
		if !strings.Contains(err.Error(), "canceled") {
			t.Fatalf("run error = %v, want cancel notice", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("tagged run did not stop within 10s of cancel")
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.CanceledRuns < 1 {
		t.Errorf("CanceledRuns = %d, want >= 1", st.CanceledRuns)
	}
}

// TestTenantQuota: one tenant at its quota queues its own work but cannot
// block other tenants, and the stats op reports the per-tenant breakdown.
func TestTenantQuota(t *testing.T) {
	gate := newHookGate()
	cfg := DefaultServerConfig()
	cfg.MaxConcurrentAnalyses = 4
	cfg.AnalysisPoolSize = 2
	cfg.TenantQuota = 1
	cfg.runHook = gate.hook
	s := startServer(t, cfg)
	c := dial(t, s)
	if _, err := c.Generate(Request{Graph: "g", Kind: "rmat", Scale: 9, EdgeFactor: 4, Seed: 3, Machines: 2}); err != nil {
		t.Fatal(err)
	}

	// acme's first run holds an engine; its second must queue on quota.
	r1 := dial(t, s)
	r1Done := make(chan error, 1)
	go func() {
		_, err := r1.Run(Request{Graph: "g", Algo: "pagerank", Iterations: 2, Tenant: "acme", Tag: "block"})
		r1Done <- err
	}()
	<-gate.entered
	r2 := dial(t, s)
	r2Done := make(chan error, 1)
	go func() {
		_, err := r2.Run(Request{Graph: "g", Algo: "pagerank", Iterations: 2, Tenant: "acme"})
		r2Done <- err
	}()
	waitLedger(t, s, "acme's second run queued", queued(1))

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	acme := st.Tenants["acme"]
	if acme == nil || acme.Running != 1 || acme.Queued != 1 {
		t.Fatalf("acme tenant stats = %+v, want running=1 queued=1", acme)
	}

	// Another tenant is not throttled by acme's quota.
	other := dial(t, s)
	otherDone := make(chan error, 1)
	go func() {
		_, err := other.Run(Request{Graph: "g", Algo: "pagerank", Iterations: 2, Tenant: "globex"})
		otherDone <- err
	}()
	select {
	case err := <-otherDone:
		if err != nil {
			t.Fatalf("globex run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("globex starved behind acme's quota")
	}

	close(gate.release)
	if err := <-r1Done; err != nil {
		t.Fatalf("acme r1: %v", err)
	}
	if err := <-r2Done; err != nil {
		t.Fatalf("acme r2: %v", err)
	}
}

// TestSameGraphConcurrency: with an engine pool of 2, two analyses on the
// same graph overlap — both are inside their hooks at once.
func TestSameGraphConcurrency(t *testing.T) {
	gate := newHookGate()
	cfg := DefaultServerConfig()
	cfg.MaxConcurrentAnalyses = 4
	cfg.AnalysisPoolSize = 2
	cfg.runHook = gate.hook
	s := startServer(t, cfg)
	c := dial(t, s)
	if _, err := c.Generate(Request{Graph: "g", Kind: "rmat", Scale: 9, EdgeFactor: 4, Seed: 3, Machines: 2}); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		cl := dial(t, s)
		go func() {
			_, err := cl.Run(Request{Graph: "g", Algo: "pagerank", Iterations: 2, Tag: "block"})
			done <- err
		}()
	}
	// Both runs must enter their hooks concurrently: each holds one of the
	// two pool engines.
	for i := 0; i < 2; i++ {
		select {
		case <-gate.entered:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d/2 same-graph runs admitted concurrently", i)
		}
	}
	close(gate.release)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}

// TestPriorityOrdersQueue: when capacity frees, the queued high-priority
// request is admitted before an earlier-arrived low-priority one.
func TestPriorityOrdersQueue(t *testing.T) {
	gate := newHookGate()
	var order []string
	var orderMu sync.Mutex
	cfg := DefaultServerConfig()
	cfg.MaxConcurrentAnalyses = 1
	cfg.AnalysisPoolSize = 1
	cfg.PriorityAging = time.Hour // isolate pure priority order
	cfg.runHook = func(req *Request) {
		if req.Tag == "block" {
			gate.entered <- struct{}{}
			<-gate.release
			return
		}
		orderMu.Lock()
		order = append(order, req.Tenant)
		orderMu.Unlock()
	}
	s := startServer(t, cfg)
	c := dial(t, s)
	if _, err := c.Generate(Request{Graph: "g", Kind: "rmat", Scale: 9, EdgeFactor: 4, Seed: 3, Machines: 2}); err != nil {
		t.Fatal(err)
	}

	blocker := dial(t, s)
	blockerDone := make(chan error, 1)
	go func() {
		_, err := blocker.Run(Request{Graph: "g", Algo: "pagerank", Iterations: 2, Tag: "block"})
		blockerDone <- err
	}()
	<-gate.entered

	// Low priority arrives first, high priority second.
	var wg sync.WaitGroup
	runAs := func(tenant string, prio int) {
		defer wg.Done()
		cl := dial(t, s)
		if _, err := cl.Run(Request{Graph: "g", Algo: "pagerank", Iterations: 2, Tenant: tenant, Priority: prio}); err != nil {
			t.Errorf("%s: %v", tenant, err)
		}
	}
	wg.Add(2)
	go runAs("low", -2)
	waitLedger(t, s, "low queued", queued(1))
	go runAs("high", 5)
	waitLedger(t, s, "high queued", queued(2))

	close(gate.release)
	if err := <-blockerDone; err != nil {
		t.Fatalf("blocker: %v", err)
	}
	wg.Wait()
	orderMu.Lock()
	defer orderMu.Unlock()
	if len(order) != 2 || order[0] != "high" || order[1] != "low" {
		t.Fatalf("admission order = %v, want [high low]", order)
	}
}

// TestMemoryBudgetGate: with RunMemoryBudgetMB set, a run whose declared
// resident need does not fit next to the running set queues (counted as a
// budget deferral) while a smaller run sails past it — the memory gate
// skips, never blocks the queue — and admits once the big run releases.
func TestMemoryBudgetGate(t *testing.T) {
	gate := newHookGate()
	cfg := DefaultServerConfig()
	cfg.MaxConcurrentAnalyses = 4
	cfg.AnalysisPoolSize = 3 // engines are plentiful; only memory gates
	cfg.RunMemoryBudgetMB = 100
	cfg.runHook = gate.hook
	s := startServer(t, cfg)
	c := dial(t, s)
	if _, err := c.Generate(Request{Graph: "g", Kind: "rmat", Scale: 9, EdgeFactor: 4, Seed: 3, Machines: 2}); err != nil {
		t.Fatal(err)
	}

	// big1 (80 MB declared) holds an engine inside the hook.
	big1 := dial(t, s)
	big1Done := make(chan error, 1)
	go func() {
		_, err := big1.Run(Request{Graph: "g", Algo: "pagerank", Iterations: 2, Tag: "block", MaxResidentMB: 80})
		big1Done <- err
	}()
	<-gate.entered

	// big2 (80 MB) must queue: 80+80 > 100 even with engines idle.
	big2 := dial(t, s)
	big2Done := make(chan error, 1)
	go func() {
		_, err := big2.Run(Request{Graph: "g", Algo: "pagerank", Iterations: 2, MaxResidentMB: 80})
		big2Done <- err
	}()
	waitLedger(t, s, "big2 queued on the memory gate", func(st *ServerStats) bool {
		return st.QueuedAnalyses == 1 && st.BudgetDeferrals == 1
	})

	// small (10 MB) fits beside big1 and must not wait behind big2.
	smallDone := make(chan error, 1)
	go func() {
		_, err := c.Run(Request{Graph: "g", Algo: "pagerank", Iterations: 2, MaxResidentMB: 10})
		smallDone <- err
	}()
	select {
	case err := <-smallDone:
		if err != nil {
			t.Fatalf("small run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("small run starved behind the memory-deferred big run")
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.BudgetDeferrals < 1 {
		t.Fatalf("BudgetDeferrals = %d, want >= 1", st.BudgetDeferrals)
	}
	if st.MemInUseMB != 80 {
		t.Fatalf("MemInUseMB = %d, want 80 (big1 only)", st.MemInUseMB)
	}

	close(gate.release)
	if err := <-big1Done; err != nil {
		t.Fatalf("big1: %v", err)
	}
	if err := <-big2Done; err != nil {
		t.Fatalf("big2 after release: %v", err)
	}
}

// TestDropWaitsForLease: a drop issued while a run holds the graph's only
// engine fails the run queued behind it at once, but returns only after the
// running one releases its lease.
func TestDropWaitsForLease(t *testing.T) {
	gate := newHookGate()
	cfg := DefaultServerConfig()
	cfg.AnalysisPoolSize = 1
	cfg.runHook = gate.hook
	s := startServer(t, cfg)
	c := dial(t, s)
	if _, err := c.Generate(Request{Graph: "g", Kind: "rmat", Scale: 9, EdgeFactor: 4, Seed: 3, Machines: 2}); err != nil {
		t.Fatal(err)
	}

	r1 := dial(t, s)
	r1Done := make(chan error, 1)
	go func() {
		_, err := r1.Run(Request{Graph: "g", Algo: "pagerank", Iterations: 2, Tag: "block"})
		r1Done <- err
	}()
	<-gate.entered
	r2 := dial(t, s)
	r2Done := make(chan error, 1)
	go func() {
		_, err := r2.Run(Request{Graph: "g", Algo: "pagerank", Iterations: 2})
		r2Done <- err
	}()
	waitLedger(t, s, "r2 queued", queued(1))

	dropDone := make(chan error, 1)
	go func() { dropDone <- c.Drop("g") }()
	if err := <-r2Done; err == nil || !strings.Contains(err.Error(), "dropped while queued") {
		t.Fatalf("queued run error = %v, want dropped while queued", err)
	}
	// r2 failed inside the drop, so the drop has reached the scheduler; r1
	// still holds the engine in its hook.
	select {
	case err := <-dropDone:
		t.Fatalf("drop returned (err=%v) while r1 held the engine", err)
	default:
	}

	close(gate.release)
	if err := <-r1Done; err != nil {
		t.Fatalf("r1: %v", err)
	}
	if err := <-dropDone; err != nil {
		t.Fatalf("drop: %v", err)
	}
	if list, err := c.List(); err != nil || len(list) != 0 {
		t.Fatalf("list after drop = %v (%v)", list, err)
	}
}

// TestDropDuringCloseShutsEngines: a drop waiting on a lease when Close
// begins still shuts the dropped graph's engines down — Close cancels the
// lease, the drop gets it back — so no goroutine outlives the server.
func TestDropDuringCloseShutsEngines(t *testing.T) {
	before := runtime.NumGoroutine()
	gate := newHookGate()
	cfg := DefaultServerConfig()
	cfg.AnalysisPoolSize = 1
	cfg.runHook = gate.hook
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Generate(Request{Graph: "g", Kind: "rmat", Scale: 9, EdgeFactor: 4, Seed: 3, Machines: 2}); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	inst := s.instances["g"]
	s.mu.Unlock()

	r1, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	r1Done := make(chan error, 1)
	go func() {
		_, err := r1.Run(Request{Graph: "g", Algo: "pagerank", Iterations: 2, Tag: "block"})
		r1Done <- err
	}()
	<-gate.entered
	dropDone := make(chan error, 1)
	go func() { dropDone <- c.Drop("g") }()
	waitLedger(t, s, "the drop at the scheduler", func(*ServerStats) bool {
		s.sched.mu.Lock()
		defer s.sched.mu.Unlock()
		return inst.closed
	})

	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	close(gate.release)
	<-closed
	<-r1Done   // canceled by the shutdown; either error shape is fine
	<-dropDone // the drop's response may or may not beat the conn's close
	c.Close()
	r1.Close()
	// A goroutine that has sent its last signal may not have returned yet, so
	// the count gets until the deadline to come back; a leaked engine never
	// does.
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after Close, %d before New:\n%s", runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
	}
}
