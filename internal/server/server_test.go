package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
)

func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func dial(t *testing.T, s *Server) *Client {
	t.Helper()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestGenerateRunDrop(t *testing.T) {
	s := startServer(t, DefaultServerConfig())
	c := dial(t, s)

	info, err := c.Generate(Request{Graph: "twt", Kind: "rmat", Scale: 10, EdgeFactor: 8, Seed: 7, Machines: 2})
	if err != nil {
		t.Fatal(err)
	}
	if info.Nodes != 1024 || info.Edges != 8192 || info.Machines != 2 {
		t.Fatalf("info = %+v", info)
	}

	res, err := c.Run(Request{Graph: "twt", Algo: "pagerank", Iterations: 5, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 5 || len(res.TopVertices) != 3 || res.Millis <= 0 {
		t.Fatalf("result = %+v", res)
	}
	// PageRank top vertices are sorted descending.
	if res.TopVertices[0].Value < res.TopVertices[1].Value {
		t.Error("top vertices not sorted")
	}

	res, err = c.Run(Request{Graph: "twt", Algo: "wcc"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Extra == "" {
		t.Error("wcc result missing component count")
	}

	list, err := c.List()
	if err != nil || len(list) != 1 || list[0].Name != "twt" {
		t.Fatalf("list = %v (%v)", list, err)
	}
	if err := c.Drop("twt"); err != nil {
		t.Fatal(err)
	}
	list, err = c.List()
	if err != nil || len(list) != 0 {
		t.Fatalf("list after drop = %v (%v)", list, err)
	}
}

func TestLoadFromFile(t *testing.T) {
	g, err := graph.RMAT(9, 6, graph.TwitterLike(), 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	binPath := filepath.Join(dir, "g.bin")
	f, err := os.Create(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteBinary(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s := startServer(t, DefaultServerConfig())
	c := dial(t, s)
	info, err := c.Load("disk", binPath, 2)
	if err != nil {
		t.Fatal(err)
	}
	if info.Nodes != g.NumNodes() || info.Edges != g.NumEdges() {
		t.Fatalf("info = %+v", info)
	}
	if _, err := c.Load("missing", filepath.Join(dir, "nope.bin"), 2); err == nil {
		t.Error("loading missing file succeeded")
	}
}

func TestWeightedGenerationAndSSSP(t *testing.T) {
	s := startServer(t, DefaultServerConfig())
	c := dial(t, s)
	info, err := c.Generate(Request{Graph: "w", Kind: "uniform", Nodes: 500, Edges: 4000, Seed: 2, WeightLo: 1, WeightHi: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Weighted {
		t.Fatal("weights not attached")
	}
	res, err := c.Run(Request{Graph: "w", Algo: "sssp", Source: 0, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	// SSSP top vertices sort ascending; the source itself is distance 0.
	if res.TopVertices[0].Node != 0 || res.TopVertices[0].Value != 0 {
		t.Errorf("nearest vertex = %+v", res.TopVertices[0])
	}
	// SSSP on an unweighted graph must fail cleanly.
	if _, err := c.Generate(Request{Graph: "uw", Kind: "uniform", Nodes: 100, Edges: 500}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(Request{Graph: "uw", Algo: "sssp"}); err == nil {
		t.Error("sssp on unweighted graph succeeded")
	}
}

func TestAdmissionControl(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.MaxResidentEdges = 10000
	s := startServer(t, cfg)
	c := dial(t, s)
	if _, err := c.Generate(Request{Graph: "a", Kind: "uniform", Nodes: 500, Edges: 8000}); err != nil {
		t.Fatal(err)
	}
	// Second graph would exceed the budget.
	if _, err := c.Generate(Request{Graph: "b", Kind: "uniform", Nodes: 500, Edges: 8000}); err == nil {
		t.Fatal("budget exceeded but load admitted")
	}
	// Dropping frees budget.
	if err := c.Drop("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Generate(Request{Graph: "b", Kind: "uniform", Nodes: 500, Edges: 8000}); err != nil {
		t.Fatalf("load after drop rejected: %v", err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.LoadedGraphs != 1 || st.ResidentEdges != 8000 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDuplicateNameRejected(t *testing.T) {
	s := startServer(t, DefaultServerConfig())
	c := dial(t, s)
	if _, err := c.Generate(Request{Graph: "x", Kind: "uniform", Nodes: 100, Edges: 400}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Generate(Request{Graph: "x", Kind: "uniform", Nodes: 100, Edges: 400}); err == nil {
		t.Error("duplicate name admitted")
	}
}

func TestErrorPaths(t *testing.T) {
	s := startServer(t, DefaultServerConfig())
	c := dial(t, s)
	cases := []Request{
		{Op: "nonsense"},
		{Op: "run", Graph: "missing", Algo: "pagerank"},
		{Op: "drop", Graph: "missing"},
		{Op: "load"},
		{Op: "generate"},
		{Op: "generate", Graph: "g", Kind: "alien"},
	}
	for _, req := range cases {
		resp, err := c.Do(req)
		if err != nil {
			t.Fatalf("transport error for %+v: %v", req, err)
		}
		if resp.OK {
			t.Errorf("request %+v unexpectedly succeeded", req)
		}
	}
	// Unknown algorithm.
	if _, err := c.Generate(Request{Graph: "g", Kind: "uniform", Nodes: 100, Edges: 400}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(Request{Graph: "g", Algo: "quantum"}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

// TestBadArgumentsAreErrors sends requests whose arguments used to panic in
// the connection goroutine, and so kill the process: a negative edge count
// and a source outside the graph. Each must come back as an error response
// on the same connection, which then still answers.
func TestBadArgumentsAreErrors(t *testing.T) {
	s := startServer(t, DefaultServerConfig())
	c := dial(t, s)
	if _, err := c.Generate(Request{Graph: "neg", Kind: "uniform", Edges: -1}); err == nil {
		t.Error("generate with edges -1 succeeded")
	}
	if _, err := c.Generate(Request{Graph: "g", Kind: "rmat", Scale: 6, EdgeFactor: 4, Machines: 2, WeightLo: 1, WeightHi: 5}); err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"hopdist", "sssp", "ppr"} {
		_, err := c.Run(Request{Graph: "g", Algo: algo, Source: 1 << 20})
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("%s from source 1<<20 on a 64-node graph: err = %v, want out of range", algo, err)
		}
	}
	list, err := c.List()
	if err != nil || len(list) != 1 || list[0].Name != "g" {
		t.Fatalf("list = %v (%v)", list, err)
	}
}

// TestOverBudgetGenerateIsAnError: a generate whose graph the resident-edge
// budget has no room for is refused before it is built — a scale-30 RMAT is
// 16 G edges, and building it killed the process with an out-of-memory
// crash — and so is a grid or uniform graph too large for the budget by its
// edges or by its nodes; the connection then still answers.
func TestOverBudgetGenerateIsAnError(t *testing.T) {
	s := startServer(t, DefaultServerConfig())
	c := dial(t, s)
	for _, req := range []Request{
		{Graph: "huge", Kind: "rmat", Scale: 30},
		{Graph: "huge", Kind: "grid", Nodes: 1 << 16},
		{Graph: "huge", Kind: "uniform", Nodes: 1 << 20, Edges: 1 << 40},
		{Graph: "huge", Kind: "uniform", Nodes: 1 << 32, Edges: 1},
	} {
		if _, err := c.Generate(req); err == nil || !strings.Contains(err.Error(), "budget exceeded") {
			t.Errorf("generate %+v: err = %v, want the resident edge budget's refusal", req, err)
		}
	}
	list, err := c.List()
	if err != nil || len(list) != 0 {
		t.Fatalf("list = %v (%v)", list, err)
	}
}

// TestAdmitRefusesBeforeBooting: a duplicate name and an over-budget graph are
// refused before admit boots an engine — a cluster size no engine can boot
// would otherwise answer instead — and of two concurrent admits of one name
// exactly one is admitted.
func TestAdmitRefusesBeforeBooting(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.MaxResidentEdges = 1000
	s := startServer(t, cfg)
	c := dial(t, s)
	if _, err := c.Generate(Request{Graph: "a", Kind: "uniform", Nodes: 100, Edges: 400, Machines: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Generate(Request{Graph: "a", Kind: "uniform", Nodes: 100, Edges: 400, Machines: 40000}); err == nil ||
		!strings.Contains(err.Error(), `graph "a" already loaded`) {
		t.Errorf("duplicate generate: err = %v, want already loaded", err)
	}
	g, err := graph.Uniform(200, 800, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteEdgeList(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := c.Load("big", path, 40000); err == nil || !strings.Contains(err.Error(), "budget exceeded") {
		t.Errorf("over-budget load: err = %v, want the resident edge budget's refusal", err)
	}

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, cl := range []*Client{dial(t, s), dial(t, s)} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = cl.Generate(Request{Graph: "b", Kind: "uniform", Nodes: 100, Edges: 200, Seed: int64(i), Machines: 2})
		}()
	}
	wg.Wait()
	if (errs[0] == nil) == (errs[1] == nil) {
		t.Fatalf("two admits of one name: errors %v and %v, want exactly one admitted", errs[0], errs[1])
	}
	for _, err := range errs {
		if err != nil && !strings.Contains(err.Error(), `graph "b" already loaded`) {
			t.Errorf("the refused admit: %v", err)
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.LoadedGraphs != 2 || st.ResidentEdges != 600 {
		t.Errorf("stats after the admits: %d graphs, %d resident edges; want 2 and 600", st.LoadedGraphs, st.ResidentEdges)
	}
}

// TestConcurrentClients is the multi-tenancy scenario from the paper's
// outlook: several clients, several graphs, interleaved analyses.
func TestConcurrentClients(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.MaxConcurrentAnalyses = 2
	s := startServer(t, cfg)

	setup := dial(t, s)
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("g%d", i)
		if _, err := setup.Generate(Request{Graph: name, Kind: "rmat", Scale: 9, EdgeFactor: 6, Seed: int64(i), Machines: 2}); err != nil {
			t.Fatal(err)
		}
	}

	const clients = 4
	const runsPerClient = 5
	var wg sync.WaitGroup
	errs := make(chan error, clients*runsPerClient)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			c, err := Dial(s.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			algos := []string{"pagerank", "wcc", "hopdist", "pagerank-approx", "eigenvector"}
			for r := 0; r < runsPerClient; r++ {
				graphName := fmt.Sprintf("g%d", (cl+r)%3)
				if _, err := c.Run(Request{Graph: graphName, Algo: algos[r%len(algos)], Iterations: 3}); err != nil {
					errs <- fmt.Errorf("client %d run %d: %w", cl, r, err)
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st, err := setup.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.RunsServed != clients*runsPerClient {
		t.Errorf("runs served = %d, want %d", st.RunsServed, clients*runsPerClient)
	}
	if st.ActiveAnalyses != 0 {
		t.Errorf("active analyses = %d after quiesce", st.ActiveAnalyses)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	s := startServer(t, DefaultServerConfig())
	c := dial(t, s)
	if _, err := c.Generate(Request{Graph: "g", Kind: "uniform", Nodes: 50, Edges: 100}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close()
	// Requests after close fail at the transport level.
	if _, err := c.Do(Request{Op: "list"}); err == nil {
		t.Error("request after close succeeded")
	}
}

func TestExtensionAlgorithmsOverProtocol(t *testing.T) {
	s := startServer(t, DefaultServerConfig())
	c := dial(t, s)
	if _, err := c.Generate(Request{Graph: "g", Kind: "rmat", Scale: 9, EdgeFactor: 8, Seed: 1, Machines: 2}); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(Request{Graph: "g", Algo: "triangles"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Extra == "" {
		t.Error("triangles result missing count")
	}
	res, err = c.Run(Request{Graph: "g", Algo: "ppr", Source: 0, Iterations: 5, TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TopVertices) == 0 {
		t.Error("ppr returned no top vertices")
	}
}

func TestStatsObservability(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.DebugAddr = "127.0.0.1:0"
	s := startServer(t, cfg)
	if s.DebugAddr() == "" {
		t.Fatal("debug listener did not start")
	}
	c := dial(t, s)

	if _, err := c.Generate(Request{Graph: "twt", Kind: "rmat", Scale: 10, EdgeFactor: 8, Seed: 7, Machines: 2}); err != nil {
		t.Fatal(err)
	}
	const runs = 3
	for i := 0; i < runs; i++ {
		if _, err := c.Run(Request{Graph: "twt", Algo: "pagerank", Iterations: 3}); err != nil {
			t.Fatal(err)
		}
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.UptimeSeconds <= 0 {
		t.Errorf("UptimeSeconds = %v, want > 0", st.UptimeSeconds)
	}
	if st.RunsServed != runs {
		t.Errorf("RunsServed = %d, want %d", st.RunsServed, runs)
	}
	if st.RunP50Millis <= 0 || st.RunP99Millis < st.RunP50Millis {
		t.Errorf("percentiles p50=%v p99=%v", st.RunP50Millis, st.RunP99Millis)
	}
	// Each pagerank run is several engine jobs (one per superstep).
	if st.JobsObserved < int64(runs)*3 {
		t.Errorf("JobsObserved = %d, want >= %d", st.JobsObserved, runs*3)
	}
	if st.AbortsSeen != 0 || st.LastAbort != nil {
		t.Errorf("unexpected abort accounting: aborts=%d last=%+v", st.AbortsSeen, st.LastAbort)
	}

	// The debug HTTP surface serves registry metrics for the loaded graph.
	resp, err := http.Get("http://" + s.DebugAddr() + "/debug/metrics?graph=twt")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/debug/metrics = %d, want 200", resp.StatusCode)
	}
	var payload struct {
		Jobs     int64            `json:"jobs"`
		Lifetime map[string]int64 `json:"lifetime"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if payload.Jobs < int64(runs)*3 {
		t.Errorf("debug payload jobs = %d, want >= %d", payload.Jobs, runs*3)
	}

	// With one graph loaded the ?graph= selector is optional.
	resp2, err := http.Get("http://" + s.DebugAddr() + "/debug/server")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 200 {
		t.Fatalf("/debug/server = %d, want 200", resp2.StatusCode)
	}
}

func TestStatsDisabledObservability(t *testing.T) {
	cfg := DefaultServerConfig()
	cfg.DisableObservability = true
	s := startServer(t, cfg)
	c := dial(t, s)
	if _, err := c.Generate(Request{Graph: "g", Kind: "rmat", Scale: 9, EdgeFactor: 4, Seed: 3, Machines: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(Request{Graph: "g", Algo: "pagerank", Iterations: 2}); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.JobsObserved != 0 {
		t.Errorf("JobsObserved = %d with observability disabled, want 0", st.JobsObserved)
	}
	if st.RunsServed != 1 || st.RunP50Millis <= 0 {
		t.Errorf("duration accounting must not depend on registries: %+v", st)
	}
}
