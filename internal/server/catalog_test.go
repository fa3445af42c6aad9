package server

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/algorithms"
	"repro/internal/baseline/sa"
	"repro/internal/core"
	"repro/internal/graph"
)

// TestCatalogParity: every catalog entry, run through the server's request
// path, reports what the standalone reference computes — per-vertex values
// exact for the integer and Min kernels, 1e-12 for the PageRank family, and
// the summary line where there is one. The references are keyed by name here
// on purpose: a catalog entry nobody wrote a reference for fails the test.
func TestCatalogParity(t *testing.T) {
	s := startServer(t, DefaultServerConfig())
	resp := s.handle(&Request{Op: "generate", Graph: "g", Kind: "rmat", Scale: 9, EdgeFactor: 8,
		Seed: 11, WeightLo: 1, WeightHi: 9, Machines: 3})
	if !resp.OK {
		t.Fatal(resp.Error)
	}
	g := s.instances["g"].g
	const (
		iters   = 6
		damping = 0.85
		source  = graph.NodeID(3)
	)
	f64 := func(v []float64) []float64 { return v }
	i64 := func(v []int64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = float64(x)
			if x == math.MaxInt64 {
				out[i] = math.Inf(1) // unreached: not reported
			}
		}
		return out
	}
	type reference struct {
		values []float64 // per node; ±Inf = not reported
		tol    float64
		extra  string
	}
	refs := map[string]func() reference{
		"pagerank":      func() reference { return reference{values: sa.PageRank(g, iters, damping, 1), tol: 1e-12} },
		"pagerank-push": func() reference { return reference{values: sa.PageRank(g, iters, damping, 1), tol: 1e-12} },
		"pagerank-approx": func() reference {
			pr, _ := sa.PageRankApprox(g, damping, 1e-7, 100000, 1)
			return reference{values: pr, tol: 1e-12}
		},
		"eigenvector": func() reference { return reference{values: sa.Eigenvector(g, iters, 1), tol: 1e-12} },
		"wcc": func() reference {
			labels, _ := sa.WCC(g, 1)
			comps := map[int64]bool{}
			for _, l := range labels {
				comps[l] = true
			}
			return reference{values: i64(labels), extra: fmt.Sprintf("%d components", len(comps))}
		},
		"sssp": func() reference {
			dist, _ := sa.SSSP(g, source, 1)
			return reference{values: f64(dist)}
		},
		"hopdist": func() reference {
			dist, _ := sa.HopDist(g, source, 1)
			return reference{values: i64(dist)}
		},
		"kcore": func() reference {
			best, cores, _ := sa.KCore(g, 1)
			return reference{values: i64(cores), extra: fmt.Sprintf("max core %d", best)}
		},
		"triangles": func() reference {
			return reference{extra: fmt.Sprintf("%d transitive triads", algorithms.TriangleCountReference(g))}
		},
		"ppr": func() reference {
			return reference{values: algorithms.PersonalizedPageRankReference(g, []graph.NodeID{source}, iters, damping), tol: 1e-12}
		},
	}
	for _, spec := range algorithms.Catalog() {
		t.Run(spec.Name, func(t *testing.T) {
			ref, ok := refs[spec.Name]
			if !ok {
				t.Fatalf("catalog entry %q has no reference in this test", spec.Name)
			}
			want := ref()
			resp := s.handle(&Request{Op: "run", Graph: "g", Algo: spec.Name, Iterations: iters,
				Damping: damping, Source: source, TopK: g.NumNodes()})
			if !resp.OK {
				t.Fatal(resp.Error)
			}
			if resp.Result.Extra != want.extra {
				t.Errorf("extra = %q, want %q", resp.Result.Extra, want.extra)
			}
			reported := 0
			for _, v := range want.values {
				if !math.IsInf(v, 0) {
					reported++
				}
			}
			if len(resp.Result.TopVertices) != reported {
				t.Fatalf("%d vertices reported, reference has %d finite values", len(resp.Result.TopVertices), reported)
			}
			for i, tv := range resp.Result.TopVertices {
				if d := math.Abs(tv.Value - want.values[tv.Node]); d > want.tol {
					t.Fatalf("node %d = %g, reference %g (|diff| %g > %g)", tv.Node, tv.Value, want.values[tv.Node], d, want.tol)
				}
				if i > 0 {
					prev := resp.Result.TopVertices[i-1].Value
					if spec.Ascending && tv.Value < prev || !spec.Ascending && tv.Value > prev {
						t.Fatalf("top vertices out of order at %d: %g after %g", i, tv.Value, prev)
					}
				}
			}
		})
	}
	if resp := s.handle(&Request{Op: "run", Graph: "g", Algo: "nope"}); resp.OK || !strings.Contains(resp.Error, "unknown algorithm") {
		t.Errorf("unknown name answered %+v, want an unknown algorithm error", resp)
	}
}

// TestAdmissionChargesRegisteredColumns: the memory gate charges an
// undeclared run what it adds to its instance — the columns its algorithm
// registers, 8 bytes per word of a column (its owned words and its replica
// tails on every machine: core.Cluster.ColumnWords), in MiB rounded up — not
// the shared graph or the engines' local stores, which admit pinned when the
// instance booted. Two concurrent hopdist runs, one column each, fit a budget
// of two columns, so neither may be deferred; pagerank's three columns do not
// fit beside a held hopdist.
func TestAdmissionChargesRegisteredColumns(t *testing.T) {
	const n = 100000
	req := Request{Graph: "g", Kind: "uniform", Nodes: n, Edges: n, Seed: 5, Machines: 2}
	es, err := streamOf(&req)
	if err != nil {
		t.Fatal(err)
	}
	g, err := es.Graph()
	if err != nil {
		t.Fatal(err)
	}
	probe, err := core.NewCluster(core.DefaultConfig(req.Machines))
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.Load(g); err != nil {
		t.Fatal(err)
	}
	words := probe.ColumnWords()
	probe.Shutdown()
	if words <= n {
		t.Fatalf("a column is %d words on %d nodes at p = 2: no replica tail to charge", words, n)
	}
	oneCol := (8*words + 1<<20 - 1) >> 20
	for name, cols := range map[string]int{"hopdist": 1, "pagerank": 3} {
		if spec, _ := algorithms.Lookup(name); spec.Cols != cols {
			t.Fatalf("%s registers %d columns, this test assumes %d", name, spec.Cols, cols)
		}
	}
	gate := newHookGate()
	cfg := DefaultServerConfig()
	cfg.RunMemoryBudgetMB = 2 * oneCol // two hopdist runs, were each charged its one column
	cfg.runHook = gate.hook
	s := startServer(t, cfg)
	release := sync.OnceFunc(func() { close(gate.release) })
	t.Cleanup(release) // a failed check must not leave the held run blocking Close
	c := dial(t, s)
	if _, err := c.Generate(req); err != nil {
		t.Fatal(err)
	}
	held := dial(t, s)
	heldDone := make(chan error, 1)
	go func() {
		_, err := held.Run(Request{Graph: "g", Algo: "hopdist", Tag: "block"})
		heldDone <- err
	}()
	<-gate.entered
	waitLedger(t, s, "the held hopdist charged one column", func(st *ServerStats) bool { return st.MemInUseMB == oneCol })
	second := dial(t, s)
	secondDone := make(chan error, 1)
	go func() {
		_, err := second.Run(Request{Graph: "g", Algo: "hopdist"})
		secondDone <- err
	}()
	select {
	case err := <-secondDone:
		if err != nil {
			t.Fatalf("second hopdist beside the held one: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Error("second hopdist still queued behind the held one")
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.BudgetDeferrals != 0 {
		t.Errorf("BudgetDeferrals = %d, want 0: hopdist registers 1 column (%d MB), budget is %d MB", st.BudgetDeferrals, oneCol, cfg.RunMemoryBudgetMB)
	}
	prDone := make(chan error, 1)
	go func() {
		_, err := second.Run(Request{Graph: "g", Algo: "pagerank", Iterations: 1})
		prDone <- err
	}()
	waitLedger(t, s, "pagerank deferred beside the held hopdist", func(st *ServerStats) bool {
		return st.QueuedAnalyses == 1 && st.BudgetDeferrals == 1
	})
	release()
	if err := <-heldDone; err != nil {
		t.Fatalf("held hopdist: %v", err)
	}
	if err := <-prDone; err != nil {
		t.Fatalf("pagerank after the held hopdist: %v", err)
	}
}

// TestRefusedRunsAreNotEnqueued: a run of an unknown algorithm, or of a
// weighted one on an unweighted graph, is refused before it reaches the
// scheduler — no ticket, no job id, no tenant entry.
func TestRefusedRunsAreNotEnqueued(t *testing.T) {
	s := startServer(t, DefaultServerConfig())
	if resp := s.handle(&Request{Op: "generate", Graph: "g", Kind: "uniform", Nodes: 100, Edges: 400}); !resp.OK {
		t.Fatal(resp.Error)
	}
	for _, c := range []struct{ algo, want string }{
		{"nope", "unknown algorithm"},
		{"sssp", "unweighted"},
	} {
		resp := s.handle(&Request{Op: "run", Graph: "g", Algo: c.algo, Tenant: "refused"})
		if resp.OK || !strings.Contains(resp.Error, c.want) {
			t.Errorf("%s answered %+v, want a %q error", c.algo, resp, c.want)
		}
	}
	s.sched.mu.Lock()
	seq := s.sched.seq
	s.sched.mu.Unlock()
	if st := s.sched.stats(); seq != 0 || st.Tenants["refused"] != nil {
		t.Errorf("refused runs reached the scheduler: %d tickets, tenant %+v", seq, st.Tenants["refused"])
	}
}
