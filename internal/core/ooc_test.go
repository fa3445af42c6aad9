package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/reduce"
	"repro/internal/store"
)

// storePath writes g as a raw store file partitioned for p machines.
func storePath(t testing.TB, g *graph.Graph, p int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "graph.csr2")
	if err := store.WriteGraph(path, g, p); err != nil {
		t.Fatal(err)
	}
	return path
}

// storePath3 writes g as a compressed store file.
func storePath3(t testing.TB, g *graph.Graph, p int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "graph.csr3")
	if err := store.WriteGraphCompressed(path, g, p); err != nil {
		t.Fatal(err)
	}
	return path
}

// bootStore boots a cluster over the mmap'd store file. The file must outlive
// the machines (sections alias the mapping), so Close is sequenced after
// Shutdown in the same cleanup.
func bootStore(t testing.TB, path string, cfg Config) *Cluster {
	t.Helper()
	sf, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(cfg)
	if err != nil {
		sf.Close() //nolint:errcheck
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Shutdown()
		sf.Close() //nolint:errcheck
	})
	if err := c.LoadStore(sf); err != nil {
		t.Fatal(err)
	}
	return c
}

// spillFiles lists leftover spill temp files in dir.
func spillFiles(t testing.TB, dir string) []string {
	t.Helper()
	left, err := filepath.Glob(filepath.Join(dir, "pgxd-spill-*"))
	if err != nil {
		t.Fatal(err)
	}
	return left
}

// runPushOne executes the in-degree push job and returns the gathered result.
func runPushOne(t *testing.T, c *Cluster, counter PropID) []int64 {
	t.Helper()
	c.FillI64(counter, 0)
	if _, err := c.RunJob(JobSpec{
		Name:       "ooc-push",
		Iter:       IterOutEdges,
		Task:       &pushOneTask{counter: counter},
		WriteProps: []WriteSpec{{Prop: counter, Op: reduce.Sum}},
	}); err != nil {
		t.Fatal(err)
	}
	return c.GatherI64(counter)
}

// TestStoreSectionsMatchLocalStore: what a store load hands the engine — rows,
// refs (compressed ones read row by row through a cursor) and weights, per
// machine and orientation — must equal packedViews, the packed rows of the
// in-memory graph, in both encodings and at every machine count, once every
// replica ref is mapped back through the section's addr table to the packed
// address it names. This is the reference for the file format that does not
// go through the store's own writer or reader assumptions.
func TestStoreSectionsMatchLocalStore(t *testing.T) {
	rmat, err := graph.RMAT(12, 8, graph.TwitterLike(), 11)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := graph.Grid(40, 40, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*graph.Graph{"rmat12": rmat.WithUniformWeights(0.5, 2, 7), "grid40": grid} {
		for p := 1; p <= 3; p++ {
			layout, err := partition.Compute(g, p, partition.EdgeBalanced)
			if err != nil {
				t.Fatal(err)
			}
			for format, path := range map[string]string{"csr2": storePath(t, g, p), "csr3": storePath3(t, g, p)} {
				sf, err := store.Open(path)
				if err != nil {
					t.Fatal(err)
				}
				ld, err := sf.NewLoad(0, -1)
				if err != nil {
					t.Fatal(err)
				}
				for me := 0; me < p; me++ {
					want, numLocal := packedViews(g, layout, me), layout.NumLocal(me)
					sec := sf.Section(me)
					got := [2]orientView{
						{rows: sec.OutRows, refs: sec.OutRefs, weights: sec.OutWeights},
						{rows: sec.InRows, refs: sec.InRefs, weights: sec.InWeights},
					}
					for orient, w := range want {
						ld.Claim(me, orient, 0, int64(numLocal))
						if ld.File().Compressed() {
							cur := ld.Cursor(me, orient)
							for u := 0; u < numLocal; u++ {
								row, err := cur.Row(int64(u))
								if err != nil {
									t.Fatal(err)
								}
								got[orient].refs = append(got[orient].refs, row...)
							}
							cur.Release()
						}
						got[orient].refs = slices.Clone(got[orient].refs)
						for i, ref := range got[orient].refs {
							if ref >= int64(numLocal) {
								got[orient].refs[i] = sec.Addr[ref-int64(numLocal)]
							}
						}
						if !slices.Equal(got[orient].rows, w.rows) || !slices.Equal(got[orient].refs, w.refs) ||
							!slices.Equal(got[orient].weights, w.weights) {
							t.Fatalf("%s %s p=%d machine %d orient %d: store section differs from packedViews", name, format, p, me, orient)
						}
					}
				}
				sf.Close() //nolint:errcheck
			}
		}
	}
}

// TestLoadStoreMatchesLoad: the same graph computed from an mmap'd CSR store
// file — raw and compressed — must be bit-identical to the in-memory
// load, over both fabrics. The store-backed clusters run with a deliberately
// tiny residency window and write spilling forced through the file path, and
// the compressed variant adds a tiny (64 KiB) decode cache, so the comparison
// covers the chunk advice loop, the pin/decode/evict cycle, and the
// spill/replay drain, not just the format decode.
func TestLoadStoreMatchesLoad(t *testing.T) {
	eachFabric(t, func(t *testing.T, useTCP bool) {
		g := testGraph(t)
		paths := map[string]string{
			"csr2": storePath(t, g, 3),
			"csr3": storePath3(t, g, 3),
		}
		spillDir := t.TempDir()

		run := func(format string) ([]int64, []float64) {
			cfg := faultCfg(3)
			cfg.Timeout = 0
			if useTCP {
				f, err := NewTCPFabric(cfg)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { f.Close() }) //nolint:errcheck
				cfg.Fabric = f
			}
			var c *Cluster
			if format != "" {
				cfg.ResidentBudgetBytes = 1 << 10 // the window and the backlog's bound: the backlog overflows to a file
				cfg.SpillWrites = true
				cfg.SpillDir = spillDir
				if format == "csr3" {
					cfg.DecodeCacheBytes = 64 << 10
				}
				c = bootStore(t, paths[format], cfg)
			} else {
				c = bootCluster(t, g, cfg)
			}
			counter, err := c.AddPropI64("counter")
			if err != nil {
				t.Fatal(err)
			}
			src, _ := c.AddPropF64("src")
			dst, _ := c.AddPropF64("dst")
			push := runPushOne(t, c, counter)
			if err := runPull(t, c, g, src, dst, true); err != nil {
				t.Fatal(err)
			}
			return push, c.GatherF64(dst)
		}

		memPush, memPull := run("")
		for _, format := range []string{"csr2", "csr3"} {
			stPush, stPull := run(format)
			for u := range memPush {
				if memPush[u] != stPush[u] {
					t.Fatalf("%s push node %d: in-memory %d, store %d", format, u, memPush[u], stPush[u])
				}
				if memPull[u] != stPull[u] {
					t.Fatalf("%s pull node %d: in-memory %v, store %v", format, u, memPull[u], stPull[u])
				}
			}
		}
		if left := spillFiles(t, spillDir); len(left) != 0 {
			t.Fatalf("spill files survived a clean drain: %v", left)
		}
	})
}

// TestCompressedStoreAbortReleasesPins: abort a job running from a compressed
// store mid-flight — every decode-cache pin a worker or copier held must be
// released through the abort unwind (PinnedBlocks drops to zero), no spill
// residue may survive, and the same cluster must then compute the exact
// reference, still through the tiny decode cache.
func TestCompressedStoreAbortReleasesPins(t *testing.T) {
	eachFabric(t, func(t *testing.T, useTCP bool) {
		g := testGraph(t)
		path := storePath3(t, g, 3)
		spillDir := t.TempDir()
		cfg := faultCfg(3)
		cfg.BufferSize = 1 << 10
		cfg.SpillWrites = true
		cfg.ResidentBudgetBytes = 256
		cfg.SpillDir = spillDir
		cfg.DecodeCacheBytes = 64 << 10
		inj := faultFabric(t, cfg, useTCP, comm.FaultPlan{Seed: 7, Rules: []comm.FaultRule{
			{Src: 1, Dst: 0, Type: int(comm.MsgWriteReq), Kind: comm.FaultFail, After: 0, Limit: 1},
		}})
		cfg.Fabric = inj
		sf, err := store.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCluster(cfg)
		if err != nil {
			sf.Close() //nolint:errcheck
			t.Fatal(err)
		}
		t.Cleanup(func() {
			c.Shutdown()
			inj.Close()
			sf.Close() //nolint:errcheck
		})
		if err := c.LoadStore(sf); err != nil {
			t.Fatal(err)
		}
		dc, err := sf.EnsureDecodeCache(cfg.DecodeCacheBytes)
		if err != nil {
			t.Fatal(err)
		}
		counter, _ := c.AddPropI64("counter")
		c.FillI64(counter, 0)
		_, err = c.RunJob(JobSpec{
			Name:       "compressed-abort",
			Iter:       IterOutEdges,
			Task:       &pushOneTask{counter: counter},
			WriteProps: []WriteSpec{{Prop: counter, Op: reduce.Sum}},
		})
		if err == nil {
			t.Fatal("job succeeded despite injected write-frame failure")
		}
		if !errors.Is(err, ErrJobAborted) {
			t.Fatalf("error %v does not wrap ErrJobAborted", err)
		}
		settleQuiescent(t, c)
		if st := dc.Stats(); st.PinnedBlocks != 0 {
			t.Fatalf("abort left %d decode-cache blocks pinned", st.PinnedBlocks)
		}
		if left := spillFiles(t, spillDir); len(left) != 0 {
			t.Fatalf("abort left spill files behind: %v", left)
		}

		// The fault rule is exhausted: the same cluster, same decode cache,
		// must now compute the exact reference.
		want := refInDegree(g)
		got := runPushOne(t, c, counter)
		for u := range want {
			if got[u] != want[u] {
				t.Fatalf("post-abort node %d: got %d, want %d", u, got[u], want[u])
			}
		}
		if st := dc.Stats(); st.PinnedBlocks != 0 {
			t.Fatalf("clean run left %d decode-cache blocks pinned", st.PinnedBlocks)
		}
		if st := dc.Stats(); st.Misses == 0 {
			t.Errorf("decode cache never decoded a block — test is vacuous (stats: %+v)", st)
		}
	})
}

// TestSpillCountersAndCleanup: a budget far below one frame forces every
// drain round through the temp-file overflow path — the job must still
// compute the exact in-degree, the registry must report both the deferred
// frames and the file overflow, and no temp file may survive the drain.
func TestSpillCountersAndCleanup(t *testing.T) {
	g := testGraph(t)
	spillDir := t.TempDir()
	cfg := DefaultConfig(3)
	cfg.SpillWrites = true
	cfg.ResidentBudgetBytes = 512
	cfg.SpillDir = spillDir
	reg := obs.NewRegistry()
	cfg.Obs = reg
	c := bootCluster(t, g, cfg)
	counter, _ := c.AddPropI64("counter")
	want := refInDegree(g)
	got := runPushOne(t, c, counter)
	for u := range want {
		if got[u] != want[u] {
			t.Fatalf("node %d: got %d, want %d", u, got[u], want[u])
		}
	}
	ctrs := reg.LifetimeCounters()
	if ctrs["spilled_write_frames"] == 0 {
		t.Errorf("no write frames were spilled (counters: %v)", ctrs)
	}
	if ctrs["spill_file_frames"] == 0 {
		t.Errorf("a 512-byte budget never overflowed to file (counters: %v)", ctrs)
	}
	if left := spillFiles(t, spillDir); len(left) != 0 {
		t.Fatalf("spill files survived the drain: %v", left)
	}
}

// writeHold makes "other streams have spilled before the failing frame is sent"
// an event the spill-abort test waits on instead of a race it hopes to win: it
// sits above the fault injector and holds every write frame from src to dst
// until ready reports true, giving up after bound (the test's Timeout)
// so a run in which nothing ever spills still terminates and fails on the
// test's own assertion.
type writeHold struct {
	comm.Fabric
	src, dst int
	ready    func() bool
	bound    time.Duration
}

// InMemory forwards the wrapped fabric's answer, like the injector does.
func (h *writeHold) InMemory() bool { return comm.InMemoryFabric(h.Fabric) }

func (h *writeHold) Endpoint(m int) (comm.Endpoint, error) {
	ep, err := h.Fabric.Endpoint(m)
	if err != nil || m != h.src {
		return ep, err
	}
	return &writeHoldEndpoint{Endpoint: ep, hold: h}, nil
}

type writeHoldEndpoint struct {
	comm.Endpoint
	hold *writeHold
}

func (e *writeHoldEndpoint) Send(dst int, buf *comm.Buffer) error {
	if h := e.hold; dst == h.dst && comm.MsgType(buf.Data[0]) == comm.MsgWriteReq {
		for deadline := time.Now().Add(h.bound); !h.ready() && time.Now().Before(deadline); {
			runtime.Gosched()
		}
	}
	return e.Endpoint.Send(dst, buf)
}

// Quiesce forwards to the inner endpoint; the pool leak checks rely on this
// passing through every wrapper.
func (e *writeHoldEndpoint) Quiesce() {
	if q, ok := e.Endpoint.(interface{ Quiesce() }); ok {
		q.Quiesce()
	}
}

// TestSpillAbortLeavesNoResidue: abort a job while write frames sit spilled
// (including on disk) — the backlog must be discarded without applying, every
// temp file removed, the pools must come home, and the same cluster must then
// run a clean job with exact results.
func TestSpillAbortLeavesNoResidue(t *testing.T) {
	eachFabric(t, func(t *testing.T, useTCP bool) {
		g := testGraph(t)
		spillDir := t.TempDir()
		cfg := faultCfg(3)
		cfg.BufferSize = 1 << 10 // small frames: every stream sends several
		cfg.SpillWrites = true
		cfg.ResidentBudgetBytes = 256
		cfg.SpillDir = spillDir
		reg := obs.NewRegistry()
		cfg.Obs = reg
		// Hard-fail stream 1->0's first write frame — and hold that stream back
		// until a receiver has spilled a frame of one of the other five (the
		// 256-byte budget pushes every arrival straight to file), so when the
		// abort lands the backlog is populated on disk.
		inj := faultFabric(t, cfg, useTCP, comm.FaultPlan{Seed: 7, Rules: []comm.FaultRule{
			{Src: 1, Dst: 0, Type: int(comm.MsgWriteReq), Kind: comm.FaultFail, After: 0, Limit: 1},
		}})
		cfg.Fabric = &writeHold{Fabric: inj, src: 1, dst: 0, bound: cfg.Timeout,
			ready: func() bool { return reg.LifetimeCounters()["spilled_write_frames"] > 0 }}
		c := bootCluster(t, g, cfg)
		defer inj.Close()
		counter, _ := c.AddPropI64("counter")
		c.FillI64(counter, 0)
		_, err := c.RunJob(JobSpec{
			Name:       "spill-abort",
			Iter:       IterOutEdges,
			Task:       &pushOneTask{counter: counter},
			WriteProps: []WriteSpec{{Prop: counter, Op: reduce.Sum}},
		})
		if err == nil {
			t.Fatal("job succeeded despite injected write-frame failure")
		}
		if !errors.Is(err, ErrJobAborted) {
			t.Fatalf("error %v does not wrap ErrJobAborted", err)
		}
		settleQuiescent(t, c)
		if ctrs := reg.LifetimeCounters(); ctrs["spilled_write_frames"] == 0 {
			t.Errorf("abort fired before any frame spilled — test is vacuous (counters: %v)", ctrs)
		}
		if left := spillFiles(t, spillDir); len(left) != 0 {
			t.Fatalf("abort left spill files behind: %v", left)
		}

		// The fault rule is exhausted (Limit 1): the same cluster must now
		// drain clean and compute the exact reference.
		want := refInDegree(g)
		got := runPushOne(t, c, counter)
		for u := range want {
			if got[u] != want[u] {
				t.Fatalf("post-abort node %d: got %d, want %d", u, got[u], want[u])
			}
		}
		if left := spillFiles(t, spillDir); len(left) != 0 {
			t.Fatalf("recovery run left spill files behind: %v", left)
		}
	})
}

// TestStoreCountersReachJobReports: a job run from a compressed store reports
// its own decode-cache work — the pins, decodes and bytes the cache counted
// while it ran, in its JobReport's counters and on its summary line — and the
// node pass after it, which reads no topology, reports none.
func TestStoreCountersReachJobReports(t *testing.T) {
	g := testGraph(t)
	cfg := DefaultConfig(3)
	cfg.DecodeCacheBytes = 64 << 10
	reg := obs.NewRegistry()
	cfg.Obs = reg
	c := bootStore(t, storePath3(t, g, 3), cfg)
	counter, _ := c.AddPropI64("counter")
	init, _ := c.AddPropF64("init")
	for round := 0; round < 2; round++ {
		before := c.ooc.Stats().Decode
		runPushOne(t, c, counter)
		after, rep := c.ooc.Stats().Decode, reg.LastReport()
		for name, want := range map[string]int64{
			"decode_hits": after.Hits - before.Hits, "decode_misses": after.Misses - before.Misses,
			"decoded_bytes": after.DecodedBytes - before.DecodedBytes,
		} {
			if got := rep.Counters[name]; got != want {
				t.Errorf("round %d: report counter %s = %d, the cache counted %d over the job", round, name, got, want)
			}
		}
		if after.Hits+after.Misses == before.Hits+before.Misses {
			t.Fatalf("round %d: the job pinned no block — test is vacuous", round)
		}
		if line := rep.Line(); !strings.Contains(line, fmt.Sprintf(" store=%d/%d ", after.Hits-before.Hits, after.Misses-before.Misses)) {
			t.Errorf("round %d: report line %q carries no store segment", round, line)
		}
	}
	if _, err := c.RunJob(JobSpec{Name: "node-init", Iter: IterNodes, Task: &nodeInit{p: init}}); err != nil {
		t.Fatal(err)
	}
	rep := reg.LastReport()
	if rep.Name != "node-init" || rep.Counters["decode_hits"] != 0 || rep.Counters["decode_misses"] != 0 || rep.Counters["decoded_bytes"] != 0 {
		t.Errorf("node pass report %q carries decode counts: %v", rep.Name, rep.Counters)
	}
	if line := rep.Line(); strings.Contains(line, "store=") {
		t.Errorf("node pass report line %q carries a store segment", line)
	}
}

// TestSparseFrontierClaimsMembersNotSpan: a sparse-frontier job over a store
// load claims its members' rows, not the node span from a chunk's first member
// to its last. The frontier is machine 0's hub plus a few small rows near each
// end of its range: the hub outweighs the chunk target, so one chunk holds
// every small row and its span is nearly the whole section. The raw load must
// advise well under the section into its window, the compressed one decode
// well under it.
func TestSparseFrontierClaimsMembersNotSpan(t *testing.T) {
	g, err := graph.RMAT(14, 16, graph.TwitterLike(), 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"csr2", "csr3"} {
		cfg := DefaultConfig(2)
		cfg.Workers = 1
		cfg.ResidentBudgetBytes = 256 << 10
		path := storePath(t, g, 2)
		if format == "csr3" {
			cfg.DecodeCacheBytes = 256 << 10
			path = storePath3(t, g, 2)
		}
		c := bootStore(t, path, cfg)
		counter, _ := c.AddPropI64("counter")
		c.FillI64(counter, 0)
		st := c.machines[0].store
		rows := st.views[store.OrientOut].rows
		small := func(u int) bool { return rows[u+1] > rows[u] && rows[u+1]-rows[u] <= 16 }
		members := []int{0} // machine 0's range starts at node 0, RMAT's largest hub
		for u, n := 1, 0; n < 5; u++ {
			if small(u) {
				members, n = append(members, u), n+1
			}
		}
		for u, n := st.numLocal-1, 0; n < 5; u-- {
			if small(u) {
				members, n = append(members, u), n+1
			}
		}
		front := c.NewFrontier("ends")
		want := make([]int64, g.NumNodes())
		for _, u := range members {
			front.Add(graph.NodeID(u))
			for _, v := range g.Out.Neighbors(graph.NodeID(u)) {
				want[v]++
			}
		}
		if hub := rows[1]; hub < 7*10*16 {
			t.Fatalf("node 0 has %d out-edges, too few to take the small rows' chunk target past their sum", hub)
		}
		before := c.ooc.Stats()
		if _, err := c.RunJob(JobSpec{
			Name: "ends-push", Iter: IterOutEdges, Source: front,
			Task:       &pushOneTask{counter: counter},
			WriteProps: []WriteSpec{{Prop: counter, Op: reduce.Sum}},
		}); err != nil {
			t.Fatal(err)
		}
		if got := c.GatherI64(counter); !slices.Equal(got, want) {
			t.Fatalf("%s: sparse push differs from the reference", format)
		}
		after, section := c.ooc.Stats(), 8*rows[st.numLocal]
		touched := after.Residency.TouchedBytes - before.Residency.TouchedBytes
		decoded := after.Decode.DecodedBytes - before.Decode.DecodedBytes
		if format == "csr2" && (touched == 0 || touched > section/2) {
			t.Errorf("csr2: %d members advised %d bytes into the window, the section's refs are %d", len(members), touched, section)
		}
		if format == "csr3" && (decoded == 0 || decoded > section/2) {
			t.Errorf("csr3: %d members decoded %d bytes, the section's refs are %d", len(members), decoded, section)
		}
	}
}
