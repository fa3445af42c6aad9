package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/store"
)

// mixedReadTask reads per row the declared property of every remote
// in-neighbor (mirrored when the job is) and the undeclared properties of the
// same neighbors, and — on each machine's node 0 — the declared property at an
// address no row references. Values are small integers, so the sum is exact in
// any arrival order.
type mixedReadTask struct {
	declared, acc PropID
	undeclared    []PropID
	outside       []int64 // per machine: a remote ref outside its remote set
}

func (k *mixedReadTask) RunRows(c *Ctx, rows *Cursor) { perRow(c, rows, k.row) }

func (k *mixedReadTask) row(c *Ctx, row Row) {
	for _, ref := range row.Refs {
		if !c.w.m.store.owns(ref) {
			c.ReadRef(ref, k.declared)
			for _, p := range k.undeclared {
				c.ReadRef(ref, p)
			}
		}
	}
	if c.Node == 0 {
		c.ReadRef(k.outside[c.Machine()], k.declared)
	}
}

func (k *mixedReadTask) ReadDone(c *Ctx, val uint64) {
	c.SetF64(k.acc, c.GetF64(k.acc)+F64Word(val))
}

// TestMirrorFallsBackOnDemand: in a mirrored job, a remote ref the remote set
// does not hold (core.RemoteRef to an arbitrary slot) is answered by the
// on-demand path, next to mirrored reads of the same rows — and the job reports
// what its prefetch cost: one read_prefetch span per worker whose args sum to
// the mirror_words counter, which is the remote sets' size. A remote read of a
// property missing from ReadProps is refused: the owner's copier fails the job
// with an error naming the job and the property, and the next job on the same
// cluster is exact.
func TestMirrorFallsBackOnDemand(t *testing.T) {
	eachFabric(t, func(t *testing.T, useTCP bool) {
		g := testGraph(t)
		const p = 2
		cfg := DefaultConfig(p)
		cfg.Obs = obs.NewRegistry()
		if useTCP {
			cfg.Fabric = innerFabric(t, cfg, true)
			defer cfg.Fabric.Close() //nolint:errcheck
		}
		c := bootCluster(t, g, cfg)
		a, _ := c.AddPropF64("a")
		b, _ := c.AddPropF64("b")
		acc, _ := c.AddPropF64("acc")
		aOf := func(v graph.NodeID) float64 { return float64(v%7 + 1) }
		bOf := func(v graph.NodeID) float64 { return float64(v%5 + 10) }
		c.FillByNodeF64(a, aOf)
		c.FillByNodeF64(b, bOf)

		// A plain mirrored pull first; pick each machine's outside address from
		// the remote set its load came with.
		if _, err := c.RunJob(JobSpec{Name: "warm-up", Iter: IterInEdges, Task: &pullSumTask{src: a, dst: acc}, ReadProps: []PropID{a}}); err != nil {
			t.Fatal(err)
		}
		task := &mixedReadTask{declared: a, undeclared: []PropID{b}, acc: acc, outside: make([]int64, p)}
		want := make([]float64, g.NumNodes())
		var setWords int64
		for _, m := range c.machines {
			set, peer := m.store.remote, 1-m.id
			if set.iters[IterInEdges].size == 0 {
				t.Fatalf("machine %d has an empty remote set", m.id)
			}
			// The rows name their remote neighbours by replica ref, so the
			// undeclared reads below reach the owner through the set's addresses.
			if !slices.ContainsFunc(m.store.views[store.OrientIn].refs, func(ref int64) bool { return ref >= int64(m.store.numLocal) }) {
				t.Fatalf("machine %d's in-edge rows hold no replica ref", m.id)
			}
			setWords += int64(set.iters[IterInEdges].size)
			lo, hi := c.layout.Range(peer)
			found := false
			for off := uint32(0); off < uint32(hi-lo) && !found; off++ {
				if slotOf(set, peer, off) < 0 {
					task.outside[m.id], found = RemoteRef(peer, off), true
					want[c.layout.Starts[m.id]] += aOf(lo + graph.NodeID(off))
				}
			}
			if !found {
				t.Fatalf("machine %d references every node of machine %d: no address outside the set", m.id, peer)
			}
		}
		for u := range want {
			for _, tn := range g.In.Neighbors(graph.NodeID(u)) {
				if c.layout.Owner(tn) != c.layout.Owner(graph.NodeID(u)) {
					want[u] += aOf(tn)
				}
			}
		}
		_, err := c.RunJob(JobSpec{Name: "undeclared-read", Iter: IterInEdges, Task: task, ReadProps: []PropID{a}})
		if err == nil || !strings.Contains(err.Error(), `"undeclared-read"`) || !strings.Contains(err.Error(), fmt.Sprintf("property %d ", b)) {
			t.Fatalf("a remote read of property %d outside ReadProps: err = %v, want a refusal naming the job and the property", b, err)
		}
		settleQuiescent(t, c)
		c.FillF64(acc, 0)
		task.undeclared = nil
		served := c.Obs().LifetimeCounters()["reads_served"]
		if _, err := c.RunJob(JobSpec{Name: "mixed-reads", Iter: IterInEdges, Task: task, ReadProps: []PropID{a}}); err != nil {
			t.Fatal(err)
		}
		for u, got := range c.GatherF64(acc) {
			if got != want[u] {
				t.Fatalf("node %d: got %g, want %g", u, got, want[u])
			}
		}
		rep := c.Obs().LastReport()
		if got := rep.Counters["mirror_words"]; got != setWords {
			t.Errorf("mirror_words = %d, want the remote sets' %d", got, setWords)
		}
		// The job prefetched every address once and read one on-demand record per
		// machine for the outside address. A copier counts a frame before it sends
		// the response, so the count is complete when the job returns.
		wantServed := setWords + p
		if got := c.Obs().LifetimeCounters()["reads_served"] - served; got != wantServed {
			t.Errorf("reads_served = %d, want %d", got, wantServed)
		}
		var spans int
		var words uint64
		for _, s := range rep.Spans {
			if s.Kind == obs.SpanReadPrefetch {
				spans++
				words += s.Arg
				if s.Worker < 0 {
					t.Errorf("read_prefetch span on lane %d, want a worker lane", s.Worker)
				}
			}
		}
		if spans != p*cfg.Workers || int64(words) != setWords {
			t.Errorf("%d read_prefetch spans carrying %d words, want %d spans and %d words", spans, words, p*cfg.Workers, setWords)
		}
		if line := rep.Line(); !strings.Contains(line, fmt.Sprintf("prefetch=%dw/", setWords)) {
			t.Errorf("job report line does not show the prefetch: %s", line)
		}
		if !c.PoolsQuiescent() {
			t.Error("pools not quiescent")
		}
	})
}

// prefetchDecodeCache is smaller than faultGraph's edge data.
const prefetchDecodeCache = 16 << 10

// prefetchCluster boots two machines over the compressed store file at path
// (so an abort's pins are observable) behind a fault injector. close tears
// everything down; it also runs, once, when the test ends.
func prefetchCluster(t *testing.T, path string, useTCP bool, rules ...comm.FaultRule) (c *Cluster, inj *comm.FaultInjector, sf *store.File, close func()) {
	t.Helper()
	cfg := faultCfg(2)
	cfg.Timeout = 300 * time.Millisecond
	cfg.DecodeCacheBytes = prefetchDecodeCache
	inj = faultFabric(t, cfg, useTCP, comm.FaultPlan{Seed: 17, Rules: rules})
	cfg.Fabric = inj
	sf, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if c, err = NewCluster(cfg); err != nil {
		sf.Close() //nolint:errcheck
		t.Fatal(err)
	}
	close = sync.OnceFunc(func() {
		c.Shutdown()
		inj.Close() //nolint:errcheck
		sf.Close()  //nolint:errcheck
	})
	t.Cleanup(close)
	if err := c.LoadStore(sf); err != nil {
		t.Fatal(err)
	}
	return c, inj, sf, close
}

// saltedPull runs the pull-sum job over source values that depend on salt and
// returns its error, or — on success — the first node whose sum is not the
// reference's. Two runs with different salts share no source value, so a word
// left in the mirror by the first can not pass for the second's. sources, when
// non-nil, are the only nodes the job runs (its Source frontier), and every
// other node's sum must stay 0. beforeEdge, when set, is the kernel's hook
// ahead of each edge.
func saltedPull(c *Cluster, g *graph.Graph, src, dst PropID, salt int, sources []graph.NodeID, beforeEdge func(*Ctx)) error {
	vals := make([]float64, g.NumNodes())
	for u := range vals {
		vals[u] = float64((u+salt)%89 + 100*salt)
	}
	c.FillByNodeF64(src, func(v graph.NodeID) float64 { return vals[v] })
	c.FillF64(dst, 0)
	spec := JobSpec{Name: "prefetch-pull", Iter: IterInEdges,
		Task: &pullSumTask{src: src, dst: dst, beforeEdge: beforeEdge}, ReadProps: []PropID{src}}
	want := refPullSum(g, vals)
	if sources != nil {
		spec.Source = c.NewFrontier("sources")
		run := make([]float64, len(want))
		for _, v := range sources {
			spec.Source.Add(v)
			run[v] = want[v]
		}
		want = run
	}
	if _, err := c.RunJob(spec); err != nil {
		return err
	}
	for u, got := range c.GatherF64(dst) {
		if got != want[u] {
			return fmt.Errorf("node %d: got %g, want %g", u, got, want[u])
		}
	}
	return nil
}

// assertNoResidue checks what every abort must leave behind: buffers home, no
// decode-cache pin (sf nil: an in-memory load has none), no current job, and
// every worker out of the job — none parked on the prefetch's local barrier.
func assertNoResidue(t *testing.T, c *Cluster, sf *store.File) {
	t.Helper()
	settleQuiescent(t, c)
	if sf != nil {
		dc, err := sf.EnsureDecodeCache(prefetchDecodeCache)
		if err != nil {
			t.Fatal(err)
		}
		if st := dc.Stats(); st.PinnedBlocks != 0 {
			t.Errorf("abort left %d decode-cache blocks pinned", st.PinnedBlocks)
		}
	}
	for _, m := range c.machines {
		if m.curJob.Load() != nil {
			t.Errorf("machine %d still has a current job", m.id)
		}
		for _, w := range m.workers {
			if w.job != nil || w.fetching || w.outstanding != 0 {
				t.Errorf("machine %d worker %d still in a job (fetching=%v, outstanding=%d)", m.id, w.id, w.fetching, w.outstanding)
			}
		}
	}
}

// onDemandSources is the one node TestFaultPrefetch's on-demand jobs run:
// faultGraph's node 1, on machine 0 of the two-machine cut, whose in-row names
// nodes of machine 1 but holds too few refs for remoteJob to mirror the set.
var onDemandSources = []graph.NodeID{1}

// TestFaultPrefetch drops, truncates and delays the k-th prefetch request
// frame from machine 0 to machine 1, and the k-th response frame back, for
// every k the stream has, over both fabrics. A delay is tolerated and the
// result exact; a drop or a truncation aborts the job with its root cause,
// leaves no residue, and the immediate rerun — over different source values —
// is exact, so no word of the aborted prefetch is ever read. The k = 0 faults
// run against on-demand reads as well: a store load's remote set is the
// file's, so they come from a job sourced at one node (onDemandSources), whose
// few refs the eligibility rule leaves on demand — the path the mirror leaves
// to sparse jobs.
func TestFaultPrefetch(t *testing.T) {
	g := faultGraph(t)
	path := storePath3(t, g, 2)
	eachFabric(t, func(t *testing.T, useTCP bool) {
		for _, dir := range []struct {
			name     string
			typ      comm.MsgType
			src, dst int
		}{{"request", comm.MsgReadReq, 0, 1}, {"response", comm.MsgReadResp, 1, 0}} {
			for _, kind := range []struct {
				name  string
				kind  comm.FaultKind
				cause string // in the root cause of an abort; "" = the job survives
			}{
				{"drop", comm.FaultDrop, "timed out"},
				{"truncate", comm.FaultTruncate, "read"}, // a torn/truncated read frame or read response
				{"delay", comm.FaultDelay, ""},
			} {
				// faultKth runs the job with the stream's k-th frame faulted and
				// reports whether the stream had one.
				faultKth := func(t *testing.T, k int, onDemand bool) bool {
					c, inj, sf, close := prefetchCluster(t, path, useTCP, comm.FaultRule{
						Src: dir.src, Dst: dir.dst, Type: int(dir.typ), Kind: kind.kind,
						After: k, Limit: 1, Delay: 2 * time.Millisecond, TruncateTo: comm.HeaderSize + 3})
					defer close()
					src, _ := c.AddPropF64("src")
					dst, _ := c.AddPropF64("dst")
					var sources []graph.NodeID
					var hook func(*Ctx)
					var mirrored atomic.Bool
					if onDemand {
						sources = onDemandSources
						hook = func(ctx *Ctx) {
							if ctx.w.job.mirrorSet != nil {
								mirrored.Store(true)
							}
						}
					}
					defer func() {
						if mirrored.Load() {
							t.Errorf("k=%d: the on-demand job mirrored its reads", k)
						}
					}()
					err := saltedPull(c, g, src, dst, 1, sources, hook)
					if st := inj.Stats(); st.Dropped+st.Truncated+st.Delayed == 0 {
						if err != nil {
							t.Fatalf("k=%d, no fault fired: %v", k, err)
						}
						return false
					}
					if kind.cause == "" {
						if err != nil {
							t.Fatalf("k=%d: job failed under a tolerable delay: %v", k, err)
						}
						return true
					}
					if !errors.Is(err, ErrJobAborted) || !strings.Contains(err.Error(), kind.cause) {
						t.Fatalf("k=%d on-demand=%v: error %v, want ErrJobAborted with %q in its root cause", k, onDemand, err, kind.cause)
					}
					assertNoResidue(t, c, sf)
					if err := saltedPull(c, g, src, dst, 2, sources, hook); err != nil {
						t.Fatalf("k=%d on-demand=%v: rerun right after the abort: %v", k, onDemand, err)
					}
					return true
				}
				t.Run(dir.name+"/"+kind.name, func(t *testing.T) {
					if !faultKth(t, 0, true) {
						t.Fatal("no on-demand read frame was faulted")
					}
					k := 0
					for faultKth(t, k, false) {
						k++
					}
					if k == 0 {
						t.Fatal("no prefetch frame was faulted")
					}
				})
			}
		}
	})
}

// TestCancelAfterPrefetch: a Cancel that lands when the prefetch is complete
// and before the first edge has read — the kernel's hook, which a worker runs
// ahead of that read, fires it — aborts the job with the cause, leaves no
// residue, and after Uncancel the rerun is exact.
func TestCancelAfterPrefetch(t *testing.T) {
	g := faultGraph(t)
	path := storePath3(t, g, 2)
	eachFabric(t, func(t *testing.T, useTCP bool) {
		c, _, sf, _ := prefetchCluster(t, path, useTCP)
		src, _ := c.AddPropF64("src")
		dst, _ := c.AddPropF64("dst")
		cause := errors.New("deadline between prefetch and first row")
		var once sync.Once
		err := saltedPull(c, g, src, dst, 1, nil, func(ctx *Ctx) {
			once.Do(func() {
				if jr := ctx.w.job; jr.mirrorSet == nil || jr.fetching.Load() != 0 {
					t.Error("the first edge's hook ran before the prefetch was complete")
				}
				c.Cancel(cause)
			})
		})
		if !errors.Is(err, ErrJobAborted) || !errors.Is(err, ErrJobCanceled) || !errors.Is(err, cause) {
			t.Fatalf("RunJob = %v, want ErrJobAborted wrapping ErrJobCanceled and the cause", err)
		}
		assertNoResidue(t, c, sf)
		c.Uncancel()
		if err := saltedPull(c, g, src, dst, 2, nil, nil); err != nil {
			t.Fatalf("rerun after Uncancel: %v", err)
		}
	})
}

// skipRemoteSum is rowPullSum without its remote reads: the scan the remote
// refs ride on, in the same rows on the same machines.
type skipRemoteSum struct {
	NoReads
	src, dst PropID
}

func (k *skipRemoteSum) RunRows(c *Ctx, rows *Cursor) { perRow(c, rows, k.row) }

func (k *skipRemoteSum) row(c *Ctx, row Row) {
	src := c.F64(k.src) // not mirrored: it holds the owned nodes only
	var sum float64
	for _, ref := range row.Refs {
		if v, ok := src.At(ref); ok {
			sum += v
		}
	}
	c.SetF64(k.dst, c.GetF64(k.dst)+sum)
}

// remoteBenchGraph is the graph of BenchmarkRemoteRead and BenchmarkRemoteWrite:
// the benchmark workloads' RMAT-16.
func remoteBenchGraph(b *testing.B) *graph.Graph {
	g, err := graph.RMAT(16, 16, graph.TwitterLike(), 20151115)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// remoteBenchBoot boots their cluster — two machines of one worker
// and one copier each, in process or over loopback TCP, loaded with the
// replica cap ghosts — with a source property of ones and a destination.
func remoteBenchBoot(b *testing.B, g *graph.Graph, useTCP bool, ghosts *partition.GhostSet) (c *Cluster, src, dst PropID) {
	cfg := DefaultConfig(2)
	cfg.Workers, cfg.Copiers = 1, 1
	if useTCP {
		cfg.Fabric = innerFabric(b, cfg, true)
		b.Cleanup(func() { cfg.Fabric.Close() }) //nolint:errcheck
	}
	c = bootGhosts(b, g, cfg, ghosts)
	src, _ = c.AddPropF64("src")
	dst, _ = c.AddPropF64("dst")
	c.FillF64(src, 1)
	return c, src, dst
}

// remoteRefs counts the refs of an in-memory load's orient rows that name
// another machine's node, in whichever class the rows spell them.
func (s *localStore) remoteRefs(orient int) (n int64) {
	for _, ref := range s.views[orient].refs {
		if !s.owns(ref) {
			n++
		}
	}
	return n
}

// remoteRefMode is one way to answer a remote ref: a row of the budget.
type remoteRefMode struct {
	name   string
	ghosts *partition.GhostSet // the load's replica cap (LoadPlan)
}

// remoteRefBudget reports, per fabric and mode, the nanoseconds a remote ref
// adds to the job spec builds: the job's time over a scan of the same rows that
// skips its remote refs (skip's job, run first), divided by the remote refs the
// rows hold in orient. With both machines' workers and copiers on the
// benchmark's CPUs it is wall time, not CPU time.
func remoteRefBudget(b *testing.B, g *graph.Graph, orient int, skip, spec func(src, dst PropID) JobSpec, modes []remoteRefMode) {
	perJob := func(b *testing.B, c *Cluster, spec JobSpec) float64 {
		if _, err := c.RunJob(spec); err != nil { // warm-up: pools, side slices
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.RunJob(spec); err != nil {
				b.Fatal(err)
			}
		}
		return float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	}
	for _, fab := range []struct {
		name string
		tcp  bool
	}{{"inproc", false}, {"tcp", true}} {
		var skipNS float64
		b.Run(fab.name+"/skip-remote", func(b *testing.B) {
			c, src, dst := remoteBenchBoot(b, g, fab.tcp, nil)
			skipNS = perJob(b, c, skip(src, dst))
			b.ReportMetric(skipNS/float64(g.NumEdges()), "ns/edge")
		})
		for _, mode := range modes {
			b.Run(fab.name+"/"+mode.name, func(b *testing.B) {
				c, src, dst := remoteBenchBoot(b, g, fab.tcp, mode.ghosts)
				var remote int64
				for _, m := range c.machines {
					remote += m.store.remoteRefs(orient)
				}
				ns := perJob(b, c, spec(src, dst))
				b.ReportMetric((ns-skipNS)/float64(remote), "ns/remote-ref")
				b.ReportMetric(float64(remote)/float64(g.NumEdges()), "remote_frac")
			})
		}
	}
}

// BenchmarkRemoteRead is the budget of one remote read (remoteRefBudget): a
// pull-sum job whose reads are requested on demand (the paper's protocol), and
// prefetched into the mirror. set-build is the one-time remote-set scan of both
// orientations and the rewrite of their rows, per edge scanned.
func BenchmarkRemoteRead(b *testing.B) {
	g := remoteBenchGraph(b)
	remoteRefBudget(b, g, store.OrientIn,
		func(src, dst PropID) JobSpec {
			return JobSpec{Name: "scan", Iter: IterInEdges, Task: &skipRemoteSum{src: src, dst: dst}}
		},
		func(src, dst PropID) JobSpec {
			return JobSpec{Name: "scan", Iter: IterInEdges, Task: &rowPullSum{src: src, dst: dst}, ReadProps: []PropID{src}}
		},
		[]remoteRefMode{{"on-demand", noGhosts}, {"mirrored", nil}})
	// What numbering adds to a load: both machines' sections at p = 2 as every
	// load extracts them (store.SectionOf), against the packed-ref oracle's
	// bare extraction of the same rows.
	layout, err := partition.Compute(g, 2, partition.EdgeBalanced)
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range []struct {
		name    string
		extract func(me int)
	}{
		{"section", func(me int) { store.SectionOf(g, layout, me, nil) }},
		{"raw-section", func(me int) { packedViews(g, layout, me) }},
	} {
		b.Run(row.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				row.extract(0)
				row.extract(1)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*2*g.NumEdges()), "ns/edge")
		})
	}
}
