package core

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/baseline/sa"
	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/reduce"
	"repro/internal/store"
)

// rowPullSum is pullSumTask with the row contract's register accumulation:
// a local sum over the neighbors the typed view holds, ReadRef for the rest,
// one own-node read-modify-write after the row's loop.
type rowPullSum struct{ src, dst PropID }

func (k *rowPullSum) RunRows(c *Ctx, rows *Cursor) {
	src := c.F64(k.src)
	for rows.Next() {
		var sum float64
		for _, ref := range rows.Row().Refs {
			if v, ok := src.At(ref); ok {
				sum += v
			} else {
				c.ReadRef(ref, k.src)
			}
		}
		c.SetF64(k.dst, c.GetF64(k.dst)+sum)
	}
}

func (k *rowPullSum) ReadDone(c *Ctx, val uint64) {
	c.SetF64(k.dst, c.GetF64(k.dst)+F64Word(val))
}

// rowRankPull is a whole PageRank-pull iteration in one row kernel, the
// shape of the algorithms package's: the row head zeroes the node's raw sum
// (acc), the row sums the src words the view holds in a register and hands
// the rest to ReadRef, and the fold — after the row and in every ReadDone —
// adds its part to acc and writes the next scaled word, (base + d·acc) /
// outDeg, into dst, the other of two scaled columns.
//
// inRow/reentered instrument TestRowKernelReentrancy: inRow[m] holds the node
// whose row machine m's (single) worker is inside, plus one; ReadDone counts
// the continuations that ran for that very node meanwhile. staleOwn breaks
// the row contract on purpose — it reads the node's raw sum before the loop
// and folds over that afterwards — to show the test reaches the hazard.
type rowRankPull struct {
	src, dst, acc PropID
	base, damping float64
	staleOwn      bool
	inRow         []atomic.Uint32
	reentered     atomic.Int64
}

func (k *rowRankPull) RunRows(c *Ctx, rows *Cursor) {
	src := c.F64(k.src)
	for rows.Next() {
		k.inRow[c.Machine()].Store(c.Node + 1)
		c.SetF64(k.acc, 0)
		before := c.GetF64(k.acc)
		var sum float64
		for _, ref := range rows.Row().Refs {
			if v, ok := src.At(ref); ok {
				sum += v
			} else {
				c.ReadRef(ref, k.src)
			}
		}
		if k.staleOwn {
			k.store(c, before+sum)
		} else {
			k.store(c, c.GetF64(k.acc)+sum)
		}
		k.inRow[c.Machine()].Store(0)
	}
}

func (k *rowRankPull) ReadDone(c *Ctx, val uint64) {
	if k.inRow[c.Machine()].Load() == c.Node+1 {
		k.reentered.Add(1)
	}
	k.store(c, c.GetF64(k.acc)+F64Word(val))
}

func (k *rowRankPull) store(c *Ctx, s float64) {
	c.SetF64(k.acc, s)
	var next float64
	if d := c.OutDegree(); d > 0 {
		next = (k.base + k.damping*s) / float64(d)
	}
	c.SetF64(k.dst, next)
}

// TestRowKernelReentrancy: a row kernel that keeps its accumulator in a
// register must survive continuations of the node it is still scanning.
// PageRank-pull on three machines (a hub's in-row is two thirds remote),
// one job per iteration over ping-pong scaled columns, eight read records
// per message and a request pool of one buffer: every flush inside a hub row
// leaves acquireReq stalled on the next remote read, and the responses it
// drains there are for earlier reads of that same row (the load replicates
// nothing: a mirror would answer every one of these reads before the row
// runs). The result must still be SA's. The contract-breaking variant of the
// same kernel (own-node value cached across the loop) must not be —
// otherwise this test would pass without reaching the hazard.
func TestRowKernelReentrancy(t *testing.T) {
	g, err := graph.RMAT(10, 8, graph.TwitterLike(), 4242)
	if err != nil {
		t.Fatal(err)
	}
	const (
		p       = 3
		iters   = 3
		damping = 0.85
	)
	want := sa.PageRank(g, iters, damping, 1)

	run := func(t *testing.T, staleOwn bool) (maxDiff float64, reentered int64) {
		cfg := DefaultConfig(p)
		cfg.Workers = 1
		cfg.BufferSize = comm.HeaderSize + 8*readRecSize
		cfg.Timeout = 20 * time.Second
		c := bootGhosts(t, g, cfg, noGhosts)
		c.setPools(1, 0)
		acc, _ := c.AddPropF64("sum")
		scaled := [2]PropID{}
		scaled[0], _ = c.AddPropF64("scaled")
		scaled[1], _ = c.AddPropF64("scaled_nxt")
		n := float64(g.NumNodes())
		c.FillByNodeF64(scaled[0], func(v graph.NodeID) float64 {
			if d := g.OutDegree(v); d > 0 {
				return 1 / n / float64(d)
			}
			return 0
		})
		base := (1 - damping) / n
		pull := &rowRankPull{acc: acc, base: base, damping: damping, staleOwn: staleOwn, inRow: make([]atomic.Uint32, p)}
		for it := range iters {
			pull.src, pull.dst = scaled[it%2], scaled[1-it%2]
			spec := JobSpec{Name: "pull", Iter: IterInEdges, Task: pull, ReadProps: []PropID{pull.src}}
			if _, err := c.RunJob(spec); err != nil {
				t.Fatalf("%s: %v", spec.Name, err)
			}
		}
		for u, s := range c.GatherF64(acc) {
			maxDiff = math.Max(maxDiff, math.Abs(base+damping*s-want[u]))
		}
		return maxDiff, pull.reentered.Load()
	}

	diff, reentered := run(t, false)
	if reentered == 0 {
		t.Fatal("no continuation ran for a node inside its own row: the pool never stalled mid-row")
	}
	if diff > 1e-12 {
		t.Errorf("row kernel under re-entrancy: max |pr - SA| = %g (%d same-node continuations)", diff, reentered)
	}
	if diff, reentered := run(t, true); reentered > 0 && diff <= 1e-12 {
		t.Errorf("a kernel caching own-node state across ReadRef still matched SA after %d same-node continuations", reentered)
	}
}

// perRow and perNode run a test kernel written per row or per node over the
// cursor: most test kernels keep that form, the engine's own kernels loop.
func perRow(c *Ctx, rows *Cursor, row func(c *Ctx, row Row)) {
	for rows.Next() {
		row(c, rows.Row())
	}
}

func perNode(c *Ctx, nodes *Cursor, node func(c *Ctx)) {
	for nodes.Next() {
		node(c)
	}
}

// scanJob wires a jobRuntime for worker 0 of machine 0 exactly as runJob
// would for an in-edge scan with kernel over source (nil: every node),
// without dispatching it.
func scanJob(c *Cluster, kernel RowTask, source *Frontier) (*worker, *jobRuntime) {
	m := c.machines[0]
	w := m.workers[0]
	spec := &JobSpec{Name: "scan", Iter: IterInEdges, Task: kernel, Source: source}
	jr := m.newJobRuntime(spec, 0)
	w.job, w.cols = jr, m.cols
	return w, jr
}

// pushJob wires a jobRuntime for the one worker of machine 0 exactly as
// runJob would for an out-edge push of kernel reducing SUM into dst over
// source (nil: every node), without dispatching it: the set-up decides whether
// the job accumulates, and the worker bottoms its accumulator when it does. id
// is one no RunJob of the test reaches, so the worker's write handles resolve
// for this job.
func pushJob(c *Cluster, kernel RowTask, dst PropID, source *Frontier, id uint64) (*worker, *jobRuntime) {
	m := c.machines[0]
	w := m.workers[0]
	spec := &JobSpec{Name: "push", Iter: IterOutEdges, Task: kernel, Source: source,
		WriteProps: []WriteSpec{{Prop: dst, Op: reduce.Sum}}}
	jr := m.newJobRuntime(spec, id)
	w.job, w.cols = jr, m.cols
	if len(w.wrs) < len(w.cols) {
		w.wrs = make([]Writer, len(w.cols))
	}
	if jr.accumulate {
		w.cols[dst].ensureAcc(w.id, reduce.Sum, id, len(m.store.remote.addr))
	}
	return w, jr
}

// TestRowKernelScanAllocatesNothing: a local row scan — chunk walk, row
// slicing, kernel dispatch, typed view, own-node fold — allocates nothing,
// over a dense range, a dense frontier's bitmap and a sparse frontier's
// member list alike; and so does a push's on a one-worker machine of two,
// folding into the column's accumulator tail over a dense range and a bitmap,
// and buffering its remote writes on demand over a member list.
func TestRowKernelScanAllocatesNothing(t *testing.T) {
	t.Run("push", testPushScanAllocatesNothing)
	g := testGraph(t)
	cfg := DefaultConfig(1)
	c := bootCluster(t, g, cfg)
	src, _ := c.AddPropF64("src")
	dst, _ := c.AddPropF64("dst")
	c.FillF64(src, 1)
	for _, tc := range []struct {
		name  string
		dense bool
		pred  func(graph.NodeID) bool // nil: every node, no Source
	}{
		{"range", true, nil},
		{"bitmap", true, func(v graph.NodeID) bool { return v%3 == 0 }},
		{"list", false, func(v graph.NodeID) bool { return v%97 == 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c.FillF64(dst, 0)
			var source *Frontier
			if tc.pred != nil {
				source = c.NewFrontier(tc.name)
				source.Fill(tc.pred)
				if mf := source.machines[0]; mf.dense != tc.dense {
					t.Fatalf("frontier dense = %v, want %v", mf.dense, tc.dense)
				}
			}
			w, jr := scanJob(c, &rowPullSum{src: src, dst: dst}, source)
			const runs = 10
			ch := jr.chunks[0]
			allocs := testing.AllocsPerRun(runs, func() { w.runChunk(jr, ch) })
			w.job = nil
			if allocs != 0 {
				t.Errorf("%.1f allocations per chunk scan, want 0", allocs)
			}
			// The scans really ran: every member of the chunk summed its
			// in-degree per scan (AllocsPerRun adds one warm-up run).
			members := jr.frontList
			if members == nil {
				for u := ch.Begin; u < ch.End; u++ {
					if tc.pred == nil || tc.pred(graph.NodeID(u)) {
						members = append(members, u)
					}
				}
			} else {
				members = members[ch.Begin:ch.End]
			}
			var want float64
			for _, u := range members {
				want += float64((runs + 1) * int(g.InDegree(graph.NodeID(u))))
			}
			var got float64
			for _, v := range c.GatherF64(dst) {
				got += v
			}
			if len(members) == 0 || got != want {
				t.Errorf("the chunk's %d members accumulated %g, want %g", len(members), got, want)
			}
		})
	}
}

func testPushScanAllocatesNothing(t *testing.T) {
	g := testGraph(t)
	cfg := DefaultConfig(2)
	cfg.Workers = 1
	c := bootCluster(t, g, cfg)
	src, _ := c.AddPropF64("src")
	dst, _ := c.AddPropF64("dst")
	c.FillF64(src, 1)
	m := c.machines[0]
	n, col := m.store.numLocal, m.cols[dst]
	// Registration lays the column out [owned words | one per remote-set slot]
	// and hands worker 0 the tail as its accumulator; no job moves either.
	size := n + len(m.store.remote.addr)
	if cap(col.vals) != size {
		t.Fatalf("a registered column holds %d words, want %d owned and %d tail", cap(col.vals), n, size-n)
	}
	if acc, tail := col.acc[0].slots, plainWords(col.vals[:size])[n:]; len(tail) == 0 || len(acc) != len(tail) || &acc[0] != &tail[0] {
		t.Fatal("a registered column's accumulator is not its tail")
	}
	owned := &col.vals[0]
	for i, tc := range []struct {
		name       string
		accumulate bool
		pred       func(graph.NodeID) bool // nil: every node, no Source
	}{
		{"accumulated-range", true, nil},
		{"accumulated-bitmap", true, func(v graph.NodeID) bool { return v%3 == 0 }},
		{"on-demand-list", false, func(v graph.NodeID) bool { return v%97 == 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c.FillF64(dst, 0)
			var source *Frontier
			if tc.pred != nil {
				source = c.NewFrontier(tc.name)
				source.Fill(tc.pred)
			}
			w, jr := pushJob(c, &rowPush{src: src, dst: dst, op: reduce.Sum}, dst, source, 1<<40+uint64(i))
			defer w.abortCleanup() // releases the partial write messages unsent
			if jr.accumulate != tc.accumulate {
				t.Fatalf("job accumulates = %v, want %v", jr.accumulate, tc.accumulate)
			}
			if &col.vals[0] != owned {
				t.Fatal("the job moved the column's owned words")
			}
			var acc []uint64
			if tc.accumulate {
				acc = col.acc[0].slots
				if tail := plainWords(col.vals[:size]); len(acc) == 0 || &acc[0] != &tail[n] {
					t.Fatal("the accumulator is not the column's tail")
				}
			}
			const runs = 10
			ch, sent := jr.chunks[0], slices.Clone(w.sentTo)
			allocs := testing.AllocsPerRun(runs, func() { w.runChunk(jr, ch) })
			if allocs != 0 {
				t.Errorf("%.1f allocations per chunk push, want 0", allocs)
			}
			if !slices.Equal(w.sentTo, sent) {
				t.Fatal("the chunk flushed a write message: the sums below miss it")
			}
			// The pushes really ran: every member of the chunk reduced 1 into each
			// out-neighbour per push (AllocsPerRun adds one warm-up run), owned
			// ones into the column, replicas into the tail, the rest into the
			// write messages toward their owners.
			members := jr.frontList
			if members == nil {
				for u := ch.Begin; u < ch.End; u++ {
					if tc.pred == nil || tc.pred(m.store.globalOf(u)) {
						members = append(members, u)
					}
				}
			} else {
				members = members[ch.Begin:ch.End]
			}
			var want, got float64
			for _, u := range members {
				want += float64((runs + 1) * int(g.OutDegree(m.store.globalOf(u))))
			}
			for i := range n {
				got += col.getF64(i)
			}
			for _, v := range acc {
				got += math.Float64frombits(v)
			}
			buffered := 0
			for _, buf := range w.writeBufs {
				if buf != nil {
					for rec := buf.Payload(); len(rec) >= writeRecSize; rec = rec[writeRecSize:] {
						got += math.Float64frombits(leU64(rec[8:]))
						buffered++
					}
				}
			}
			if tc.accumulate != (buffered == 0) {
				t.Errorf("%d writes buffered on demand, want some exactly when the job does not accumulate", buffered)
			}
			if len(members) == 0 || got != want {
				t.Errorf("the chunk's %d members pushed %g, want %g", len(members), got, want)
			}
		})
	}
}

// BenchmarkEdgeDispatch isolates the edge-scan budget line: nanoseconds per
// edge of one pull-sum job (the PageRank-pull inner loop, its row kernel
// accumulating in a register), all-local on one machine and in process on two
// machines cut so that about a fifth of the edges are remote reads (the
// measured share is reported as remote_frac). The push rows
// are the write path's: a push job's ns per edge reducing by the row
// (Writer.WriteRow) and ref by ref (Writer.Write), SUM into a float64 property
// and MIN into an int64 one — all-local that is the cost of one local
// reduction, 20 % remote a mix of local reductions and accumulator folds.
// packed-20pct is the same cut loaded with an empty ghost set: every remote
// ref is packed, so a push row leaves its loop once per remote ref for the
// buffered path.
func BenchmarkEdgeDispatch(b *testing.B) {
	g, err := graph.RMAT(14, 16, graph.TwitterLike(), 20151115)
	if err != nil {
		b.Fatal(err)
	}
	for _, place := range []struct {
		name   string
		p      int
		ghosts *partition.GhostSet
		rows   []string
	}{
		{"all-local", 1, nil, []string{"row", "push-sum/row", "push-sum/per-ref", "push-min/row", "push-min/per-ref"}},
		{"remote-20pct", 2, nil, []string{"row", "push-sum/row", "push-sum/per-ref", "push-min/row"}},
		{"packed-20pct", 2, noGhosts, []string{"push-sum/row"}},
	} {
		cfg := DefaultConfig(place.p)
		cfg.Workers = 1
		c, err := NewCluster(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if place.p == 1 {
			err = c.Load(g)
		} else {
			var layout partition.Layout
			if layout, err = partition.SkewedLayout(g, place.p, 0.9); err == nil {
				err = c.LoadPlan(g, layout, place.ghosts)
			}
		}
		if err != nil {
			b.Fatal(err)
		}
		remote := make(map[IterKind]int64)
		for _, m := range c.machines {
			for iter, orient := range map[IterKind]int{IterInEdges: store.OrientIn, IterOutEdges: store.OrientOut} {
				remote[iter] += m.store.remoteRefs(orient)
			}
		}
		src, _ := c.AddPropF64("src")
		dst, _ := c.AddPropF64("dst")
		isrc, _ := c.AddPropI64("isrc")
		idst, _ := c.AddPropI64("idst")
		c.FillF64(src, 1)
		c.FillByNodeI64(isrc, func(v graph.NodeID) int64 { return int64(v) })
		c.FillI64(idst, int64(g.NumNodes()))
		pull := func(kernel Task) JobSpec {
			return JobSpec{Name: "scan", Iter: IterInEdges, Task: kernel, ReadProps: []PropID{src}}
		}
		push := func(src, dst PropID, op reduce.Op, perRef bool) JobSpec {
			return JobSpec{Name: "push", Iter: IterOutEdges, Task: &rowPush{src: src, dst: dst, op: op, perRef: perRef},
				WriteProps: []WriteSpec{{Prop: dst, Op: op}}}
		}
		specs := map[string]JobSpec{
			"row":              pull(&rowPullSum{src: src, dst: dst}),
			"push-sum/row":     push(src, dst, reduce.Sum, false),
			"push-sum/per-ref": push(src, dst, reduce.Sum, true),
			"push-min/row":     push(isrc, idst, reduce.Min, false),
			"push-min/per-ref": push(isrc, idst, reduce.Min, true),
		}
		for _, name := range place.rows {
			spec := specs[name]
			b.Run(fmt.Sprintf("%s/%s", place.name, name), func(b *testing.B) {
				if _, err := c.RunJob(spec); err != nil { // warm-up: pools, side slices
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := c.RunJob(spec); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*g.NumEdges()), "ns/edge")
				b.ReportMetric(float64(remote[spec.Iter])/float64(g.NumEdges()), "remote_frac")
			})
		}
		c.Shutdown()
	}
}
