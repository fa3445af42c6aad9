package core

import (
	"fmt"
	"math"
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
// one own-node read-modify-write after the loop.
//
// inRow/reentered instrument TestRowKernelReentrancy: inRow[m] holds the node
// machine m's (single) worker is inside RunRow for, plus one; ReadDone counts
// the continuations that ran for that very node meanwhile. staleOwn breaks
// the row contract on purpose — it reads the node's accumulator before the
// loop and stores over it afterwards — to show the test reaches the hazard.
type rowPullSum struct {
	src, dst  PropID
	staleOwn  bool
	inRow     []atomic.Uint32
	reentered atomic.Int64
}

func (k *rowPullSum) RunRow(c *Ctx, row Row) {
	if k.inRow != nil {
		k.inRow[c.Machine()].Store(c.Node + 1)
		defer k.inRow[c.Machine()].Store(0)
	}
	src := c.F64(k.src)
	before := c.GetF64(k.dst)
	var sum float64
	for _, ref := range row.Refs {
		if v, ok := src.At(ref); ok {
			sum += v
		} else {
			c.ReadRef(ref, k.src)
		}
	}
	if k.staleOwn {
		c.SetF64(k.dst, before+sum)
		return
	}
	c.SetF64(k.dst, c.GetF64(k.dst)+sum)
}

func (k *rowPullSum) ReadDone(c *Ctx, val uint64) {
	if k.inRow != nil && k.inRow[c.Machine()].Load() == c.Node+1 {
		k.reentered.Add(1)
	}
	c.SetF64(k.dst, c.GetF64(k.dst)+F64Word(val))
}

// prScaleTask / prApplyTask are PageRank's two node kernels, so the
// re-entrancy test can run the real iteration against sa.PageRank.
type prScaleTask struct {
	NoReads
	pr, scaled PropID
}

func (k *prScaleTask) Run(c *Ctx) {
	if d := c.OutDegree(); d > 0 {
		c.SetF64(k.scaled, c.GetF64(k.pr)/float64(d))
	} else {
		c.SetF64(k.scaled, 0)
	}
}

type prApplyTask struct {
	NoReads
	pr, nxt       PropID
	base, damping float64
}

func (k *prApplyTask) Run(c *Ctx) {
	c.SetF64(k.pr, k.base+k.damping*c.GetF64(k.nxt))
	c.SetF64(k.nxt, 0)
}

// TestRowKernelReentrancy: a row kernel that keeps its accumulator in a
// register must survive continuations of the node it is still scanning.
// PageRank-pull on three machines (a hub's in-row is two thirds remote), eight read records per message and a request pool of one
// buffer: every flush inside a hub row leaves acquireReq stalled on the next
// remote read, and the responses it drains there are for earlier reads of
// that same row (the load replicates nothing: a mirror would answer every one
// of these reads before the row runs). The result must still be SA's. The
// contract-breaking variant of the same kernel (own-node value cached across
// the loop) must not be — otherwise this test would pass without reaching the
// hazard.
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
		pr, _ := c.AddPropF64("pr")
		nxt, _ := c.AddPropF64("nxt")
		scaled, _ := c.AddPropF64("scaled")
		n := float64(g.NumNodes())
		c.FillF64(pr, 1/n)
		c.FillF64(nxt, 0)
		pull := &rowPullSum{src: scaled, dst: nxt, staleOwn: staleOwn, inRow: make([]atomic.Uint32, p)}
		for it := 0; it < iters; it++ {
			for _, spec := range []JobSpec{
				{Name: "scale", Iter: IterNodes, Task: &prScaleTask{pr: pr, scaled: scaled}},
				{Name: "pull", Iter: IterInEdges, Task: pull, ReadProps: []PropID{scaled}},
				{Name: "apply", Iter: IterNodes, Task: &prApplyTask{pr: pr, nxt: nxt, base: (1 - damping) / n, damping: damping}},
			} {
				if _, err := c.RunJob(spec); err != nil {
					t.Fatalf("%s: %v", spec.Name, err)
				}
			}
		}
		for u, v := range c.GatherF64(pr) {
			maxDiff = math.Max(maxDiff, math.Abs(v-want[u]))
		}
		return maxDiff, pull.reentered.Load()
	}

	diff, reentered := run(t, false)
	if reentered == 0 {
		t.Fatal("no continuation ran for a node inside its own RunRow: the pool never stalled mid-row")
	}
	if diff > 1e-12 {
		t.Errorf("row kernel under re-entrancy: max |pr - SA| = %g (%d same-node continuations)", diff, reentered)
	}
	if diff, reentered := run(t, true); reentered > 0 && diff <= 1e-12 {
		t.Errorf("a kernel caching own-node state across ReadRef still matched SA after %d same-node continuations", reentered)
	}
}

// scanJob wires a jobRuntime for worker 0 of machine 0 exactly as runJob
// would for an in-edge scan with kernel, without dispatching it.
func scanJob(c *Cluster, kernel RowTask) (*worker, *jobRuntime) {
	m := c.machines[0]
	w := m.workers[0]
	spec := &JobSpec{Name: "scan", Iter: IterInEdges, Task: kernel}
	jr := m.newJobRuntime(spec, 0)
	w.job, w.cols = jr, m.cols
	return w, jr
}

// TestRowKernelScanAllocatesNothing: a local row scan — chunk walk, row
// slicing, kernel dispatch, typed view, own-node fold — allocates nothing.
func TestRowKernelScanAllocatesNothing(t *testing.T) {
	cfg := DefaultConfig(1)
	c := bootCluster(t, testGraph(t), cfg)
	src, _ := c.AddPropF64("src")
	dst, _ := c.AddPropF64("dst")
	c.FillF64(src, 1)
	c.FillF64(dst, 0)
	w, jr := scanJob(c, &rowPullSum{src: src, dst: dst})
	const runs = 10
	allocs := testing.AllocsPerRun(runs, func() { w.runChunk(jr, &w.ctx, jr.chunks[0]) })
	w.job = nil
	if allocs != 0 {
		t.Errorf("%.1f allocations per chunk scan, want 0", allocs)
	}
	// The scans really ran: node 0's sum is its in-degree per scan
	// (AllocsPerRun adds one warm-up run).
	if got, wantSum := c.GatherF64(dst)[0], float64((runs+1)*int(testGraph(t).InDegree(0))); got != wantSum {
		t.Errorf("node 0 accumulated %g, want %g", got, wantSum)
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
// reduction.
func BenchmarkEdgeDispatch(b *testing.B) {
	g, err := graph.RMAT(14, 16, graph.TwitterLike(), 20151115)
	if err != nil {
		b.Fatal(err)
	}
	for _, place := range []struct {
		name string
		p    int
	}{{"all-local", 1}, {"remote-20pct", 2}} {
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
				err = c.LoadPlan(g, layout, nil)
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
		rows := []struct {
			name string
			spec JobSpec
		}{
			{"row", pull(&rowPullSum{src: src, dst: dst})},
			{"push-sum/row", push(src, dst, reduce.Sum, false)},
			{"push-sum/per-ref", push(src, dst, reduce.Sum, true)},
		}
		if place.p == 1 {
			rows = append(rows, []struct {
				name string
				spec JobSpec
			}{
				{"push-min/row", push(isrc, idst, reduce.Min, false)},
				{"push-min/per-ref", push(isrc, idst, reduce.Min, true)},
			}...)
		}
		for _, k := range rows {
			b.Run(fmt.Sprintf("%s/%s", place.name, k.name), func(b *testing.B) {
				if _, err := c.RunJob(k.spec); err != nil { // warm-up: pools, side slices
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := c.RunJob(k.spec); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*g.NumEdges()), "ns/edge")
				b.ReportMetric(float64(remote[k.spec.Iter])/float64(g.NumEdges()), "remote_frac")
			})
		}
		c.Shutdown()
	}
}
