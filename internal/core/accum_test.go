package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/reduce"
	"repro/internal/store"
)

// rowPushSum is the push twin of rowPullSum: every node reduces its src value
// into dst of each out-neighbor with SUM, by the row. With local set it leaves
// the remote refs out — the scan they ride on, in the same rows on the same
// machines: the row's local refs, compacted into the machine's scratch (one
// worker per machine), still reduce by the row. afterRow, when set, runs once
// the row's writes are issued.
type rowPushSum struct {
	NoReads
	src, dst PropID
	local    []localRefs
	afterRow func(c *Ctx)
}

// localRefs is one machine's scratch, padded so that two machines' slice
// headers, rewritten every row, do not share a cache line.
type localRefs struct {
	refs []int64
	_    [40]byte
}

func (k *rowPushSum) RunRows(c *Ctx, rows *Cursor) { perRow(c, rows, k.row) }

func (k *rowPushSum) row(c *Ctx, row Row) {
	refs := row.Refs
	if k.local != nil {
		buf, n := k.local[c.Machine()].refs[:0], uint64(c.w.m.store.numLocal)
		for _, ref := range refs {
			if uint64(ref) < n { // owned
				buf = append(buf, ref)
			}
		}
		k.local[c.Machine()].refs, refs = buf, buf
	}
	c.Writer(k.dst, reduce.Sum).WriteRow(refs, WordF64(c.GetF64(k.src)))
	if k.afterRow != nil {
		k.afterRow(c)
	}
}

// mixedWriteTask writes three ways per row: the declared property of every
// remote out-neighbor (accumulated when the job is), an undeclared property of
// the same neighbors, and — on each machine's node 0 — the declared property
// at an address no row references.
type mixedWriteTask struct {
	NoReads
	declared, undeclared PropID
	outside              []int64 // per machine: a remote ref outside its remote set
}

func (k *mixedWriteTask) RunRows(c *Ctx, rows *Cursor) { perRow(c, rows, k.row) }

func (k *mixedWriteTask) row(c *Ctx, row Row) {
	decl, undecl := c.Writer(k.declared, reduce.Sum), c.Writer(k.undeclared, reduce.Sum)
	for _, ref := range row.Refs {
		if !c.w.m.store.owns(ref) {
			decl.WriteI64(ref, 3)
			undecl.WriteI64(ref, 5)
		}
	}
	if c.Node == 0 {
		decl.WriteI64(k.outside[c.Machine()], 1000)
	}
}

// TestAccumulateFallsBackOnDemand: next to accumulated writes of the same
// rows, a write to a remote ref the set does not hold (core.RemoteRef to an
// arbitrary slot) and a write of a property missing from WriteProps take the
// on-demand path; a sparse member list and a job with an activating spec are
// on demand altogether. Every result is exact, and the accumulated job reports
// what it folded and shipped: one write_flush span per worker whose args sum to
// the records its accumulators sent.
func TestAccumulateFallsBackOnDemand(t *testing.T) {
	eachFabric(t, func(t *testing.T, useTCP bool) {
		g := testGraph(t)
		const p = 2
		cfg := DefaultConfig(p)
		cfg.Workers = 1 // one accumulator per machine: a full scan ships every address of the set once
		reg := obs.NewRegistry()
		cfg.Obs = reg
		if useTCP {
			cfg.Fabric = innerFabric(t, cfg, true)
			defer cfg.Fabric.Close() //nolint:errcheck
		}
		c := bootCluster(t, g, cfg)
		a, _ := c.AddPropI64("a")
		b, _ := c.AddPropI64("b")
		applied := int64(0) // writes_applied the jobs so far account for
		lastJob := func(counter string) int64 { return reg.LastReport().Counters[counter] }

		// A plain accumulated push first; pick each machine's outside address
		// from the remote set its load came with.
		src, _ := c.AddPropF64("src")
		dst, _ := c.AddPropF64("dst")
		c.FillF64(src, 1)
		if _, err := c.RunJob(JobSpec{Name: "warm-up", Iter: IterOutEdges, Task: &rowPushSum{src: src, dst: dst},
			WriteProps: []WriteSpec{{Prop: dst, Op: reduce.Sum}}}); err != nil {
			t.Fatal(err)
		}
		task := &mixedWriteTask{declared: a, undeclared: b, outside: make([]int64, p)}
		wantA, wantB := make([]int64, g.NumNodes()), make([]int64, g.NumNodes())
		var setSize, remoteRefs int64
		for _, m := range c.machines {
			set, peer := m.store.remote, 1-m.id
			if set.iters[IterOutEdges].size == 0 {
				t.Fatalf("machine %d has an empty remote set", m.id)
			}
			setSize += int64(set.iters[IterOutEdges].size)
			remoteRefs += set.iters[IterOutEdges].refs
			lo, hi := c.layout.Range(peer)
			found := false
			for off := uint32(0); off < uint32(hi-lo) && !found; off++ {
				if slotOf(set, peer, off) < 0 {
					task.outside[m.id], found = RemoteRef(peer, off), true
					wantA[lo+graph.NodeID(off)] += 1000
				}
			}
			if !found {
				t.Fatalf("machine %d references every node of machine %d: no address outside the set", m.id, peer)
			}
		}
		applied += setSize // the warm-up shipped every address once
		for u := 0; u < g.NumNodes(); u++ {
			for _, v := range g.Out.Neighbors(graph.NodeID(u)) {
				if c.layout.Owner(v) != c.layout.Owner(graph.NodeID(u)) {
					wantA[v] += 3
					wantB[v] += 5
				}
			}
		}
		if _, err := c.RunJob(JobSpec{Name: "mixed-writes", Iter: IterOutEdges, Task: task,
			WriteProps: []WriteSpec{{Prop: a, Op: reduce.Sum}}}); err != nil {
			t.Fatal(err)
		}
		gotA, gotB := c.GatherI64(a), c.GatherI64(b)
		for u := range wantA {
			if gotA[u] != wantA[u] || gotB[u] != wantB[u] {
				t.Fatalf("node %d: got a=%d b=%d, want a=%d b=%d", u, gotA[u], gotB[u], wantA[u], wantB[u])
			}
		}
		rep := reg.LastReport()
		if got := rep.Counters["accumulated_writes"]; got != remoteRefs {
			t.Errorf("accumulated_writes = %d, want the declared property's %d remote refs", got, remoteRefs)
		}
		// Applied: the accumulators' one record per address, one on-demand record
		// per remote ref for the undeclared property, one per machine outside.
		applied += setSize + remoteRefs + p
		if got := reg.LifetimeCounters()["writes_applied"]; got != applied {
			t.Errorf("writes_applied = %d after the mixed job, want %d", got, applied)
		}
		var spans int
		var shipped uint64
		for _, s := range rep.Spans {
			if s.Kind == obs.SpanWriteFlush {
				spans++
				shipped += s.Arg
				if s.Worker < 0 {
					t.Errorf("write_flush span on lane %d, want a worker lane", s.Worker)
				}
			}
		}
		if spans != p*cfg.Workers || int64(shipped) != setSize {
			t.Errorf("%d write_flush spans shipping %d records, want %d spans and %d records", spans, shipped, p*cfg.Workers, setSize)
		}
		if line := rep.Line(); !strings.Contains(line, fmt.Sprintf("accum=%d→%d", remoteRefs, setSize)) {
			t.Errorf("job report line does not show the accumulation: %s", line)
		}

		// A sparse member list stays on demand: one applied record per remote ref
		// of the member's row, nothing folded.
		front := c.NewFrontier("one")
		member := graph.NodeID(0)
		for g.OutDegree(member) == 0 {
			member++
		}
		front.Add(member)
		c.FillF64(dst, 0)
		if _, err := c.RunJob(JobSpec{Name: "sparse-push", Iter: IterOutEdges, Source: front, Task: &rowPushSum{src: src, dst: dst},
			WriteProps: []WriteSpec{{Prop: dst, Op: reduce.Sum}}}); err != nil {
			t.Fatal(err)
		}
		if got := lastJob("accumulated_writes"); got != 0 {
			t.Errorf("a sparse member list folded %d writes, want none", got)
		}
		wantDst := make([]float64, g.NumNodes())
		for _, v := range g.Out.Neighbors(member) {
			wantDst[v]++
			if c.layout.Owner(v) != c.layout.Owner(member) {
				applied++
			}
		}
		for u, got := range c.GatherF64(dst) {
			if got != wantDst[u] {
				t.Fatalf("sparse push, node %d: got %g, want %g", u, got, wantDst[u])
			}
		}

		// So does a job with an activating spec: the full scan's remote writes
		// reach their owners one by one and activate there.
		built := c.NewFrontier("built")
		c.FillF64(dst, 0)
		st, err := c.RunJob(JobSpec{Name: "activating-push", Iter: IterOutEdges, Task: &rowPushSum{src: src, dst: dst},
			WriteProps: []WriteSpec{{Prop: dst, Op: reduce.Sum, ActivateInto: 1}}, Build: []*Frontier{built}})
		if err != nil {
			t.Fatal(err)
		}
		if got := lastJob("accumulated_writes"); got != 0 {
			t.Errorf("an activating job folded %d writes, want none", got)
		}
		applied += remoteRefs
		var reached int64
		for u, got := range c.GatherF64(dst) {
			if want := float64(g.InDegree(graph.NodeID(u))); got != want {
				t.Fatalf("activating push, node %d: got %g, want %g", u, got, want)
			}
			if got > 0 {
				reached++
			}
		}
		if st.Frontiers[0].Count != reached {
			t.Errorf("the activating push built a frontier of %d, want the %d nodes it wrote", st.Frontiers[0].Count, reached)
		}
		if got := reg.LifetimeCounters()["writes_applied"]; got != applied {
			t.Errorf("writes_applied = %d after the on-demand jobs, want %d", got, applied)
		}
		if !c.PoolsQuiescent() {
			t.Error("pools not quiescent")
		}
	})

}

// saltedPush runs the push-sum job over source values that depend on salt and
// returns its error, or — on success — the first node whose sum is not the
// reference's. Two runs with different salts share no source value, so a word
// left in an accumulator by the first can not pass for the second's.
func saltedPush(c *Cluster, g *graph.Graph, src, dst PropID, salt int, afterRow func(*Ctx)) error {
	vals := make([]float64, g.NumNodes())
	for u := range vals {
		vals[u] = float64((u+salt)%89 + 100*salt)
	}
	c.FillByNodeF64(src, func(v graph.NodeID) float64 { return vals[v] })
	c.FillF64(dst, 0)
	if _, err := c.RunJob(JobSpec{Name: "accumulated-push", Iter: IterOutEdges,
		Task:       &rowPushSum{src: src, dst: dst, afterRow: afterRow},
		WriteProps: []WriteSpec{{Prop: dst, Op: reduce.Sum}}}); err != nil {
		return err
	}
	want := make([]float64, g.NumNodes())
	for u := range vals {
		for _, v := range g.Out.Neighbors(graph.NodeID(u)) {
			want[v] += vals[u]
		}
	}
	for u, got := range c.GatherF64(dst) {
		if got != want[u] {
			return fmt.Errorf("node %d: got %g, want %g", u, got, want[u])
		}
	}
	return nil
}

// accumCluster boots two machines behind a fault injector with the
// spill armed and small frames, so a flush is several frames and an abort's
// spill file is observable. close tears everything down; it also runs, once,
// when the test ends.
func accumCluster(t *testing.T, useTCP bool, workers int, rules ...comm.FaultRule) (c *Cluster, inj *comm.FaultInjector, spillDir string, close func()) {
	t.Helper()
	cfg := faultCfg(2)
	cfg.Workers = workers
	cfg.BufferSize = 512
	cfg.Timeout = 300 * time.Millisecond
	cfg.SpillWrites, cfg.ResidentBudgetBytes, cfg.SpillDir = true, 256, t.TempDir()
	inj = faultFabric(t, cfg, useTCP, comm.FaultPlan{Seed: 17, Rules: rules})
	cfg.Fabric = inj
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	close = sync.OnceFunc(func() {
		c.Shutdown()
		inj.Close() //nolint:errcheck
	})
	t.Cleanup(close)
	if err := c.Load(faultGraph(t)); err != nil {
		t.Fatal(err)
	}
	return c, inj, cfg.SpillDir, close
}

// TestFaultAccumulatedFlush drops, truncates, delays and hard-fails the k-th
// write frame machine 0's accumulators flush toward machine 1, for every k the
// flush has, over both fabrics and with two workers per machine and one; and
// cancels the job between a machine's last row and its flush. A delay is
// tolerated and the result exact; every other fault aborts the job with its
// root cause, leaves no residue — buffers home, no spill file, every worker
// out of the job — and the immediate rerun, over different source values, is
// exact: an aborted job's accumulators are never read, the next job re-bottoms
// every slot before its first row.
func TestFaultAccumulatedFlush(t *testing.T) {
	g := faultGraph(t)
	eachFabric(t, func(t *testing.T, useTCP bool) {
		for _, kind := range []struct {
			name  string
			kind  comm.FaultKind
			cause string // in the root cause of an abort; "" = the job survives
		}{
			{"drop", comm.FaultDrop, "timed out"},
			{"truncate", comm.FaultTruncate, "write"}, // a truncated or torn write frame
			{"delay", comm.FaultDelay, ""},
			{"fail", comm.FaultFail, "send to 1"},
		} {
			// faultKth runs the job with the stream's k-th frame faulted and
			// reports whether the stream had one.
			faultKth := func(t *testing.T, workers, k int) bool {
				c, inj, spillDir, close := accumCluster(t, useTCP, workers, comm.FaultRule{
					Src: 0, Dst: 1, Type: int(comm.MsgWriteReq), Kind: kind.kind,
					After: k, Limit: 1, Delay: 2 * time.Millisecond, TruncateTo: comm.HeaderSize + 3})
				defer close()
				src, _ := c.AddPropF64("src")
				dst, _ := c.AddPropF64("dst")
				err := saltedPush(c, g, src, dst, 1, nil)
				if st := inj.Stats(); st.Dropped+st.Truncated+st.Delayed+st.Failed == 0 {
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
					t.Fatalf("k=%d: error %v, want ErrJobAborted with %q in its root cause", k, err, kind.cause)
				}
				assertNoResidue(t, c, nil)
				if left := spillFiles(t, spillDir); len(left) != 0 {
					t.Fatalf("k=%d: abort left spill files behind: %v", k, left)
				}
				if err := saltedPush(c, g, src, dst, 2, nil); err != nil {
					t.Fatalf("k=%d: rerun right after the abort: %v", k, err)
				}
				return true
			}
			// Two workers per machine, and one: the one-worker machine folds into
			// its columns' tails (column).
			eachK := func(t *testing.T, workers int) {
				k := 0
				for faultKth(t, workers, k) {
					k++
				}
				if k < 2 {
					t.Fatalf("%d flushed write frame(s) were faulted, want a flush of several", k)
				}
			}
			t.Run(kind.name, func(t *testing.T) {
				eachK(t, 2)
				t.Run("one-worker", func(t *testing.T) { eachK(t, 1) })
			})
		}
		t.Run("cancel", func(t *testing.T) {
			// One worker per machine: its last row is the machine's last, and its
			// flush the only one.
			c, _, spillDir, _ := accumCluster(t, useTCP, 1)
			src, _ := c.AddPropF64("src")
			dst, _ := c.AddPropF64("dst")
			cause := errors.New("deadline between the last row and the flush")
			var rows atomic.Int64
			err := saltedPush(c, g, src, dst, 1, func(ctx *Ctx) {
				if ctx.Machine() == 0 && int(rows.Add(1)) == c.machines[0].store.numLocal {
					c.Cancel(cause)
				}
			})
			if !errors.Is(err, ErrJobAborted) || !errors.Is(err, ErrJobCanceled) || !errors.Is(err, cause) {
				t.Fatalf("RunJob = %v, want ErrJobAborted wrapping ErrJobCanceled and the cause", err)
			}
			assertNoResidue(t, c, nil)
			if left := spillFiles(t, spillDir); len(left) != 0 {
				t.Fatalf("cancel left spill files behind: %v", left)
			}
			c.Uncancel()
			if err := saltedPush(c, g, src, dst, 2, nil); err != nil {
				t.Fatalf("rerun after Uncancel: %v", err)
			}
		})
	})
}

// BenchmarkRemoteWrite is the budget of one remote write (remoteRefBudget): a
// push-sum job whose remote reductions are buffered on demand (the paper's
// protocol), and folded into the worker's accumulator and shipped once.
func BenchmarkRemoteWrite(b *testing.B) {
	push := func(local []localRefs) func(src, dst PropID) JobSpec {
		return func(src, dst PropID) JobSpec {
			return JobSpec{Name: "push", Iter: IterOutEdges, Task: &rowPushSum{src: src, dst: dst, local: local},
				WriteProps: []WriteSpec{{Prop: dst, Op: reduce.Sum}}}
		}
	}
	remoteRefBudget(b, remoteBenchGraph(b), store.OrientOut, push(make([]localRefs, 2)), push(nil),
		[]remoteRefMode{{"on-demand", noGhosts}, {"accumulated", nil}})
}
