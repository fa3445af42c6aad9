package core

import (
	"flag"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/reduce"
)

// rowPush reduces the node's own src word into dst of every neighbor in the
// row with op: by one WriteRow, or — perRef — by one Write per ref on a
// handle asked for per ref.
type rowPush struct {
	NoReads
	src, dst PropID
	op       reduce.Op
	perRef   bool
}

func (k *rowPush) RunRows(c *Ctx, rows *Cursor) {
	if k.perRef {
		for rows.Next() {
			word := WordI64(c.GetI64(k.src))
			for _, ref := range rows.Row().Refs {
				c.Writer(k.dst, k.op).Write(ref, word)
			}
		}
		return
	}
	dst := c.Writer(k.dst, k.op)
	for rows.Next() {
		dst.WriteRow(rows.Row().Refs, WordI64(c.GetI64(k.src)))
	}
}

// relaxRow is the weighted row, SSSP's relaxation: dist + weight into dst of
// every neighbor with MIN, through the handle's typed Write or — perRef — one
// raw Write per ref on a handle asked for per ref.
type relaxRow struct {
	NoReads
	src, dst PropID
	perRef   bool
}

func (k *relaxRow) RunRows(c *Ctx, rows *Cursor) { perRow(c, rows, k.row) }

func (k *relaxRow) row(c *Ctx, row Row) {
	d, wr := c.GetF64(k.src), c.Writer(k.dst, reduce.Min)
	for i, ref := range row.Refs {
		if k.perRef {
			c.Writer(k.dst, reduce.Min).Write(ref, WordF64(d+row.Weight(i)))
		} else {
			wr.WriteF64(ref, d+row.Weight(i))
		}
	}
}

// TestWriterOpMustMatchDeclared: a kernel that reduces a property the job
// declares with SUM through a MIN handle fails the job with an error naming
// both operators — accumulated (where the MIN used to fold against SUM's
// bottom and ship as SUM: every node of this graph read -14 against the -7 of
// the on-demand path) and on demand alike — and so does a second operator on
// an undeclared property. The worker survives: the declared operator runs next.
func TestWriterOpMustMatchDeclared(t *testing.T) {
	g := testGraph(t)
	for _, mode := range []struct {
		name   string
		ghosts *partition.GhostSet
	}{{"accumulated", nil}, {"on-demand", noGhosts}} {
		t.Run(mode.name, func(t *testing.T) {
			c := bootGhosts(t, g, DefaultConfig(2), mode.ghosts)
			src, _ := c.AddPropI64("src")
			dst, _ := c.AddPropI64("dst")
			c.FillI64(src, -7)
			spec := JobSpec{Name: "mismatch", Iter: IterOutEdges, Task: &rowPush{src: src, dst: dst, op: reduce.Min},
				WriteProps: []WriteSpec{{Prop: dst, Op: reduce.Sum}}}
			_, err := c.RunJob(spec)
			if err == nil || !strings.Contains(err.Error(), "MIN") || !strings.Contains(err.Error(), "SUM") {
				t.Fatalf("MIN through a {dst, SUM} declaration: err = %v, want one naming both operators", err)
			}
			spec.WriteProps = nil
			spec.Task = &twoOpTask{dst: dst}
			if _, err := c.RunJob(spec); err == nil || !strings.Contains(err.Error(), "MAX") || !strings.Contains(err.Error(), "MIN") {
				t.Fatalf("two operators on an undeclared property: err = %v, want one naming both", err)
			}
			settleQuiescent(t, c)
			c.FillI64(dst, 0)
			spec.Task, spec.WriteProps = &rowPush{src: src, dst: dst, op: reduce.Sum}, []WriteSpec{{Prop: dst, Op: reduce.Sum}}
			if _, err := c.RunJob(spec); err != nil {
				t.Fatal(err)
			}
			for u, got := range c.GatherI64(dst) {
				if want := -7 * g.InDegree(graph.NodeID(u)); got != want {
					t.Fatalf("node %d: %d, want %d", u, got, want)
				}
			}
		})
	}
}

// twoOpTask reduces one property with two operators in one row.
type twoOpTask struct {
	NoReads
	dst PropID
}

func (k *twoOpTask) RunRows(c *Ctx, rows *Cursor) { perRow(c, rows, k.row) }

func (k *twoOpTask) row(c *Ctx, row Row) {
	c.Writer(k.dst, reduce.Min).WriteRow(row.Refs, 1)
	c.Writer(k.dst, reduce.Max).WriteRow(row.Refs, 2)
}

var writeRowSeed = flag.Int64("writerow-seed", 0, "seed of TestWriteRowMatchesPerRefWrite's values (0: the clock)")

// TestWriteRowMatchesPerRefWrite: for every (kind, operator) the engine
// accepts, one WriteRow per row leaves what one Write per ref leaves — the
// column bit for bit, the build frontier, writes_applied and
// accumulated_writes — all-local under CAS contention, accumulated, on demand,
// under an activating spec and with the remote set capped at eight vertices,
// over both fabrics; and a weighted row through the
// typed Write leaves what a raw Write per ref does. The two one-worker
// modes reduce locally with plain stores, and their row form must also leave
// what the CAS loop of their several-worker twin left. Sources and initial
// values are seeded, dyadic so that float sums are exact in any order.
func TestWriteRowMatchesPerRefWrite(t *testing.T) {
	seed := *writeRowSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	t.Logf("-writerow-seed %d", seed)
	g, err := graph.RMAT(9, 8, graph.TwitterLike(), seed)
	if err != nil {
		t.Fatal(err)
	}
	g = g.WithUniformWeights(0.5, 4, seed)
	rng := rand.New(rand.NewSource(seed))
	srcVal, dstVal := make([]int64, g.NumNodes()), make([]int64, g.NumNodes())
	for u := range srcVal {
		srcVal[u] = (rng.Int63n(1000) + 1) * (2*rng.Int63n(2) - 1) // never 0: every SUM changes its target
		dstVal[u] = rng.Int63n(1000) - 500
	}
	type mode struct {
		name                string
		p, workers          int
		ghosts              *partition.GhostSet // the load's replica cap
		declare, activating bool
		cas                 string // the mode whose CAS loop this one-worker mode's plain loop must match
	}
	modes := []mode{
		{name: "all-local", p: 1, declare: true},
		{name: "all-local/one-worker", p: 1, workers: 1, declare: true, cas: "all-local"},
		{name: "accumulated", p: 2, workers: 1, declare: true},
		{name: "on-demand", p: 2, ghosts: noGhosts, declare: true},
		{name: "undeclared", p: 2},
		{name: "activating", p: 2, declare: true, activating: true},
		{name: "activating/one-worker", p: 2, workers: 1, declare: true, activating: true, cas: "activating"},
		{name: "capped", p: 2, workers: 1, ghosts: partition.SelectTopGhosts(g, 8), declare: true},
	}
	type outcome struct {
		words           []uint64
		front           [][]uint64
		applied, folded int64
	}
	eachFabric(t, func(t *testing.T, useTCP bool) {
		rowOutcomes := map[string]outcome{} // by mode and case, the row form's
		for _, md := range modes {
			t.Run(md.name, func(t *testing.T) {
				cfg := DefaultConfig(md.p)
				if md.workers > 0 {
					cfg.Workers = md.workers
				}
				reg := obs.NewRegistry()
				cfg.Obs = reg
				cfg.Fabric = innerFabric(t, cfg, useTCP)
				defer cfg.Fabric.Close() //nolint:errcheck
				c := bootGhosts(t, g, cfg, md.ghosts)
				src, dst := map[PropKind]PropID{}, map[PropKind]PropID{}
				src[KindI64], _ = c.AddPropI64("isrc")
				dst[KindI64], _ = c.AddPropI64("idst")
				src[KindF64], _ = c.AddPropF64("fsrc")
				dst[KindF64], _ = c.AddPropF64("fdst")
				// fill sets p's word on every node to what raw means for (kind, op):
				// the integer itself; a quarter of it as a float64, so that sums are
				// exact in any order; its parity where a float64 reduction is logical
				// (OR, AND).
				fill := func(p PropID, kind PropKind, op reduce.Op, raw func(v graph.NodeID) int64) {
					c.mustParallel(func(m *Machine) {
						for i := 0; i < m.store.numLocal; i++ {
							switch r := raw(m.store.globalOf(uint32(i))); {
							case kind == KindI64:
								m.cols[p].setI64(i, r)
							case op == reduce.Or || op == reduce.And:
								m.cols[p].setF64(i, float64(r&1))
							default:
								m.cols[p].setF64(i, float64(r)/4)
							}
						}
					})
				}
				built := c.NewFrontier("built")

				// run executes one job from the same initial state and returns what
				// it left: the column's words, the frontier's bitmaps, the counters.
				run := func(kind PropKind, op reduce.Op, spec JobSpec) (words []uint64, front [][]uint64, applied, folded int64) {
					fill(dst[kind], kind, op, func(v graph.NodeID) int64 { return dstVal[v] })
					before := reg.LifetimeCounters()
					if _, err := c.RunJob(spec); err != nil {
						t.Fatalf("seed %d: %s: %v", seed, spec.Name, err)
					}
					var sent int64
					for _, m := range c.machines {
						for _, w := range m.workers {
							for _, n := range w.sentTo {
								sent += n
							}
						}
						for i := range m.cols[dst[kind]].vals {
							words = append(words, m.cols[dst[kind]].load(i))
						}
						front = append(front, slices.Clone(built.machines[m.id].bits))
					}
					after := reg.LifetimeCounters()
					applied = after["writes_applied"] - before["writes_applied"]
					if applied != sent { // the drain replays every record sent before RunJob returns
						t.Errorf("seed %d: %s: %d write records applied, %d sent", seed, spec.Name, applied, sent)
					}
					return words, front, applied, after["accumulated_writes"] - before["accumulated_writes"]
				}
				compare := func(name string, kind PropKind, op reduce.Op, spec func(perRef bool) JobSpec) {
					rowWords, rowFront, rowApplied, rowFolded := run(kind, op, spec(false))
					refWords, refFront, refApplied, refFolded := run(kind, op, spec(true))
					if !slices.Equal(rowWords, refWords) {
						t.Errorf("seed %d: %s: the row form's column differs from the per-ref form's", seed, name)
					}
					for m := range rowFront {
						if !slices.Equal(rowFront[m], refFront[m]) {
							t.Errorf("seed %d: %s: machine %d's build frontier differs", seed, name, m)
						}
					}
					if rowApplied != refApplied || rowFolded != refFolded {
						t.Errorf("seed %d: %s: row form applied %d and folded %d writes, per-ref form %d and %d",
							seed, name, rowApplied, rowFolded, refApplied, refFolded)
					}
					if md.name == "accumulated" && rowFolded == 0 && op != reduce.Overwrite {
						t.Errorf("seed %d: %s: nothing was folded", seed, name)
					}
					rowOutcomes[md.name+"|"+name] = outcome{rowWords, rowFront, rowApplied, rowFolded}
					if cas, ok := rowOutcomes[md.cas+"|"+name]; ok && md.cas != "" {
						if !slices.Equal(rowWords, cas.words) || !slices.EqualFunc(rowFront, cas.front, slices.Equal) ||
							rowApplied != cas.applied || rowFolded != cas.folded {
							t.Errorf("seed %d: %s: the plain loop (one worker) left another column, frontier or count than the CAS loop (%s)", seed, name, md.cas)
						}
					}
				}
				writeSpec := func(kind PropKind, op reduce.Op) (ws []WriteSpec, build []*Frontier) {
					if md.declare && op != reduce.Overwrite { // a declaration takes a commutative reduction
						ws = []WriteSpec{{Prop: dst[kind], Op: op}}
						if md.activating {
							ws[0].ActivateInto, build = 1, []*Frontier{built}
						}
					}
					return ws, build
				}
				for _, kind := range []PropKind{KindI64, KindF64} {
					for op := reduce.Sum; op <= reduce.Overwrite; op++ {
						name := fmt.Sprintf("%v/%v", kind, op)
						fill(src[kind], kind, op, func(v graph.NodeID) int64 {
							if op == reduce.Overwrite { // its result depends on the order unless every write carries one value
								v = 0
							}
							return srcVal[v]
						})
						compare(name, kind, op, func(perRef bool) JobSpec {
							spec := JobSpec{Name: name, Iter: IterOutEdges,
								Task: &rowPush{src: src[kind], dst: dst[kind], op: op, perRef: perRef}}
							spec.WriteProps, spec.Build = writeSpec(kind, op)
							return spec
						})
					}
				}
				fill(src[KindF64], KindF64, reduce.Min, func(v graph.NodeID) int64 { return srcVal[v] })
				compare("weighted", KindF64, reduce.Min, func(perRef bool) JobSpec {
					spec := JobSpec{Name: "weighted", Iter: IterOutEdges,
						Task: &relaxRow{src: src[KindF64], dst: dst[KindF64], perRef: perRef}}
					spec.WriteProps, spec.Build = writeSpec(KindF64, reduce.Min)
					return spec
				})
			})
		}
	})
}

// TestApplyWritesByRun: a frame whose records interleave (property, operator)
// pairs — runs of one, of two, a pair that comes back, one that spans the
// replay's chunks — lands record by record in frame order, operators without a
// loop of their own included.
func TestApplyWritesByRun(t *testing.T) {
	const long = 3*applyChunk + 7 // +1 into val[3], long times
	recs := [][2]uint64{
		{writeMeta(0, reduce.Sum, 1), 3}, {writeMeta(0, reduce.Sum, 2), 4},
		{writeMeta(1, reduce.Max, 0), WordF64(2)},
		{writeMeta(0, reduce.Sum, 3), 5}, {writeMeta(0, reduce.Min, 3), 1},
		{writeMeta(1, reduce.Sum, 1), WordF64(0.5)}, {writeMeta(1, reduce.Sum, 2), WordF64(0.25)},
		{writeMeta(0, reduce.Or, 4), 8}, {writeMeta(0, reduce.Overwrite, 4), 9},
	}
	for i := 0; i < long; i++ {
		recs = append(recs, [2]uint64{writeMeta(1, reduce.Sum, 3), WordF64(1)})
	}
	m, cnt, val := applyWritesCluster(t)
	if err := m.applyWrites(nil, uint32(len(recs)), rawWrites(recs...)); err != nil {
		t.Fatal(err)
	}
	for i, want := range []int64{7, 10, 11, 1, 9} {
		if got := m.cols[cnt].getI64(i); got != want {
			t.Errorf("cnt[%d] = %d, want %d", i, got, want)
		}
	}
	for i, want := range []float64{7, 7.5, 7.25, 7 + long} {
		if got := m.cols[val].getF64(i); got != want {
			t.Errorf("val[%d] = %g, want %g", i, got, want)
		}
	}
}

// routedWrites wraps machine 0's endpoint to count the write frames its router
// has routed to the copiers. A frame counts when the poller comes back to Recv
// for the next one, having routed it, so a count read together with
// PendingRequests never runs ahead of the router.
type routedWrites struct {
	comm.Fabric
	n atomic.Int64
}

// InMemory forwards the wrapped fabric's answer, like the injector does.
func (f *routedWrites) InMemory() bool { return comm.InMemoryFabric(f.Fabric) }

func (f *routedWrites) Endpoint(m int) (comm.Endpoint, error) {
	ep, err := f.Fabric.Endpoint(m)
	if err != nil || m != 0 {
		return ep, err
	}
	return &routedWritesEndpoint{Endpoint: ep, f: f}, nil
}

type routedWritesEndpoint struct {
	comm.Endpoint
	f     *routedWrites
	write bool // the frame Recv last returned was a write frame (the poller's goroutine only)
}

func (e *routedWritesEndpoint) Recv() (*comm.Buffer, bool) {
	if e.write {
		e.f.n.Add(1)
	}
	buf, ok := e.Endpoint.Recv()
	e.write = ok && comm.MsgType(buf.Data[0]) == comm.MsgWriteReq
	return buf, ok
}

// Quiesce forwards to the inner endpoint; the pool leak checks rely on this
// passing through every wrapper.
func (e *routedWritesEndpoint) Quiesce() {
	if q, ok := e.Endpoint.(interface{ Quiesce() }); ok {
		q.Quiesce()
	}
}

// drainProbe is TestRemoteWritesLandInTheDrain's node pass. Machine 1's first
// node reduces 5 into machine 0's first node, on demand: the job declares no
// write props, so the record ships in a frame of its own when the worker runs
// dry. Machine 0's first node waits, inside its own task phase, until that
// frame has been routed and served, and then reads the word it targets.
type drainProbe struct {
	NoReads
	x        PropID
	routed   *atomic.Int64
	router   *comm.Router
	deadline time.Time
	seen     atomic.Int64 // the word machine 0's kernel read; -1: the frame never came
}

func (k *drainProbe) RunNodes(c *Ctx, nodes *Cursor) { perNode(c, nodes, k.node) }

func (k *drainProbe) node(c *Ctx) {
	switch {
	case c.Machine() == 1 && c.Node == 0:
		c.Writer(k.x, reduce.Sum).Write(RemoteRef(0, 0), 5)
	case c.Machine() == 0 && c.Node == 0:
		for k.routed.Load() == 0 || k.router.PendingRequests() != 0 {
			if time.Now().After(k.deadline) {
				k.seen.Store(-1)
				return
			}
			runtime.Gosched()
		}
		k.seen.Store(c.GetI64(k.x))
	}
}

// TestRemoteWritesLandInTheDrain pins the semantics a kernel can observe of
// the one receive policy: a remote write is visible at its owner from the
// job's drain on. The owner's copier has received and served the frame while
// the owner's own kernel still runs, and that kernel reads the pre-job word;
// the reduced word is there once RunJob returns.
func TestRemoteWritesLandInTheDrain(t *testing.T) {
	eachFabric(t, func(t *testing.T, useTCP bool) {
		cfg := faultCfg(2)
		cfg.Workers = 1
		fab := &routedWrites{Fabric: innerFabric(t, cfg, useTCP)}
		defer fab.Close()
		cfg.Fabric = fab
		c := bootCluster(t, testGraph(t), cfg)
		x, _ := c.AddPropI64("x")
		c.FillI64(x, 7)
		k := &drainProbe{x: x, routed: &fab.n, router: c.machines[0].router, deadline: time.Now().Add(10 * time.Second)}
		if _, err := c.RunJob(JobSpec{Name: "drain-probe", Iter: IterNodes, Task: k}); err != nil {
			t.Fatal(err)
		}
		switch seen := k.seen.Load(); seen {
		case -1:
			t.Fatal("machine 1's write frame never reached machine 0's copiers during its task phase")
		case 7:
		default:
			t.Errorf("machine 0's kernel read %d after its copier served the write frame, want the pre-job 7: a remote write landed inside the task phase", seen)
		}
		if got := c.GatherI64(x)[c.Layout().GlobalOf(0, 0)]; got != 12 {
			t.Errorf("node 0 holds %d after the job, want 7 + 5", got)
		}
	})
}
