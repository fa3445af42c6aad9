package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codec"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/reduce"
	"repro/internal/store"
)

// The micro loops time one layer's public function in isolation, so each
// line of a workload's budget has a matching number that no other layer
// touches (the paper's Fig 5a/5b/8a structure). Each is measured once per
// traced run, under the workload its prediction names first, as the median
// of microReps batches.
const microReps = 5

// medianTime runs fn microReps times and returns the median duration in
// seconds.
func medianTime(fn func()) float64 {
	ds := make([]float64, microReps)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = time.Since(t0).Seconds()
	}
	return median(ds)
}

func (h *harness) micro(name string, fn func() (float64, error)) {
	var v float64
	var err error
	h.tr.timed("micro."+name, func() { v, err = fn() })
	if err != nil {
		h.fail("%s: micro %s: %v", h.cfg.workload, name, err)
		return
	}
	h.vals[name] = v
}

// loops shrinks a loop count for -tiny.
func (h *harness) loops(n int) int {
	if h.cfg.tiny {
		if n /= 20; n < 2 {
			n = 2
		}
	}
	return n
}

// --- graph, partition (scan-local) --------------------------------------------

func microScanLocal(h *harness, inst instance) {
	g := inst.(*twt).g
	edges := g.EdgeList()
	h.micro("graph.csr_build_medges_per_s", func() (float64, error) {
		var err error
		s := medianTime(func() { _, err = graph.FromEdges(g.NumNodes(), edges, false) })
		return float64(len(edges)) / s / 1e6, err
	})
	h.micro("partition.compute_ms", func() (float64, error) {
		var err error
		s := medianTime(func() { _, err = partition.Compute(g, 2, partition.EdgeBalanced) })
		return s * 1e3, err
	})
	h.micro("partition.ghost_select_ms", func() (float64, error) {
		// GhostAuto's threshold: four times the average total degree.
		thr := 4 * 2 * g.NumEdges() / int64(g.NumNodes())
		return medianTime(func() { partition.SelectGhosts(g, thr) }) * 1e3, nil
	})
}

// --- comm helpers ---------------------------------------------------------------

// commNode is one machine of a bare comm-layer cluster: endpoint, router,
// collectives — no engine.
type commNode struct {
	ep     comm.Endpoint
	router *comm.Router
	col    *comm.Collectives
}

// commCluster boots p comm nodes over fabric and runs fn on each as its
// main goroutine, then tears everything down.
func commCluster(fabric comm.Fabric, p int, fn func(m int, n *commNode) error) error {
	nodes := make([]*commNode, p)
	for m := range nodes {
		ep, err := fabric.Endpoint(m)
		if err != nil {
			return err
		}
		r := comm.NewRouter(ep, comm.RouterConfig{NumWorkers: 1})
		nodes[m] = &commNode{ep: ep, router: r, col: comm.NewCollectives(ep, r.Ctrl(), comm.NewPool(16, 8192))}
	}
	errs := make([]error, p)
	var wg sync.WaitGroup
	for m, n := range nodes {
		wg.Add(1)
		go func(m int, n *commNode) {
			defer wg.Done()
			errs[m] = fn(m, n)
		}(m, n)
	}
	wg.Wait()
	for _, n := range nodes {
		n.ep.Close() //nolint:errcheck // teardown
		n.router.Shutdown()
	}
	fabric.Close() //nolint:errcheck
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func newTCP(p int) (comm.Fabric, error) {
	return comm.NewTCPFabricOpts(p, 64, 32<<10, comm.TCPOptions{})
}

// collectiveUS times n rounds of op on a 2-machine comm cluster and returns
// microseconds per round as machine 0 saw them.
func collectiveUS(fabric comm.Fabric, n int, op func(c *comm.Collectives) error) (float64, error) {
	var us float64
	err := commCluster(fabric, 2, func(m int, node *commNode) error {
		batch := func() error {
			for i := 0; i < n; i++ {
				if err := op(node.col); err != nil {
					return err
				}
			}
			return nil
		}
		if err := batch(); err != nil { // warm-up: connections, pools
			return err
		}
		ds := make([]float64, microReps)
		for r := range ds {
			t0 := time.Now()
			if err := batch(); err != nil {
				return err
			}
			ds[r] = time.Since(t0).Seconds()
		}
		if m == 0 {
			us = median(ds) / float64(n) * 1e6
		}
		return nil
	})
	return us, err
}

// peerLoop opens both endpoints of a 2-machine fabric, hands every frame
// machine 1 receives to onFrame, runs batch from machine 0 once to warm up
// and then microReps times, and tears the fabric down. It returns the median
// batch time in seconds.
func peerLoop(fabric comm.Fabric, onFrame func(ep1 comm.Endpoint, buf *comm.Buffer) error, batch func(ep0 comm.Endpoint) error) (float64, error) {
	defer fabric.Close() //nolint:errcheck // teardown
	ep0, err := fabric.Endpoint(0)
	if err != nil {
		return 0, err
	}
	defer ep0.Close() //nolint:errcheck
	ep1, err := fabric.Endpoint(1)
	if err != nil {
		return 0, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			buf, ok := ep1.Recv()
			if !ok || onFrame(ep1, buf) != nil {
				return
			}
		}
	}()
	defer func() {
		ep1.Close() //nolint:errcheck
		<-done
	}()
	var fail error
	run := func() {
		if fail == nil {
			fail = batch(ep0)
		}
	}
	run()
	return medianTime(run), fail
}

// rttUS bounces a small frame between two endpoints n times per batch.
func rttUS(fabric comm.Fabric, n int) (float64, error) {
	pool := comm.NewPool(4, 4096)
	s, err := peerLoop(fabric,
		func(ep1 comm.Endpoint, buf *comm.Buffer) error { return ep1.Send(0, buf) }, // echo
		func(ep0 comm.Endpoint) error {
			for i := 0; i < n; i++ {
				buf := pool.Acquire()
				buf.Reset(comm.Header{Type: comm.MsgCtrl, Aux: uint64(i)})
				if err := ep0.Send(1, buf); err != nil {
					return err
				}
				resp, ok := ep0.Recv()
				if !ok {
					return fmt.Errorf("endpoint closed mid round trip")
				}
				resp.Release()
			}
			return nil
		})
	return s / float64(n) * 1e6, err
}

// --- comm over TCP, codec encode (pull-tcp) -------------------------------------

func microPullTCP(h *harness, inst instance) {
	n := h.loops(2000)
	h.micro("comm.barrier_tcp_us", func() (float64, error) {
		f, err := newTCP(2)
		if err != nil {
			return 0, err
		}
		return collectiveUS(f, n, func(c *comm.Collectives) error { return c.Barrier() })
	})
	h.micro("comm.allreduce_tcp_us", func() (float64, error) {
		f, err := newTCP(2)
		if err != nil {
			return 0, err
		}
		return collectiveUS(f, n, func(c *comm.Collectives) error { _, err := c.AllReduceSumI64(1); return err })
	})
	h.micro("comm.inproc_rtt_us", func() (float64, error) {
		return rttUS(comm.NewInProcFabric(2, 64), n)
	})
	h.micro("comm.tcp_rtt_us", func() (float64, error) {
		f, err := newTCP(2)
		if err != nil {
			return 0, err
		}
		return rttUS(f, n)
	})
	rows, total := adjacencyRows(inst.(*twt).g)
	h.micro("codec.encode_mb_per_s", func() (float64, error) {
		var dst []byte
		s := medianTime(func() {
			for _, row := range rows {
				dst = codec.AppendZigZagDeltaRow(dst[:0], row)
			}
		})
		return float64(8*total) / s / 1e6, nil
	})
}

// adjacencyRows returns the graph's sorted out-adjacency as int64 rows — the
// data the wire and store codecs see — and the number of values.
func adjacencyRows(g *graph.Graph) ([][]int64, int) {
	rows := make([][]int64, 0, g.NumNodes())
	flat := make([]int64, g.NumEdges())
	total := 0
	for v := 0; v < g.NumNodes(); v++ {
		nb := g.Out.Neighbors(graph.NodeID(v))
		row := flat[total : total+len(nb)]
		for i, u := range nb {
			row[i] = int64(u)
		}
		total += len(nb)
		rows = append(rows, row)
	}
	return rows, total
}

// --- TCP stream, buffer append, reduce atomics (push-tcp) -------------------------

func microPushTCP(h *harness, _ instance) {
	const frame = 32 << 10
	frames := h.loops(2000)
	h.micro("comm.tcp_stream_mb_per_s", func() (float64, error) {
		f, err := newTCP(2)
		if err != nil {
			return 0, err
		}
		got := make(chan struct{}, 1) // one token per received batch
		seen := 0
		pool := comm.NewPool(32, frame)
		s, err := peerLoop(f,
			func(_ comm.Endpoint, buf *comm.Buffer) error {
				buf.Release()
				if seen++; seen%frames == 0 {
					got <- struct{}{}
				}
				return nil
			},
			func(ep0 comm.Endpoint) error {
				for i := 0; i < frames; i++ {
					buf := pool.Acquire()
					buf.Reset(comm.Header{Type: comm.MsgWriteReq})
					buf.Data = buf.Data[:cap(buf.Data)]
					if err := ep0.Send(1, buf); err != nil {
						return err
					}
				}
				<-got
				return nil
			})
		return float64(frames) * frame / s / 1e6, err
	})
	h.micro("comm.buffer_append_mb_per_s", func() (float64, error) {
		pool := comm.NewPool(1, 256<<10)
		buf := pool.Acquire()
		defer buf.Release()
		fills := h.loops(400)
		s := medianTime(func() {
			for i := 0; i < fills; i++ {
				buf.Reset(comm.Header{Type: comm.MsgWriteReq})
				for buf.Room() >= 16 {
					buf.AppendU64(uint64(i))
					buf.AppendU64(uint64(i) * 3)
				}
			}
		})
		return float64(fills) * float64(buf.Cap()) / s / 1e6, nil
	})
	ops := h.loops(2_000_000)
	for _, c := range []struct {
		name string
		op   reduce.Op
	}{{"reduce.atomic_sum_f64_ns", reduce.Sum}, {"reduce.atomic_min_f64_ns", reduce.Min}} {
		h.micro(c.name, func() (float64, error) {
			var word atomic.Uint64
			s := medianTime(func() {
				for i := 0; i < ops; i++ {
					reduce.AtomicApplyF64(&word, c.op, float64(i%7))
				}
			})
			return s / float64(ops) * 1e9, nil
		})
	}
}

// --- chunking, empty job, in-process barrier (microstep) --------------------------

// noopTask is the empty kernel: a job over it measures what the engine
// spends on a superstep that has nothing to do.
type noopTask struct{ core.NoReads }

func (noopTask) Run(*core.Ctx) {}

func microMicrostep(h *harness, inst instance) {
	w := inst.(*microstep)
	h.micro("partition.edge_chunks_us", func() (float64, error) {
		// One machine's rows, cut at the engine's default target of about
		// eight chunks per worker.
		lo, hi := w.ck.Layout().Range(0)
		rows := w.gk.Out.Rows[lo : hi+1]
		workers, _ := h.engineShape(2)
		target := (rows[len(rows)-1] - rows[0]) / int64(8*workers)
		n := h.loops(200)
		s := medianTime(func() {
			for i := 0; i < n; i++ {
				partition.EdgeChunks(rows, target)
			}
		})
		return s / float64(n) * 1e6, nil
	})
	g, err := graph.Uniform(1024, 4096, 1)
	if err != nil {
		h.fail("microstep: micro graph: %v", err)
		return
	}
	c, closer, err := h.boot(h.engineConfig(2, nil), func(c *core.Cluster) error { return c.Load(g) })
	if err != nil {
		h.fail("microstep: micro cluster: %v", err)
		return
	}
	defer closer()
	n := h.loops(1000)
	h.micro("core.empty_job_us", func() (float64, error) {
		spec := core.JobSpec{Name: "empty", Iter: core.IterNodes, Task: noopTask{}}
		var err error
		s := medianTime(func() {
			for i := 0; i < n && err == nil; i++ {
				_, err = c.RunJob(spec)
			}
		})
		return s / float64(n) * 1e6, err
	})
	h.micro("comm.barrier_inproc_us", func() (float64, error) {
		return collectiveUS(comm.NewInProcFabric(2, 256), h.loops(5000), func(c *comm.Collectives) error { return c.Barrier() })
	})
}

// --- codec decode, cold pin (ooc-store) -------------------------------------------

func microOOCStore(h *harness, inst instance) {
	w := inst.(*oocStore)
	rows, total := adjacencyRows(w.g)
	h.micro("codec.decode_mb_per_s", func() (float64, error) {
		var enc []byte
		offs := make([]int, len(rows)+1)
		for i, row := range rows {
			enc = codec.AppendZigZagDeltaRow(enc, row)
			offs[i+1] = len(enc)
		}
		out := make([]int64, 0, 1<<16)
		limit := int64(w.g.NumNodes())
		bad := false
		s := medianTime(func() {
			for i, row := range rows {
				if _, _, ok := codec.DecodeZigZagDeltaRow(enc[offs[i]:offs[i+1]], len(row), limit, out[:0]); !ok {
					bad = true
				}
			}
		})
		if bad {
			return 0, fmt.Errorf("row failed to decode")
		}
		return float64(8*total) / s / 1e6, nil
	})
	h.micro("store.pin_cold_mb_per_s", func() (float64, error) {
		// A fresh Open has a fresh, unbounded decode cache, so every Pin
		// decodes; only the pins are timed, not Open's validation scan.
		rates := make([]float64, microReps)
		for r := range rates {
			rate, err := coldPinRate(w.f3.Path())
			if err != nil {
				return 0, err
			}
			rates[r] = rate
		}
		return median(rates), nil
	})
}

// coldPinRate opens path, pins every block of every section once and
// returns decoded MB per second of pinning.
func coldPinRate(path string) (float64, error) {
	sf, err := store.Open(path)
	if err != nil {
		return 0, err
	}
	defer sf.Close() //nolint:errcheck // read-only mapping
	dc, err := sf.EnsureDecodeCache(-1)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	for mach := 0; mach < sf.NumMachines(); mach++ {
		nrows := int64(len(sf.Section(mach).OutRows) - 1)
		for orient := 0; orient < 2; orient++ {
			tok, err := dc.Pin(mach, orient, 0, nrows)
			if err != nil {
				return 0, err
			}
			tok.Release()
		}
	}
	s := time.Since(t0).Seconds()
	return float64(dc.Stats().DecodedBytes) / s / 1e6, nil
}

// --- protocol round trip (serve-mixed) ---------------------------------------------

func microServeMixed(h *harness, inst instance) {
	w := inst.(*serveMixed)
	n := h.loops(400)
	h.micro("server.protocol_us", func() (float64, error) {
		var err error
		s := medianTime(func() {
			for i := 0; i < n && err == nil; i++ {
				_, err = w.admin.Stats()
			}
		})
		return s / float64(n) * 1e6, err
	})
}
