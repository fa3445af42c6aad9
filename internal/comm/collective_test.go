package comm

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/reduce"
)

// clusterHarness boots P routers + collectives over an in-proc fabric and
// runs fn as each machine's main goroutine.
func clusterHarness(t *testing.T, p int, fn func(m int, col *Collectives, r *Router)) {
	t.Helper()
	f := NewInProcFabric(p, 1024)
	var wg sync.WaitGroup
	routers := make([]*Router, p)
	for m := 0; m < p; m++ {
		ep, err := f.Endpoint(m)
		if err != nil {
			t.Fatal(err)
		}
		routers[m] = NewRouter(ep, RouterConfig{NumWorkers: 2, RespDepth: 64, ReqDepth: 64, CtrlDepth: 64})
		pool := NewPool(16, 8192)
		col := NewCollectives(ep, routers[m].Ctrl(), pool)
		wg.Add(1)
		go func(m int, col *Collectives, r *Router) {
			defer wg.Done()
			fn(m, col, r)
		}(m, col, routers[m])
	}
	wg.Wait()
	for _, r := range routers {
		r.Shutdown()
	}
}

// TestBarrierSynchronizes: no machine leaves a barrier before every machine
// entered it, and a barrier costs one header-only frame each way between the
// root and every other machine.
func TestBarrierSynchronizes(t *testing.T) {
	const p = 5
	const rounds = 20
	var phase atomic.Int64
	counts := make([]atomic.Int64, rounds)
	clusterHarness(t, p, func(m int, col *Collectives, r *Router) {
		defer func() {
			frames := int64(rounds) // one arrival per barrier to the root
			if m == 0 {
				frames *= p - 1 // one release per barrier to every other machine
			}
			if met := col.ep.Metrics(); met.FramesSent() != frames || met.BytesSent() != frames*HeaderSize {
				t.Errorf("machine %d sent %d frames, %d bytes over %d barriers; want %d, %d",
					m, met.FramesSent(), met.BytesSent(), rounds, frames, frames*HeaderSize)
			}
		}()
		for i := 0; i < rounds; i++ {
			counts[i].Add(1)
			if err := col.Barrier(); err != nil {
				t.Errorf("machine %d barrier %d: %v", m, i, err)
				return
			}
			// After the barrier, every machine must have entered round i.
			if got := counts[i].Load(); got != p {
				t.Errorf("machine %d after barrier %d: only %d arrivals", m, i, got)
				return
			}
			phase.Add(1)
		}
	})
	if phase.Load() != p*rounds {
		t.Errorf("phases completed = %d, want %d", phase.Load(), p*rounds)
	}
}

func TestBarrierSingleMachine(t *testing.T) {
	clusterHarness(t, 1, func(m int, col *Collectives, r *Router) {
		for i := 0; i < 3; i++ {
			if err := col.Barrier(); err != nil {
				t.Errorf("barrier: %v", err)
			}
		}
	})
}

func TestAllReduceF64(t *testing.T) {
	for _, p := range []int{1, 2, 4, 7} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			clusterHarness(t, p, func(m int, col *Collectives, r *Router) {
				vals := []float64{float64(m + 1), float64(m * m), 1}
				if err := col.AllReduceF64(vals, reduce.Sum); err != nil {
					t.Errorf("allreduce: %v", err)
					return
				}
				wantSum0 := float64(p*(p+1)) / 2
				var wantSum1 float64
				for i := 0; i < p; i++ {
					wantSum1 += float64(i * i)
				}
				if vals[0] != wantSum0 || vals[1] != wantSum1 || vals[2] != float64(p) {
					t.Errorf("machine %d got %v, want [%g %g %d]", m, vals, wantSum0, wantSum1, p)
				}
			})
		})
	}
}

func TestAllReduceI64MinMax(t *testing.T) {
	const p = 4
	clusterHarness(t, p, func(m int, col *Collectives, r *Router) {
		mins := []int64{int64(10 + m)}
		if err := col.AllReduceI64(mins, reduce.Min); err != nil {
			t.Errorf("%v", err)
			return
		}
		if mins[0] != 10 {
			t.Errorf("machine %d: min = %d, want 10", m, mins[0])
		}
		maxs := []int64{int64(10 + m)}
		if err := col.AllReduceI64(maxs, reduce.Max); err != nil {
			t.Errorf("%v", err)
			return
		}
		if maxs[0] != 10+p-1 {
			t.Errorf("machine %d: max = %d, want %d", m, maxs[0], 10+p-1)
		}
	})
}

func TestAllReduceConvenience(t *testing.T) {
	const p = 3
	clusterHarness(t, p, func(m int, col *Collectives, r *Router) {
		si, err := col.AllReduceSumI64(int64(m + 1))
		if err != nil || si != 6 {
			t.Errorf("machine %d: sum i64 = %d (%v), want 6", m, si, err)
		}
		sf := []float64{0.5}
		if err := col.AllReduceF64(sf, reduce.Sum); err != nil || sf[0] != 1.5 {
			t.Errorf("machine %d: sum f64 = %g (%v), want 1.5", m, sf[0], err)
		}
	})
}

// Mixed sequences of collectives must not cross-match frames even when some
// machines race ahead.
func TestCollectiveSequences(t *testing.T) {
	const p = 4
	clusterHarness(t, p, func(m int, col *Collectives, r *Router) {
		for i := 0; i < 10; i++ {
			v, err := col.AllReduceSumI64(1)
			if err != nil || v != p {
				t.Errorf("machine %d iter %d: %d (%v)", m, i, v, err)
				return
			}
			if err := col.Barrier(); err != nil {
				t.Errorf("machine %d iter %d barrier: %v", m, i, err)
				return
			}
			top := []int64{int64(10*i + m)}
			if err := col.AllReduceI64(top, reduce.Max); err != nil || top[0] != int64(10*i+p-1) {
				t.Errorf("machine %d iter %d max: %v %v", m, i, top, err)
				return
			}
		}
	})
}

// TestAllReduceMergesInMachineOrder: the root merges the contributions in
// machine order whatever order they arrive in, so a float sum's bits do not
// follow the schedule. The root's control channel is fed machine 2's
// contribution before machine 1's; every machine must get ((v0 + v1) + v2).
func TestAllReduceMergesInMachineOrder(t *testing.T) {
	const p = 3
	vals := [p]float64{1e16, 1, -1e16}
	want := (vals[0] + vals[1]) + vals[2]
	if arrival := (vals[0] + vals[2]) + vals[1]; arrival == want {
		t.Fatalf("the sum of %v does not depend on the order", vals)
	}
	f := NewInProcFabric(p, 64)
	feed := make(chan *Buffer, p) // the root's control channel, filled below
	routers := make([]*Router, p)
	cols := make([]*Collectives, p)
	for m := range p {
		ep, err := f.Endpoint(m)
		if err != nil {
			t.Fatal(err)
		}
		routers[m] = NewRouter(ep, RouterConfig{NumWorkers: 1, CtrlDepth: 8})
		defer routers[m].Shutdown()
		ctrl := routers[m].Ctrl()
		if m == 0 {
			ctrl = feed
		}
		cols[m] = NewCollectives(ep, ctrl, NewPool(4, 4096))
	}
	got, errs := make([]float64, p), make([]error, p)
	var wg sync.WaitGroup
	for m := range p {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := []float64{vals[m]}
			errs[m] = cols[m].AllReduceF64(v, reduce.Sum)
			got[m] = v[0]
		}()
	}
	var held [p]*Buffer
	for range p - 1 {
		buf := <-routers[0].Ctrl()
		held[buf.Header().Src%p] = buf
	}
	feed <- held[2]
	feed <- held[1]
	wg.Wait()
	for m := range p {
		if errs[m] != nil || got[m] != want {
			t.Errorf("machine %d: sum %v (%v), want %v in machine order", m, got[m], errs[m], want)
		}
	}
}

// TestAllReduceRefusesBadSource: the root refuses a contribution from itself,
// from a machine outside the cluster, or from a machine already heard from,
// and returns every frame it took to its pool.
func TestAllReduceRefusesBadSource(t *testing.T) {
	for _, tc := range []struct {
		name string
		srcs []uint16
	}{{"self", []uint16{0, 1}}, {"out-of-range", []uint16{3, 1}}, {"duplicate", []uint16{1, 1}}} {
		srcs := tc.srcs
		t.Run(tc.name, func(t *testing.T) {
			f := NewInProcFabric(3, 16)
			ep, _ := f.Endpoint(0)
			feed := make(chan *Buffer, len(srcs))
			pool := NewPool(4, 4096)
			for _, src := range srcs {
				buf := pool.Acquire()
				buf.Reset(Header{Type: MsgCtrl, Worker: CtrlWorker, Src: src, Aux: ctrlAux(0, ctrlReduceContrib, 1)})
				buf.AppendU64(1)
				feed <- buf
			}
			err := NewCollectives(ep, feed, NewPool(4, 4096)).AllReduceI64([]int64{1}, reduce.Sum)
			if err == nil || !strings.Contains(err.Error(), "refused") {
				t.Fatalf("contributions from %v: error %v, want a refusal", srcs, err)
			}
			if n := pool.Outstanding(); n != len(feed) {
				t.Errorf("%d contribution frames out of the pool, %d of them never taken", n, len(feed))
			}
		})
	}
}

// TestOlderSectionFrameReleasedOnArrival: a control frame of an older section
// — a straggler of one that ended in an abort — is released the moment it
// arrives, not parked for a round that never comes, and the section's own frame
// completes the allreduce. So is a frame of the same section but another
// round: in the star no frame can run ahead of its round, so it can only be a
// straggler too.
func TestOlderSectionFrameReleasedOnArrival(t *testing.T) {
	f := NewInProcFabric(2, 16)
	ep, _ := f.Endpoint(1)
	feed := make(chan *Buffer, 3)
	pool := NewPool(3, 4096)
	result := func(sec, round uint32, v int64) {
		buf := pool.Acquire()
		buf.Reset(Header{Type: MsgCtrl, Worker: CtrlWorker, Src: 0, Aux: ctrlAux(sec, ctrlReduceResult, round)})
		buf.AppendU64(uint64(v))
		feed <- buf
	}
	result(6, 1, 60) // the older section's answer to the same round
	result(7, 2, 72) // the section's frame of another round
	result(7, 1, 71)
	col := NewCollectives(ep, feed, NewPool(2, 4096))
	col.Begin(7)
	vals := []int64{1}
	if err := col.AllReduceI64(vals, reduce.Sum); err != nil || vals[0] != 71 {
		t.Fatalf("allreduce = %v (%v), want section 7's result 71", vals, err)
	}
	if n := pool.Outstanding(); n != 0 {
		t.Errorf("%d frames out of the pool after the allreduce: want every mismatch released on arrival", n)
	}
}

func TestAllReduceTooLarge(t *testing.T) {
	f := NewInProcFabric(2, 16)
	ep0, _ := f.Endpoint(0)
	ep1, _ := f.Endpoint(1)
	r0 := NewRouter(ep0, RouterConfig{NumWorkers: 1})
	r1 := NewRouter(ep1, RouterConfig{NumWorkers: 1})
	pool0 := NewPool(4, 64)
	pool1 := NewPool(4, 64)
	col0 := NewCollectives(ep0, r0.Ctrl(), pool0)
	col1 := NewCollectives(ep1, r1.Ctrl(), pool1)
	errs := make(chan error, 2)
	go func() { errs <- col0.AllReduceF64(make([]float64, 100), reduce.Sum) }()
	go func() { errs <- col1.AllReduceF64(make([]float64, 100), reduce.Sum) }()
	for i := 0; i < 2; i++ {
		if err := <-errs; err == nil {
			t.Error("oversized allreduce accepted")
		}
	}
	r0.Shutdown()
	r1.Shutdown()
}

func TestRouterRoutesByType(t *testing.T) {
	f := NewInProcFabric(2, 64)
	ep0, _ := f.Endpoint(0)
	ep1, _ := f.Endpoint(1)
	router := NewRouter(ep1, RouterConfig{NumWorkers: 4, RespDepth: 8, ReqDepth: 8, CtrlDepth: 8})
	pool := NewPool(8, 1024)

	send := func(typ MsgType, worker uint8) {
		buf := pool.Acquire()
		buf.Reset(Header{Type: typ, Worker: worker, Src: 0})
		if err := ep0.Send(1, buf); err != nil {
			t.Fatal(err)
		}
	}
	send(MsgReadReq, 0)
	send(MsgWriteReq, 1)
	send(MsgRMIReq, 2)
	send(MsgReadResp, 2)
	send(MsgRMIResp, 3)
	send(MsgReadResp, CtrlWorker)
	send(MsgCtrl, 0)

	for i := 0; i < 3; i++ {
		buf := <-router.ReqQueue()
		typ := buf.Header().Type
		if typ != MsgReadReq && typ != MsgWriteReq && typ != MsgRMIReq {
			t.Errorf("req queue got %v", typ)
		}
		buf.Release()
	}
	if buf := <-router.WorkerResp(2); buf.Header().Type != MsgReadResp {
		t.Error("worker 2 queue got wrong frame")
	} else {
		buf.Release()
	}
	if buf := <-router.WorkerResp(3); buf.Header().Type != MsgRMIResp {
		t.Error("worker 3 queue got wrong frame")
	} else {
		buf.Release()
	}
	// A read response to the main goroutine is misaddressed — only workers
	// issue reads — and released. The poller routes in arrival order, so with
	// the control frame sent after it in hand, nothing else is out of the pool.
	buf := <-router.Ctrl()
	if h := buf.Header(); h.Type != MsgCtrl {
		t.Errorf("ctrl queue got %+v", h)
	}
	if n := pool.Outstanding(); n != 1 {
		t.Errorf("%d buffers outstanding with the ctrl frame in hand, want 1: the read response to CtrlWorker was not released", n)
	}
	buf.Release()
	router.Shutdown()
	ep0.Close()
	if pool.Outstanding() != 0 {
		t.Errorf("outstanding buffers: %d", pool.Outstanding())
	}
}

// TestRouterReleasesUnknownTypes: a frame whose type byte is past the enum — 7
// and 8, values retired message types once held, and 255 — is released by the
// router: it reaches no queue and leaves the pool full. The router's default
// arm is all that stands between a torn type byte and a copier or a worker.
func TestRouterReleasesUnknownTypes(t *testing.T) {
	for _, typ := range []MsgType{7, 8, 255} {
		t.Run(fmt.Sprint(uint8(typ)), func(t *testing.T) {
			f := NewInProcFabric(2, 16)
			ep0, _ := f.Endpoint(0)
			ep1, _ := f.Endpoint(1)
			router := NewRouter(ep1, RouterConfig{NumWorkers: 2, RespDepth: 4, ReqDepth: 4, CtrlDepth: 4})
			pool := NewPool(4, 1024)
			send := func(h Header) {
				buf := pool.Acquire()
				buf.Reset(h)
				if err := ep0.Send(1, buf); err != nil {
					t.Fatal(err)
				}
			}
			// Addressed to a live worker and to the main goroutine: a response
			// arm that took the frame would queue it.
			send(Header{Type: typ, Worker: 1})
			send(Header{Type: typ, Worker: CtrlWorker})
			// The poller routes in arrival order: once the sentinel is out, the
			// two frames ahead of it have been through the switch.
			send(Header{Type: MsgCtrl, Aux: 42})
			sentinel := <-router.Ctrl()
			if sentinel.Header().Aux != 42 {
				t.Fatalf("ctrl got %+v ahead of the sentinel", sentinel.Header())
			}
			sentinel.Release()
			for name, q := range map[string]<-chan *Buffer{
				"req": router.ReqQueue(), "worker 0": router.WorkerResp(0), "worker 1": router.WorkerResp(1),
				"ctrl": router.Ctrl(), "abort": router.AbortQueue(),
			} {
				select {
				case buf := <-q:
					t.Errorf("type %d reached the %s queue", buf.Data[0], name)
					buf.Release()
				default:
				}
			}
			if n := router.PendingRequests(); n != 0 {
				t.Errorf("%d requests pending", n)
			}
			if n := pool.Outstanding(); n != 0 {
				t.Errorf("%d buffers outstanding while the router still runs", n)
			}
			router.Shutdown()
			ep0.Close()
		})
	}
}

func TestRouterShutdownDrains(t *testing.T) {
	f := NewInProcFabric(2, 64)
	ep0, _ := f.Endpoint(0)
	ep1, _ := f.Endpoint(1)
	router := NewRouter(ep1, RouterConfig{NumWorkers: 1, RespDepth: 32, ReqDepth: 32, CtrlDepth: 32})
	pool := NewPool(16, 1024)
	for i := 0; i < 10; i++ {
		buf := pool.Acquire()
		buf.Reset(Header{Type: MsgWriteReq, Src: 0})
		if err := ep0.Send(1, buf); err != nil {
			t.Fatal(err)
		}
	}
	// Give the poller a chance to route some frames; Shutdown must release
	// everything regardless.
	router.Shutdown()
	ep0.Close()
	if pool.Outstanding() != 0 {
		t.Errorf("outstanding buffers after shutdown: %d", pool.Outstanding())
	}
}

func TestRMIRegistry(t *testing.T) {
	var reg RMIRegistry
	double := reg.Register(func(src int, payload []byte) []byte {
		out := make([]byte, len(payload))
		for i, b := range payload {
			out[i] = b * 2
		}
		return out
	})
	oneWay := reg.Register(func(src int, payload []byte) []byte { return nil })
	if reg.NumMethods() != 2 {
		t.Fatalf("NumMethods = %d", reg.NumMethods())
	}
	out, err := reg.Dispatch(double, 1, []byte{1, 2, 3})
	if err != nil || len(out) != 3 || out[2] != 6 {
		t.Errorf("dispatch double: %v %v", out, err)
	}
	out, err = reg.Dispatch(oneWay, 0, nil)
	if err != nil || out != nil {
		t.Errorf("dispatch one-way: %v %v", out, err)
	}
	if _, err := reg.Dispatch(99, 0, nil); err == nil {
		t.Error("unknown method accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("nil handler accepted")
		}
	}()
	reg.Register(nil)
}
