package comm

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHeaderRoundTrip(t *testing.T) {
	pool := NewPool(1, 1024)
	buf := pool.Acquire()
	defer buf.Release()
	f := func(typ uint8, worker uint8, src uint16, count uint32, aux uint64) bool {
		h := Header{Type: MsgType(typ % 6), Worker: worker, Src: src, Count: count, Aux: aux}
		buf.Reset(h)
		return buf.Header() == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	// The count is the whole 32-bit word at [4:8]: byte 7, once a flags byte,
	// is its high byte again and nothing masks it off.
	buf.Reset(Header{Type: MsgReadReq, Count: 7})
	buf.SetCount(1<<24 | 7)
	if h := buf.Header(); h.Count != 1<<24|7 || buf.Data[7] != 1 {
		t.Fatalf("count %d, byte 7 = %d after SetCount(1<<24|7)", h.Count, buf.Data[7])
	}
}

func TestBufferAppendAndRoom(t *testing.T) {
	pool := NewPool(1, HeaderSize+32)
	buf := pool.Acquire()
	defer buf.Release()
	buf.Reset(Header{Type: MsgWriteReq})
	if buf.Room() != 32 {
		t.Fatalf("Room = %d, want 32", buf.Room())
	}
	buf.AppendU64(0xdeadbeefcafef00d)
	if buf.Room() != 24 {
		t.Fatalf("Room after append = %d, want 24", buf.Room())
	}
	buf.AppendBytes([]byte{1, 2, 3})
	p := buf.Payload()
	if len(p) != 11 || p[8] != 1 || p[10] != 3 {
		t.Fatalf("payload = %v", p)
	}
	buf.SetCount(7)
	buf.SetAux(9)
	h := buf.Header()
	if h.Count != 7 || h.Aux != 9 {
		t.Fatalf("header after Set = %+v", h)
	}
}

func TestPoolBlocksAndAccounts(t *testing.T) {
	pool := NewPool(2, 1024)
	a := pool.Acquire()
	b := pool.Acquire()
	if pool.Outstanding() != 2 {
		t.Fatalf("Outstanding = %d, want 2", pool.Outstanding())
	}
	if _, ok := pool.TryAcquire(); ok {
		t.Fatal("TryAcquire succeeded on drained pool")
	}
	done := make(chan *Buffer)
	go func() { done <- pool.Acquire() }()
	a.Release()
	c := <-done
	if c != a {
		t.Fatal("blocked Acquire got a different buffer than the released one")
	}
	b.Release()
	c.Release()
	if pool.Outstanding() != 0 {
		t.Fatalf("Outstanding = %d after all releases", pool.Outstanding())
	}
}

func TestPoolDoubleReleasePanics(t *testing.T) {
	pool := NewPool(1, 1024)
	b := pool.Acquire()
	b.Release()
	defer func() {
		if recover() == nil {
			t.Error("double release did not panic")
		}
	}()
	b.Release()
}

func TestMsgTypeString(t *testing.T) {
	for typ := MsgReadReq; typ <= MsgCtrl; typ++ {
		if typ.String() == "" {
			t.Errorf("MsgType %d renders empty", typ)
		}
	}
	if MsgType(99).String() == "" {
		t.Error("unknown MsgType renders empty")
	}
}

// fabricCase runs a test body against each transport implementation.
func fabricCase(t *testing.T, p int, body func(t *testing.T, eps []Endpoint)) {
	t.Helper()
	t.Run("inproc", func(t *testing.T) {
		f := NewInProcFabric(p, 1024)
		eps := make([]Endpoint, p)
		for m := 0; m < p; m++ {
			ep, err := f.Endpoint(m)
			if err != nil {
				t.Fatal(err)
			}
			eps[m] = ep
		}
		defer func() {
			for _, ep := range eps {
				ep.Close()
			}
			f.Close()
		}()
		body(t, eps)
	})
	t.Run("tcp", func(t *testing.T) {
		f, err := NewTCPFabric(p, 64, 64<<10)
		if err != nil {
			t.Fatal(err)
		}
		eps := make([]Endpoint, p)
		for m := 0; m < p; m++ {
			ep, err := f.Endpoint(m)
			if err != nil {
				t.Fatal(err)
			}
			eps[m] = ep
		}
		defer func() {
			for _, ep := range eps {
				ep.Close()
			}
			f.Close()
		}()
		body(t, eps)
	})
}

func TestFabricPointToPoint(t *testing.T) {
	fabricCase(t, 2, func(t *testing.T, eps []Endpoint) {
		pool := NewPool(4, 4096)
		buf := pool.Acquire()
		buf.Reset(Header{Type: MsgWriteReq, Worker: 3, Src: 0, Count: 2, Aux: 77})
		buf.AppendU64(111)
		buf.AppendU64(222)
		wantLen := len(buf.Data)
		if err := eps[0].Send(1, buf); err != nil {
			t.Fatal(err)
		}
		got, ok := eps[1].Recv()
		if !ok {
			t.Fatal("Recv returned closed")
		}
		h := got.Header()
		if h.Type != MsgWriteReq || h.Worker != 3 || h.Src != 0 || h.Count != 2 || h.Aux != 77 {
			t.Fatalf("header = %+v", h)
		}
		if len(got.Data) != wantLen {
			t.Fatalf("frame length %d, want %d", len(got.Data), wantLen)
		}
		got.Release()
	})
}

func TestFabricSelfSend(t *testing.T) {
	fabricCase(t, 1, func(t *testing.T, eps []Endpoint) {
		pool := NewPool(2, 1024)
		buf := pool.Acquire()
		buf.Reset(Header{Type: MsgCtrl, Src: 0})
		if err := eps[0].Send(0, buf); err != nil {
			t.Fatal(err)
		}
		got, ok := eps[0].Recv()
		if !ok {
			t.Fatal("self-send lost")
		}
		got.Release()
	})
}

func TestFabricManyFramesAllToAll(t *testing.T) {
	const p = 4
	const framesPerPair = 200
	fabricCase(t, p, func(t *testing.T, eps []Endpoint) {
		var wg sync.WaitGroup
		// Receivers: each expects framesPerPair from each other machine.
		recvCounts := make([]int, p)
		for m := 0; m < p; m++ {
			wg.Add(1)
			go func(m int) {
				defer wg.Done()
				want := framesPerPair * (p - 1)
				for i := 0; i < want; i++ {
					buf, ok := eps[m].Recv()
					if !ok {
						t.Errorf("machine %d: closed after %d frames", m, i)
						return
					}
					recvCounts[m]++
					buf.Release()
				}
			}(m)
		}
		// Senders.
		for m := 0; m < p; m++ {
			wg.Add(1)
			go func(m int) {
				defer wg.Done()
				pool := NewPool(8, 2048)
				for i := 0; i < framesPerPair; i++ {
					for d := 0; d < p; d++ {
						if d == m {
							continue
						}
						buf := pool.Acquire()
						buf.Reset(Header{Type: MsgWriteReq, Src: uint16(m)})
						buf.AppendU64(uint64(i))
						if err := eps[m].Send(d, buf); err != nil {
							t.Errorf("send: %v", err)
							return
						}
					}
				}
			}(m)
		}
		wg.Wait()
		for m := 0; m < p; m++ {
			if recvCounts[m] != framesPerPair*(p-1) {
				t.Errorf("machine %d received %d frames", m, recvCounts[m])
			}
			metr := eps[m].Metrics()
			if metr.FramesSent() != framesPerPair*(p-1) {
				t.Errorf("machine %d metrics report %d frames sent", m, metr.FramesSent())
			}
			if metr.FramesRecv() != framesPerPair*(p-1) {
				t.Errorf("machine %d metrics report %d frames recv", m, metr.FramesRecv())
			}
		}
	})
}

func TestEndpointErrors(t *testing.T) {
	f := NewInProcFabric(2, 8)
	ep0, err := f.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Endpoint(0); err == nil {
		t.Error("duplicate endpoint accepted")
	}
	if _, err := f.Endpoint(5); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
	pool := NewPool(1, 1024)
	buf := pool.Acquire()
	if err := ep0.Send(9, buf); err == nil {
		t.Error("out-of-range send accepted")
	}
	// Send owns the buffer even on failure.
	if pool.Outstanding() != 0 {
		t.Errorf("buffer leaked on failed send: %d", pool.Outstanding())
	}
	ep0.Close()
	ep0.Close() // idempotent
	if _, ok := ep0.Recv(); ok {
		t.Error("Recv after close reported a frame")
	}
}

func TestInProcSendToClosedInboxReclaimsBuffer(t *testing.T) {
	f := NewInProcFabric(2, 8)
	ep0, _ := f.Endpoint(0)
	ep1, _ := f.Endpoint(1)
	ep1.Close()
	pool := NewPool(1, 1024)
	buf := pool.Acquire()
	buf.Reset(Header{Type: MsgCtrl})
	if err := ep0.Send(1, buf); err == nil {
		t.Error("send to closed inbox succeeded")
	}
	if pool.Outstanding() != 0 {
		t.Errorf("buffer leaked: outstanding = %d", pool.Outstanding())
	}
	ep0.Close()
}

func TestMetricsSnapshotArithmetic(t *testing.T) {
	a := Snapshot{FramesSent: 10, BytesSent: 100, FramesRecv: 5, BytesRecv: 50, DataBytesSent: 80}
	b := Snapshot{FramesSent: 4, BytesSent: 40, FramesRecv: 2, BytesRecv: 20, DataBytesSent: 30}
	d := a.Sub(b)
	if d.FramesSent != 6 || d.BytesSent != 60 || d.DataBytesSent != 50 {
		t.Errorf("Sub = %+v", d)
	}
	s := a.Add(b)
	if s.FramesSent != 14 || s.BytesRecv != 70 {
		t.Errorf("Add = %+v", s)
	}
	if s.String() == "" {
		t.Error("empty String")
	}
}

func TestMetricsAccessors(t *testing.T) {
	f := NewInProcFabric(2, 16)
	ep0, _ := f.Endpoint(0)
	ep1, _ := f.Endpoint(1)
	defer ep0.Close()
	defer ep1.Close()
	pool := NewPool(4, 1024)
	for _, typ := range []MsgType{MsgWriteReq, MsgCtrl} {
		buf := pool.Acquire()
		buf.Reset(Header{Type: typ, Src: 0})
		buf.AppendU64(1)
		if err := ep0.Send(1, buf); err != nil {
			t.Fatal(err)
		}
		got, _ := ep1.Recv()
		got.Release()
	}
	m := ep0.Metrics()
	if m.BytesSent() != 2*(HeaderSize+8) {
		t.Errorf("BytesSent = %d", m.BytesSent())
	}
	if m.BytesSentByType(MsgCtrl) != HeaderSize+8 {
		t.Errorf("ctrl bytes = %d", m.BytesSentByType(MsgCtrl))
	}
	if m.BytesSentByType(MsgType(99)) != 0 {
		t.Error("unknown type has bytes")
	}
	if m.DataBytesSent() != HeaderSize+8 {
		t.Errorf("data bytes = %d", m.DataBytesSent())
	}
	r := ep1.Metrics()
	if r.BytesRecv() != 2*(HeaderSize+8) {
		t.Errorf("BytesRecv = %d", r.BytesRecv())
	}
	snap := m.Snapshot()
	if snap.FramesSent != 2 || snap.DataBytesSent != HeaderSize+8 {
		t.Errorf("snapshot = %+v", snap)
	}
}

// TestMetricsLedger: on every endpoint kind — in process, TCP (sends to self
// included) and fault-wrapped — the per-destination rows are the sent ledger:
// they hold exactly what was sent to each machine, they sum to FramesSent and
// BytesSent, and so does the per-type split. Every kind of refused send counts
// exactly one SendErrors, in the endpoint that refused it.
func TestMetricsLedger(t *testing.T) {
	const p = 3
	inproc := func(t *testing.T, p int) []Endpoint {
		f := NewInProcFabric(p, 64)
		eps := make([]Endpoint, p)
		for m := range eps {
			eps[m], _ = f.Endpoint(m)
		}
		t.Cleanup(func() {
			for _, ep := range eps {
				ep.Close()
			}
		})
		return eps
	}
	tcp := func(t *testing.T, p int) []Endpoint { eps, _ := bootTCP(t, p); return eps }
	faulty := func(t *testing.T, p int, rules ...FaultRule) ([]Endpoint, *FaultInjector) {
		f := NewInProcFabric(p, 64)
		inj := NewFaultInjector(f, FaultPlan{Seed: 1, Rules: rules})
		eps := make([]Endpoint, p)
		for m := range eps {
			eps[m], _ = inj.Endpoint(m)
		}
		t.Cleanup(func() {
			for _, ep := range eps {
				ep.Close()
			}
		})
		return eps, inj
	}
	delayCtrl := FaultRule{Src: AnyMachine, Dst: AnyMachine, Type: int(MsgCtrl), Kind: FaultDelay, Every: 1, Delay: time.Microsecond}

	for _, c := range []struct {
		name string
		boot func(t *testing.T) []Endpoint
	}{
		{"inproc", func(t *testing.T) []Endpoint { return inproc(t, p) }},
		{"tcp", func(t *testing.T) []Endpoint { return tcp(t, p) }},
		{"fault", func(t *testing.T) []Endpoint { eps, _ := faulty(t, p, delayCtrl); return eps }},
	} {
		t.Run("rows/"+c.name, func(t *testing.T) {
			eps := c.boot(t)
			types := []MsgType{MsgReadReq, MsgReadResp, MsgWriteReq, MsgCtrl}
			var frames, bytes [p][p]int64
			var wg sync.WaitGroup
			for d := range eps {
				// Machine m sends m+d+1 frames to d, itself included.
				n := 0
				for m := range eps {
					n += m + d + 1
				}
				wg.Add(1)
				go func(d, n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						buf, ok := eps[d].Recv()
						if !ok {
							t.Errorf("machine %d: closed after %d of %d frames", d, i, n)
							return
						}
						buf.Release()
					}
				}(d, n)
			}
			pool := NewPool(8, 1024)
			for m := range eps {
				for d := range eps {
					for i := 0; i < m+d+1; i++ {
						buf := pool.Acquire()
						buf.Reset(Header{Type: types[i%len(types)], Src: uint16(m)})
						for w := 0; w < i; w++ {
							buf.AppendU64(uint64(w))
						}
						frames[m][d]++
						bytes[m][d] += int64(len(buf.Data))
						if err := eps[m].Send(d, buf); err != nil {
							t.Fatalf("send %d -> %d: %v", m, d, err)
						}
					}
				}
			}
			wg.Wait()
			for m, ep := range eps {
				met := ep.Metrics()
				var rowF, rowB, byType, recvF int64
				for d := range eps {
					if met.FramesSentTo(d) != frames[m][d] || met.BytesSentTo(d) != bytes[m][d] {
						t.Errorf("%d -> %d: row holds %d frames / %d bytes, sent %d / %d",
							m, d, met.FramesSentTo(d), met.BytesSentTo(d), frames[m][d], bytes[m][d])
					}
					rowF += met.FramesSentTo(d)
					rowB += met.BytesSentTo(d)
					recvF += frames[d][m]
				}
				for typ := MsgReadReq; typ <= MsgAbort; typ++ {
					byType += met.BytesSentByType(typ)
				}
				if rowF != met.FramesSent() || rowB != met.BytesSent() || byType != met.BytesSent() {
					t.Errorf("machine %d: rows sum to %d frames / %d bytes, per type %d bytes; totals %d / %d",
						m, rowF, rowB, byType, met.FramesSent(), met.BytesSent())
				}
				if met.FramesRecv() != recvF || met.SendErrors() != 0 {
					t.Errorf("machine %d: %d frames received (want %d), %d send errors", m, met.FramesRecv(), recvF, met.SendErrors())
				}
			}
		})
	}

	// Each refusal: set up fresh endpoints and return the one whose next Send
	// to dst the fabric refuses.
	for _, c := range []struct {
		name  string
		setup func(t *testing.T) (ep Endpoint, dst int)
	}{
		{"inproc/out-of-range", func(t *testing.T) (Endpoint, int) { return inproc(t, 2)[0], 9 }},
		{"inproc/closed-inbox", func(t *testing.T) (Endpoint, int) {
			eps := inproc(t, 2)
			eps[1].Close()
			return eps[0], 1
		}},
		{"tcp/out-of-range", func(t *testing.T) (Endpoint, int) { return tcp(t, 2)[0], -1 }},
		{"tcp/self-after-close", func(t *testing.T) (Endpoint, int) {
			eps := tcp(t, 2)
			eps[0].Close()
			return eps[0], 0
		}},
		{"tcp/peer-after-close", func(t *testing.T) (Endpoint, int) {
			eps := tcp(t, 2)
			eps[0].Close()
			return eps[0], 1
		}},
		{"tcp/sticky-error", func(t *testing.T) (Endpoint, int) {
			ep := tcp(t, 2)[0].(*tcpEndpoint)
			s := ep.senders[1]
			s.c.Close()
			pool := NewPool(1, 1024)
			buf := pool.Acquire()
			buf.Reset(Header{Type: MsgCtrl})
			if err := ep.Send(1, buf); err != nil {
				t.Fatal(err)
			}
			ep.Quiesce() // the failed write has counted its own send error
			if s.failed() == nil {
				t.Fatal("write on a closed connection did not fail")
			}
			return ep, 1
		}},
		{"fault/fail", func(t *testing.T) (Endpoint, int) {
			eps, _ := faulty(t, 2, FaultRule{Src: AnyMachine, Dst: AnyMachine, Type: AnyType, Kind: FaultFail, Every: 1})
			return eps[0], 1
		}},
		{"fault/kill", func(t *testing.T) (Endpoint, int) {
			eps, _ := faulty(t, 2, FaultRule{Src: AnyMachine, Dst: AnyMachine, Type: AnyType, Kind: FaultKill, Every: 1})
			return eps[0], 1
		}},
		{"fault/killed-sender", func(t *testing.T) (Endpoint, int) {
			eps, inj := faulty(t, 2)
			inj.Kill(0)
			return eps[0], 1
		}},
	} {
		t.Run("refused/"+c.name, func(t *testing.T) {
			ep, dst := c.setup(t)
			pool := NewPool(1, 1024)
			buf := pool.Acquire()
			buf.Reset(Header{Type: MsgCtrl})
			before := ep.Metrics().SendErrors()
			if err := ep.Send(dst, buf); err == nil {
				t.Fatal("refused send returned no error")
			}
			if got := ep.Metrics().SendErrors() - before; got != 1 {
				t.Errorf("refused send counted %d send errors, want 1", got)
			}
			if pool.Outstanding() != 0 {
				t.Errorf("refused send leaked its buffer")
			}
		})
	}
}

func TestPoolCAndNoteAcquired(t *testing.T) {
	pool := NewPool(2, 1024)
	buf := <-pool.C()
	pool.NoteAcquired()
	if pool.Outstanding() != 1 {
		t.Errorf("Outstanding = %d", pool.Outstanding())
	}
	if buf.Cap() != 1024 {
		t.Errorf("Cap = %d", buf.Cap())
	}
	buf.Release()
	if pool.Outstanding() != 0 {
		t.Errorf("Outstanding after release = %d", pool.Outstanding())
	}
}

func TestRouterRMIRespChannel(t *testing.T) {
	f := NewInProcFabric(2, 16)
	ep0, _ := f.Endpoint(0)
	ep1, _ := f.Endpoint(1)
	router := NewRouter(ep1, RouterConfig{NumWorkers: 2})
	pool := NewPool(4, 1024)
	// An RMI or read response for the main goroutine is misaddressed — only
	// tasks issue RMIs and reads — and released, not queued: a response stamped
	// CtrlWorker must never reach the control channel, where a collective
	// matches frames by Aux alone.
	var buf *Buffer
	for _, typ := range []MsgType{MsgRMIResp, MsgReadResp} {
		buf = pool.Acquire()
		buf.Reset(Header{Type: typ, Worker: CtrlWorker, Src: 0, Aux: 5})
		if err := ep0.Send(1, buf); err != nil {
			t.Fatal(err)
		}
	}
	// The poller routes in arrival order, so once this control frame is out
	// both responses have been through the switch: only it may still be out of
	// the pool.
	buf = pool.Acquire()
	buf.Reset(Header{Type: MsgCtrl, Src: 0, Aux: 6})
	if err := ep0.Send(1, buf); err != nil {
		t.Fatal(err)
	}
	got := <-router.Ctrl()
	if got.Header().Aux != 6 {
		t.Errorf("ctrl aux = %d: a response to CtrlWorker reached the control channel", got.Header().Aux)
	}
	if n := pool.Outstanding(); n != 1 {
		t.Errorf("%d buffers outstanding with the ctrl frame in hand, want 1: a response to CtrlWorker was not released", n)
	}
	for w := 0; w < 2; w++ {
		select {
		case buf := <-router.WorkerResp(w):
			t.Errorf("a response to CtrlWorker reached worker %d's queue", w)
			buf.Release()
		default:
		}
	}
	got.Release()
	// Misaddressed worker id is dropped (released), not wedged.
	buf = pool.Acquire()
	buf.Reset(Header{Type: MsgReadResp, Worker: 200, Src: 0})
	if err := ep0.Send(1, buf); err != nil {
		t.Fatal(err)
	}
	router.Shutdown()
	ep0.Close()
	if pool.Outstanding() != 0 {
		t.Errorf("outstanding = %d", pool.Outstanding())
	}
}

func TestNewTCPFabricRejectsBadCount(t *testing.T) {
	if _, err := NewTCPFabric(0, 4, 4096); err == nil {
		t.Error("0 machines accepted")
	}
}

func TestPoolConstructorPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero count", func() { NewPool(0, 1024) })
	mustPanic("tiny buffer", func() { NewPool(1, 4) })
	mustPanic("zero machines inproc", func() { NewInProcFabric(0, 4) })
}
