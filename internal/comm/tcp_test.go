package comm

import (
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/reduce"
)

func bootTCP(t *testing.T, p int) ([]Endpoint, *TCPFabric) {
	t.Helper()
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
	t.Cleanup(func() {
		for _, ep := range eps {
			ep.Close()
		}
		f.Close()
	})
	return eps, f
}

func TestTCPCollectives(t *testing.T) {
	const p = 3
	eps, _ := bootTCP(t, p)
	var wg sync.WaitGroup
	for m := 0; m < p; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			router := NewRouter(eps[m], RouterConfig{NumWorkers: 1})
			defer router.Shutdown()
			pool := NewPool(8, 8192)
			col := NewCollectives(eps[m], router.Ctrl(), pool)
			for i := 0; i < 5; i++ {
				if err := col.Barrier(); err != nil {
					t.Errorf("machine %d barrier: %v", m, err)
					return
				}
				sum, err := col.AllReduceSumI64(int64(m + 1))
				if err != nil || sum != 6 {
					t.Errorf("machine %d allreduce: %d (%v)", m, sum, err)
					return
				}
			}
		}(m)
	}
	wg.Wait()
}

// TestTCPGarbageConnectionDropped: a rogue client that sends garbage to a
// machine's listen port must not crash or wedge the endpoint.
func TestTCPGarbageConnectionDropped(t *testing.T) {
	f, err := NewTCPFabric(2, 16, 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ep0, err := f.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	ep1, err := f.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	defer ep0.Close()
	defer ep1.Close()

	// Rogue connection: valid hello, then an oversized frame length.
	rogue, err := net.Dial("tcp", f.addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	var hello [2]byte
	binary.LittleEndian.PutUint16(hello[:], 0)
	rogue.Write(hello[:])
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], 1<<30) // exceeds buffer size
	rogue.Write(lenBuf[:])
	rogue.Close()

	// Rogue connection two: truncated hello.
	rogue2, err := net.Dial("tcp", f.addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	rogue2.Write([]byte{0x01})
	rogue2.Close()

	// Legitimate traffic still flows.
	pool := NewPool(4, 32<<10)
	buf := pool.Acquire()
	buf.Reset(Header{Type: MsgWriteReq, Src: 0, Count: 1})
	buf.AppendU64(42)
	if err := ep0.Send(1, buf); err != nil {
		t.Fatal(err)
	}
	got, ok := ep1.Recv()
	if !ok {
		t.Fatal("legitimate frame lost after rogue connections")
	}
	if got.Header().Count != 1 {
		t.Errorf("header corrupted: %+v", got.Header())
	}
	got.Release()
}

// TestTCPUndersizedFrameRejected: frames below the header size drop the
// connection without delivering.
func TestTCPUndersizedFrameRejected(t *testing.T) {
	f, err := NewTCPFabric(2, 16, 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ep0, _ := f.Endpoint(0)
	ep1, _ := f.Endpoint(1)
	defer ep0.Close()
	defer ep1.Close()

	rogue, err := net.Dial("tcp", f.addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	var hello [2]byte
	rogue.Write(hello[:])
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], 4) // < HeaderSize
	rogue.Write(lenBuf[:])
	rogue.Write([]byte{1, 2, 3, 4})
	time.Sleep(20 * time.Millisecond)
	rogue.Close()

	// The endpoint must not have delivered anything: Recv would block, so
	// probe with a legitimate frame instead.
	pool := NewPool(2, 32<<10)
	buf := pool.Acquire()
	buf.Reset(Header{Type: MsgCtrl, Src: 0, Aux: 7})
	if err := ep0.Send(1, buf); err != nil {
		t.Fatal(err)
	}
	got, ok := ep1.Recv()
	if !ok || got.Header().Aux != 7 {
		t.Fatalf("expected the legitimate frame, got ok=%v", ok)
	}
	got.Release()
}

func TestTCPEndpointErrors(t *testing.T) {
	f, err := NewTCPFabric(2, 8, 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ep0, _ := f.Endpoint(0)
	defer ep0.Close()
	if _, err := f.Endpoint(0); err == nil {
		t.Error("duplicate endpoint accepted")
	}
	if _, err := f.Endpoint(7); err == nil {
		t.Error("out-of-range endpoint accepted")
	}
	pool := NewPool(2, 16<<10)
	buf := pool.Acquire()
	if err := ep0.Send(9, buf); err == nil {
		t.Error("out-of-range send accepted")
	}
	if pool.Outstanding() != 0 {
		t.Errorf("buffer leaked on failed send: %d", pool.Outstanding())
	}
}

func TestTCPSelfSendAfterClose(t *testing.T) {
	f, err := NewTCPFabric(1, 4, 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ep, _ := f.Endpoint(0)
	ep.Close()
	pool := NewPool(1, 16<<10)
	buf := pool.Acquire()
	buf.Reset(Header{Type: MsgCtrl})
	if err := ep.Send(0, buf); err == nil {
		t.Error("self-send after close succeeded")
	}
	if pool.Outstanding() != 0 {
		t.Errorf("buffer leaked: %d", pool.Outstanding())
	}
}

func TestReduceImportKeepsCollectiveTyped(t *testing.T) {
	// Guards the wire encoding of typed allreduce: a Min over negative
	// int64s must not be treated as unsigned.
	eps, _ := bootTCP(t, 2)
	var wg sync.WaitGroup
	for m := 0; m < 2; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			router := NewRouter(eps[m], RouterConfig{NumWorkers: 1})
			defer router.Shutdown()
			col := NewCollectives(eps[m], router.Ctrl(), NewPool(4, 4096))
			vals := []int64{int64(-10 * (m + 1))}
			if err := col.AllReduceI64(vals, reduce.Min); err != nil {
				t.Errorf("machine %d: %v", m, err)
				return
			}
			if vals[0] != -20 {
				t.Errorf("machine %d: min = %d, want -20", m, vals[0])
			}
		}(m)
	}
	wg.Wait()
}

// TestTCPRecvErrorCounted: corrupt and truncated frames must show up in the
// endpoint's receive-error counter, not just vanish with the connection.
func TestTCPRecvErrorCounted(t *testing.T) {
	f, err := NewTCPFabric(2, 8, 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ep1, err := f.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	defer ep1.Close()

	// Valid hello, then a frame length beyond the buffer size.
	rogue, err := net.Dial("tcp", f.addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	var hello [2]byte
	rogue.Write(hello[:])
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], 1<<30)
	rogue.Write(lenBuf[:])
	rogue.Close()

	// Valid hello and length, then the peer dies mid-body.
	rogue2, err := net.Dial("tcp", f.addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	rogue2.Write(hello[:])
	binary.LittleEndian.PutUint32(lenBuf[:], HeaderSize+8)
	rogue2.Write(lenBuf[:])
	rogue2.Write([]byte{1, 2, 3}) // 3 of HeaderSize+8 bytes
	rogue2.Close()

	deadline := time.Now().Add(5 * time.Second)
	for ep1.Metrics().RecvErrors() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("RecvErrors = %d, want >= 2", ep1.Metrics().RecvErrors())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTCPSendErrorCountedAndSticky: once a destination's connection dies,
// the failure is counted, surfaces as an error from Send, and sticks so
// later sends fail fast instead of silently dropping frames.
func TestTCPSendErrorCountedAndSticky(t *testing.T) {
	eps, _ := bootTCP(t, 2)
	ep0 := eps[0].(*tcpEndpoint)
	pool := NewPool(4, 64<<10)

	// Drain the handshake state, then kill the 0 -> 1 connection from under
	// the sender goroutine.
	ep0.senders[1].c.Close()

	var sendErr error
	deadline := time.Now().Add(5 * time.Second)
	for sendErr == nil {
		if time.Now().After(deadline) {
			t.Fatal("Send never reported the dead connection")
		}
		buf := pool.Acquire()
		buf.Reset(Header{Type: MsgCtrl, Src: 0})
		sendErr = ep0.Send(1, buf)
		time.Sleep(time.Millisecond)
	}
	if ep0.Metrics().SendErrors() == 0 {
		t.Error("send failure not counted in Metrics.SendErrors")
	}
	// Sticky: the next send fails immediately without enqueueing.
	buf := pool.Acquire()
	buf.Reset(Header{Type: MsgCtrl, Src: 0})
	if err := ep0.Send(1, buf); err == nil {
		t.Error("send after failure succeeded")
	}
	ep0.Quiesce()
	if pool.Outstanding() != 0 {
		t.Errorf("buffers leaked through failed sends: %d", pool.Outstanding())
	}
}

// TestTCPAsyncFrameIntegrity: frames of varied sizes survive the async
// vectored-write path byte for byte and in order.
func TestTCPAsyncFrameIntegrity(t *testing.T) {
	eps, _ := bootTCP(t, 2)
	pool := NewPool(8, 64<<10)
	const frames = 200
	go func() {
		for i := 0; i < frames; i++ {
			buf := pool.Acquire()
			buf.Reset(Header{Type: MsgWriteReq, Src: 0, Count: 1, Aux: uint64(i)})
			words := i % 97
			for w := 0; w < words; w++ {
				buf.AppendU64(uint64(i)<<32 | uint64(w))
			}
			if err := eps[0].Send(1, buf); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < frames; i++ {
		got, ok := eps[1].Recv()
		if !ok {
			t.Fatalf("stream ended at frame %d", i)
		}
		h := got.Header()
		if h.Aux != uint64(i) {
			t.Fatalf("frame %d out of order: aux = %d", i, h.Aux)
		}
		words := i % 97
		if len(got.Payload()) != 8*words {
			t.Fatalf("frame %d: payload %d bytes, want %d", i, len(got.Payload()), 8*words)
		}
		for w := 0; w < words; w++ {
			if leU64t(got.Payload()[8*w:]) != uint64(i)<<32|uint64(w) {
				t.Fatalf("frame %d word %d corrupted", i, w)
			}
		}
		got.Release()
	}
}

func leU64t(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

// heldConn is a connection whose frame writes (anything longer than the
// 4-byte length prefix) return only when the test lets them: the bytes are on
// the wire, the sender goroutine is still inside the write.
type heldConn struct {
	net.Conn
	release chan struct{}
}

func (c *heldConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if len(p) > 4 {
		<-c.release
	}
	return n, err
}

// TestTCPSentCountedBeforeDelivery is the schedule behind the old
// TestFabricManyFramesAllToAll/tcp flake, made certain: the peer holds the
// frame while the sender goroutine has not returned from writing it. Send has
// returned, so the frame must already be counted — whoever takes a job's
// traffic snapshot knows only that.
func TestTCPSentCountedBeforeDelivery(t *testing.T) {
	eps, _ := bootTCP(t, 2)
	s := eps[0].(*tcpEndpoint).senders[1]
	held := &heldConn{Conn: s.c, release: make(chan struct{})}
	s.c = held // before the Send below hands the sender goroutine a frame
	defer close(held.release)

	pool := NewPool(1, 1024)
	buf := pool.Acquire()
	buf.Reset(Header{Type: MsgWriteReq, Src: 0, Count: 1})
	buf.AppendU64(7)
	want := int64(len(buf.Data))
	if err := eps[0].Send(1, buf); err != nil {
		t.Fatal(err)
	}
	got, ok := eps[1].Recv()
	if !ok {
		t.Fatal("recv failed")
	}
	got.Release()
	if m := eps[0].Metrics(); m.FramesSentTo(1) != 1 || m.BytesSentTo(1) != want || m.FramesSent() != 1 || m.BytesSent() != want {
		t.Errorf("peer holds the frame, sender reports %d frames / %d bytes sent (%d / %d to it), want 1 / %d",
			m.FramesSent(), m.BytesSent(), m.FramesSentTo(1), m.BytesSentTo(1), want)
	}
}
