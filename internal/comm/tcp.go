package comm

import (
	"encoding/binary"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// TCPFabric connects the simulated machines over loopback TCP sockets with
// length-prefixed frames. It exists to exercise the engine over a real wire:
// serialization, framing, kernel socket buffering, and flow control all
// apply, unlike the in-process fabric. One ordered connection carries each
// (src → dst) direction.
//
// Wire format per frame: uint32 little-endian length, then that many bytes
// of frame (header + payload).
//
// Sends are asynchronous: each destination has a dedicated sender
// goroutine draining a bounded queue, so a worker's Send costs one channel
// operation instead of two locked socket writes on its critical path. The
// length prefix and frame body go out in a single vectored write
// (net.Buffers → writev), halving syscalls per frame. Back-pressure is
// preserved: a full queue blocks the sender exactly like a drained buffer
// pool does. TCP_NODELAY is always on (batching already happens in the
// engine's message buffers, so coalescing in the kernel only adds latency)
// and socket buffers stay at the kernel defaults.
type TCPFabric struct {
	p         int
	bufSize   int
	poolCount int
	listeners []net.Listener
	addrs     []string

	mu    sync.Mutex
	taken []bool

	// wireClock makes the kernel's delivery ordering visible to the race
	// detector: every sender increments it immediately before a frame's
	// write syscall, every reader loads it right after a frame arrives.
	// The kernel guarantees the real-time ordering (a frame cannot be read
	// before it was written); the atomic pair turns that into a
	// happens-before edge, so memory published before a Send is ordered
	// before the receiver processing the frame. Without it, cross-machine
	// ordering rests on incidental buffer-pool recycling.
	wireClock atomic.Int64
}

const (
	// sendQueueDepth is each destination's sender queue, in frames.
	sendQueueDepth = 16
	// dialRetries is how many times endpoint setup re-attempts a failed dial
	// (a peer's listener racing its first Accept, ephemeral port exhaustion)
	// before the boot fails, waiting dialBackoff and then twice as long each
	// time.
	dialRetries = 3
	dialBackoff = 25 * time.Millisecond
	// flushDeadline bounds each frame write once Close has begun, so a
	// stalled peer cannot pin the flush. Before that, writes have no
	// deadline: kernel flow control is the only bound.
	flushDeadline = 2 * time.Second
)

// NewTCPFabric creates listeners for p machines on ephemeral loopback ports.
// Each endpoint maintains a receive pool of poolCount buffers of bufSize
// bytes; a drained receive pool blocks that machine's socket readers, which
// propagates back-pressure to senders through TCP flow control.
// core.NewTCPFabric sizes the pool for an engine configuration.
func NewTCPFabric(p, poolCount, bufSize int) (*TCPFabric, error) {
	if p < 1 {
		return nil, fmt.Errorf("comm: fabric needs at least one machine")
	}
	f := &TCPFabric{
		p:         p,
		bufSize:   bufSize,
		poolCount: poolCount,
		listeners: make([]net.Listener, p),
		addrs:     make([]string, p),
		taken:     make([]bool, p),
	}
	for m := 0; m < p; m++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("comm: listen for machine %d: %w", m, err)
		}
		f.listeners[m] = l
		f.addrs[m] = l.Addr().String()
	}
	return f, nil
}

// setNoDelay turns Nagle's algorithm off on one connection.
func setNoDelay(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
}

// Endpoint implements Fabric: it dials every peer, starts the accept loop
// and sender goroutines, and returns once the send side is fully connected.
func (f *TCPFabric) Endpoint(m int) (Endpoint, error) {
	f.mu.Lock()
	if m < 0 || m >= f.p {
		f.mu.Unlock()
		return nil, fmt.Errorf("comm: machine %d out of range [0,%d)", m, f.p)
	}
	if f.taken[m] {
		f.mu.Unlock()
		return nil, fmt.Errorf("comm: endpoint %d already taken", m)
	}
	f.taken[m] = true
	f.mu.Unlock()

	e := &tcpEndpoint{
		fabric:  f,
		machine: m,
		senders: make([]*tcpSender, f.p),
		inbox:   make(chan *Buffer, 4*f.p),
		recvGas: NewPool(f.poolCount, f.bufSize),
		done:    make(chan struct{}),
	}
	e.metrics.init(f.p)
	for d := 0; d < f.p; d++ {
		if d == m {
			continue
		}
		c, err := f.dialPeer(m, d)
		if err != nil {
			e.Close()
			return nil, err
		}
		s := &tcpSender{
			e:     e,
			dst:   d,
			c:     c,
			queue: make(chan *Buffer, sendQueueDepth),
		}
		e.senders[d] = s
		e.senderWG.Add(1)
		go s.loop()
	}
	go e.acceptLoop(f.listeners[m])
	return e, nil
}

// dialPeer connects machine m's send side to peer d — dial, tune, hello —
// retrying transient failures with exponential backoff.
func (f *TCPFabric) dialPeer(m, d int) (net.Conn, error) {
	backoff := dialBackoff
	var lastErr error
	for attempt := 0; ; attempt++ {
		c, err := net.Dial("tcp", f.addrs[d])
		if err == nil {
			setNoDelay(c)
			var hello [2]byte
			binary.LittleEndian.PutUint16(hello[:], uint16(m))
			if _, err = c.Write(hello[:]); err == nil {
				return c, nil
			}
			c.Close()
		}
		lastErr = err
		if attempt >= dialRetries {
			return nil, fmt.Errorf("comm: machine %d dialing %d (attempt %d): %w", m, d, attempt+1, lastErr)
		}
		time.Sleep(backoff)
		backoff *= 2
	}
}

// Close shuts the listeners down.
func (f *TCPFabric) Close() error {
	var first error
	for _, l := range f.listeners {
		if l != nil {
			if err := l.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// tcpSender is the asynchronous per-destination send path: Send enqueues and
// returns; this goroutine performs the vectored write off the caller's
// critical path. The bounded queue preserves back-pressure, and single-
// goroutine draining preserves per-destination frame order.
type tcpSender struct {
	e     *tcpEndpoint
	dst   int
	c     net.Conn
	queue chan *Buffer
	// pending counts frames accepted by Send but not yet written+released;
	// Quiesce polls it so tests can await full drainage.
	pending atomic.Int64
	// err holds the first write error; once set, subsequent Sends fail fast
	// so a dead connection surfaces at the caller instead of silently
	// swallowing frames.
	err atomic.Pointer[error]
}

func (s *tcpSender) failed() error {
	if p := s.err.Load(); p != nil {
		return *p
	}
	return nil
}

// loop drains the queue until Close closes it, then closes the connection.
// Frames already queued when Close runs are still flushed — collectives rely
// on it: a machine may finish (and shut down) while its final frames are
// what unblocks a peer.
func (s *tcpSender) loop() {
	defer s.e.senderWG.Done()
	var lenBuf [4]byte
	for buf := range s.queue {
		s.writeFrame(buf, &lenBuf)
		s.pending.Add(-1)
	}
	s.c.Close()
}

// writeFrame performs one vectored frame write, bounded by flushDeadline once
// Close has begun. A failed write is not retried: a partial write poisons the
// stream's framing, so the error sticks, later Sends to this destination fail
// fast (each counting a send error, as the failed write did), and the engine
// aborts the job — rerunning it is the recovery.
func (s *tcpSender) writeFrame(buf *Buffer, lenBuf *[4]byte) {
	if s.failed() != nil {
		buf.Release()
		return
	}
	select {
	case <-s.e.done:
		s.c.SetWriteDeadline(time.Now().Add(flushDeadline))
	default:
	}
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(buf.Data)))
	vec := net.Buffers{lenBuf[:], buf.Data}
	s.e.fabric.wireClock.Add(1) // publish: pairs with the readLoop load
	_, err := vec.WriteTo(s.c)
	buf.Release()
	if err != nil {
		werr := fmt.Errorf("comm: async send %d -> %d: %w", s.e.machine, s.dst, err)
		s.err.CompareAndSwap(nil, &werr)
		s.e.metrics.sendErrors.Add(1)
	}
}

type tcpEndpoint struct {
	fabric  *TCPFabric
	machine int
	senders []*tcpSender // one per peer, nil at this machine's own index
	inbox   chan *Buffer
	recvGas *Pool // receive-side buffer pool
	metrics Metrics

	closeOnce sync.Once
	done      chan struct{}
	readers   sync.WaitGroup
	senderWG  sync.WaitGroup
}

func (e *tcpEndpoint) Machine() int      { return e.machine }
func (e *tcpEndpoint) NumMachines() int  { return e.fabric.p }
func (e *tcpEndpoint) Metrics() *Metrics { return &e.metrics }

func (e *tcpEndpoint) acceptLoop(l net.Listener) {
	for {
		c, err := l.Accept()
		if err != nil {
			return // listener closed
		}
		setNoDelay(c)
		e.readers.Add(1)
		go e.readLoop(c)
	}
}

func (e *tcpEndpoint) readLoop(c net.Conn) {
	defer e.readers.Done()
	defer c.Close()
	var hello [2]byte
	if _, err := io.ReadFull(c, hello[:]); err != nil {
		return
	}
	var lenBuf [4]byte
	for {
		if _, err := io.ReadFull(c, lenBuf[:]); err != nil {
			if err != io.EOF {
				// Truncated length prefix: the peer died mid-frame.
				e.metrics.RecordRecvError()
			}
			return // peer closed or shutdown
		}
		n := binary.LittleEndian.Uint32(lenBuf[:])
		if n < HeaderSize || int(n) > e.recvGas.BufSize() {
			// Corrupt frame length: the stream is unrecoverable (framing is
			// lost), so the connection drops — but loudly, through the error
			// counter and the log, instead of a silent return that leaves a
			// poisoned stream looking like a hang.
			e.metrics.RecordRecvError()
			log.Printf("comm: machine %d: dropping connection %s: corrupt frame length %d (valid %d..%d)",
				e.machine, c.RemoteAddr(), n, HeaderSize, e.recvGas.BufSize())
			return
		}
		buf := e.recvGas.Acquire()
		buf.Data = buf.Data[:n]
		// Acquire the fabric wireClock: the frame's sender incremented it
		// before the write syscall, so this load orders everything the
		// sender published before Send ahead of this frame's processing.
		e.fabric.wireClock.Load()
		if _, err := io.ReadFull(c, buf.Data); err != nil {
			buf.Release()
			e.metrics.RecordRecvError()
			log.Printf("comm: machine %d: dropping connection %s: truncated %d-byte frame: %v",
				e.machine, c.RemoteAddr(), n, err)
			return
		}
		select {
		case e.inbox <- buf:
		case <-e.done:
			buf.Release()
			return
		}
	}
}

func (e *tcpEndpoint) Send(dst int, buf *Buffer) (err error) {
	if dst < 0 || dst >= e.fabric.p {
		return e.metrics.refuse(buf, fmt.Errorf("comm: send to machine %d out of range", dst))
	}
	if dst == e.machine {
		select {
		case <-e.done:
			return e.metrics.refuse(buf, fmt.Errorf("comm: endpoint %d closed", e.machine))
		default:
		}
		e.metrics.recordSent(dst, buf)
		select {
		case e.inbox <- buf:
			return nil
		case <-e.done:
			return e.metrics.refuse(buf, fmt.Errorf("comm: endpoint %d closed", e.machine))
		}
	}
	// Hand the frame to dst's sender goroutine, blocking only when the bounded
	// queue is full (back-pressure, like the buffer pools).
	s := e.senders[dst]
	if werr := s.failed(); werr != nil {
		return e.metrics.refuse(buf, fmt.Errorf("comm: send %d -> %d: %w", e.machine, dst, werr))
	}
	s.pending.Add(1)
	// Counted where the frame is accepted, ahead of the hand-over, as the
	// in-process endpoint does and for its reason: the peer can hold the frame
	// before either this goroutine or the sender's runs another instruction. A
	// write that fails later shows as SendErrors.
	e.metrics.recordSent(dst, buf)
	defer func() {
		// Close() closes the queue channel; a racing or blocked enqueue
		// panics, which we convert to a clean shutdown error (the same
		// pattern the in-process fabric uses for closed inboxes).
		if recover() != nil {
			s.pending.Add(-1)
			err = e.metrics.refuse(buf, fmt.Errorf("comm: endpoint %d closed", e.machine))
		}
	}()
	s.queue <- buf
	return nil
}

func (e *tcpEndpoint) Recv() (*Buffer, bool) {
	select {
	case buf := <-e.inbox:
		e.metrics.recordRecv(buf)
		return buf, true
	case <-e.done:
		// Drain anything already queued before reporting closure.
		select {
		case buf := <-e.inbox:
			e.metrics.recordRecv(buf)
			return buf, true
		default:
			return nil, false
		}
	}
}

// Quiesce blocks until every async sender has written (and released) all
// frames accepted so far. The engine's job protocol guarantees remote
// delivery before a job completes, but the final release in a sender
// goroutine races the response's arrival by a few instructions; leak
// checks call Quiesce to close that window deterministically.
func (e *tcpEndpoint) Quiesce() {
	for _, s := range e.senders {
		if s == nil {
			continue
		}
		for s.pending.Load() > 0 {
			time.Sleep(20 * time.Microsecond)
		}
	}
}

func (e *tcpEndpoint) Close() error {
	e.closeOnce.Do(func() {
		close(e.done)
		for _, s := range e.senders {
			if s != nil {
				// Unblocks racing Sends (they recover the panic); the sender
				// loop flushes the frames it already accepted — peers may be
				// blocked on them mid-collective — and closes its connection
				// on exit. The post-done write deadline in writeFrame bounds
				// how long a stalled peer can pin the flush.
				close(s.queue)
				// Bound a write already in flight against a stalled peer;
				// writeFrame re-arms the deadline per remaining frame.
				s.c.SetWriteDeadline(time.Now().Add(flushDeadline))
			}
		}
		// Wait for the flush: once Close returns, every accepted frame is on
		// the wire (or failed) and released back to its pool.
		e.senderWG.Wait()
	})
	return nil
}

// TCPOptions is a shim, not a setting: it has no fields, because every knob
// it held is one of the constants above. benchmark/'s micro.go and
// workloads.go still spell comm.TCPOptions{}, and benchmark/ may not change
// with the engine. The next benchmark-archetype change calls
// core.NewTCPFabric there and deletes this type together with
// NewTCPFabricOpts.
type TCPOptions struct{}

// NewTCPFabricOpts is NewTCPFabric. It is TCPOptions' shim twin: benchmark/
// still calls it, and it goes when TCPOptions does.
func NewTCPFabricOpts(p, poolCount, bufSize int, _ TCPOptions) (*TCPFabric, error) {
	return NewTCPFabric(p, poolCount, bufSize)
}
