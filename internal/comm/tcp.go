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
// pool does.
type TCPFabric struct {
	p         int
	bufSize   int
	poolCount int
	opts      TCPOptions
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

// TCPOptions tunes the TCP fabric's sender queue and fault handling. The zero
// value gives the defaults: a 16-frame queue per destination, three dial
// retries, no write deadline or reconnection. TCP_NODELAY is always on
// (batching already happens in the engine's message buffers, so coalescing
// in the kernel only adds latency) and socket buffers stay at the kernel
// defaults.
type TCPOptions struct {
	// SendQueueDepth is the per-destination sender queue capacity in frames.
	// Zero or negative selects the default (16).
	SendQueueDepth int
	// DialRetries is how many times endpoint setup re-attempts a failed
	// dial before giving up. Zero selects the default (3); negative
	// disables retries. Transient dial failures (a peer's listener racing
	// its first Accept, ephemeral port exhaustion) otherwise abort the
	// whole cluster boot.
	DialRetries int
	// RetryBackoff is the initial backoff between dial or write retries,
	// doubling per attempt. Zero selects the default (25ms).
	RetryBackoff time.Duration
	// WriteDeadline bounds each frame's socket write. Zero leaves writes
	// unbounded (kernel flow control only); the 2s shutdown-flush bound
	// still applies. A stalled peer then surfaces as a send error the
	// engine can abort on, instead of a silent hang.
	WriteDeadline time.Duration
	// WriteRetries is how many times a failed frame write is retried over
	// a fresh connection (redial + handshake + rewrite) with backoff
	// before the sender declares the destination dead. Zero disables
	// reconnection — the pre-failure-model behaviour.
	WriteRetries int
}

const (
	defaultSendQueueDepth = 16
	defaultDialRetries    = 3
	defaultRetryBackoff   = 25 * time.Millisecond
)

// NewTCPFabric creates listeners for p machines on ephemeral loopback ports
// with default options. Each endpoint maintains a receive pool of poolCount
// buffers of bufSize bytes; a drained receive pool blocks that machine's
// socket readers, which propagates back-pressure to senders through TCP flow
// control.
func NewTCPFabric(p, poolCount, bufSize int) (*TCPFabric, error) {
	return NewTCPFabricOpts(p, poolCount, bufSize, TCPOptions{})
}

// NewTCPFabricOpts is NewTCPFabric with explicit tuning options.
func NewTCPFabricOpts(p, poolCount, bufSize int, opts TCPOptions) (*TCPFabric, error) {
	if p < 1 {
		return nil, fmt.Errorf("comm: fabric needs at least one machine")
	}
	if opts.SendQueueDepth <= 0 {
		opts.SendQueueDepth = defaultSendQueueDepth
	}
	if opts.DialRetries == 0 {
		opts.DialRetries = defaultDialRetries
	} else if opts.DialRetries < 0 {
		opts.DialRetries = 0
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = defaultRetryBackoff
	}
	f := &TCPFabric{
		p:         p,
		bufSize:   bufSize,
		poolCount: poolCount,
		opts:      opts,
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
			queue: make(chan *Buffer, f.opts.SendQueueDepth),
		}
		e.senders[d] = s
		e.senderWG.Add(1)
		go s.loop()
	}
	go e.acceptLoop(f.listeners[m])
	return e, nil
}

// dialPeer connects machine m's send side to peer d — dial, tune, hello —
// retrying transient failures with exponential backoff per TCPOptions.
// Used both at endpoint setup and by sender reconnection after a failed
// write.
func (f *TCPFabric) dialPeer(m, d int) (net.Conn, error) {
	backoff := f.opts.RetryBackoff
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
		if attempt >= f.opts.DialRetries {
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
	e   *tcpEndpoint
	dst int
	// mu guards c: the sender goroutine swaps in a fresh connection on
	// reconnect while Close (another goroutine) arms write deadlines on it.
	mu sync.Mutex
	c  net.Conn

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

func (s *tcpSender) conn() net.Conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c
}

func (s *tcpSender) setConn(c net.Conn) {
	s.mu.Lock()
	s.c = c
	s.mu.Unlock()
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
	s.conn().Close()
}

// writeFrame writes one frame, retrying over a fresh connection per
// TCPOptions.WriteRetries. Retries always reconnect: a partial write on the
// old connection poisons its framing, so resending there would corrupt the
// stream — the receiver drops the old connection at its first truncated
// frame, and the engine's (seq-matched, commutative) protocols tolerate the
// reordering a second connection introduces.
func (s *tcpSender) writeFrame(buf *Buffer, lenBuf *[4]byte) {
	if s.failed() != nil {
		buf.Release()
		return
	}
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(buf.Data)))
	err := s.writeOnce(buf.Data, lenBuf)
	for attempt := 0; err != nil && attempt < s.e.fabric.opts.WriteRetries; attempt++ {
		if !s.reconnect(attempt) {
			break
		}
		err = s.writeOnce(buf.Data, lenBuf)
	}
	buf.Release()
	if err != nil {
		werr := fmt.Errorf("comm: async send %d -> %d: %w", s.e.machine, s.dst, err)
		s.err.CompareAndSwap(nil, &werr)
		s.e.metrics.RecordSendError()
	}
}

// writeOnce performs a single vectored frame write on the current
// connection, bounded by the configured write deadline (and, after Close,
// by the 2s shutdown-flush bound so a stalled peer cannot pin the flush).
func (s *tcpSender) writeOnce(data []byte, lenBuf *[4]byte) error {
	c := s.conn()
	deadline := s.e.fabric.opts.WriteDeadline
	select {
	case <-s.e.done:
		if deadline <= 0 || deadline > 2*time.Second {
			deadline = 2 * time.Second
		}
	default:
	}
	if deadline > 0 {
		c.SetWriteDeadline(time.Now().Add(deadline))
	}
	vec := net.Buffers{lenBuf[:], data}
	s.e.fabric.wireClock.Add(1) // publish: pairs with the readLoop load
	_, err := vec.WriteTo(c)
	return err
}

// reconnect replaces the sender's connection with a freshly dialed one,
// backing off exponentially per attempt. Returns false when redial fails or
// the endpoint is shutting down (no point chasing a peer during teardown).
func (s *tcpSender) reconnect(attempt int) bool {
	select {
	case <-s.e.done:
		return false
	default:
	}
	time.Sleep(s.e.fabric.opts.RetryBackoff << attempt)
	c, err := s.e.fabric.dialPeer(s.e.machine, s.dst)
	if err != nil {
		return false
	}
	s.conn().Close()
	s.setConn(c)
	return true
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
		buf.Release()
		return fmt.Errorf("comm: send to machine %d out of range", dst)
	}
	if dst == e.machine {
		select {
		case <-e.done:
			buf.Release()
			return fmt.Errorf("comm: endpoint %d closed", e.machine)
		default:
		}
		e.metrics.record(buf, dirSent)
		select {
		case e.inbox <- buf:
			return nil
		case <-e.done:
			buf.Release()
			return fmt.Errorf("comm: endpoint %d closed", e.machine)
		}
	}
	// Hand the frame to dst's sender goroutine, blocking only when the bounded
	// queue is full (back-pressure, like the buffer pools).
	s := e.senders[dst]
	if werr := s.failed(); werr != nil {
		buf.Release()
		return fmt.Errorf("comm: send %d -> %d: %w", e.machine, dst, werr)
	}
	s.pending.Add(1)
	// Counted where the frame is accepted, ahead of the hand-over, as the
	// in-process endpoint does and for its reason: the peer can hold the frame
	// before either this goroutine or the sender's runs another instruction. A
	// write that fails later shows as SendErrors.
	e.metrics.record(buf, dirSent)
	defer func() {
		// Close() closes the queue channel; a racing or blocked enqueue
		// panics, which we convert to a clean shutdown error (the same
		// pattern the in-process fabric uses for closed inboxes).
		if recover() != nil {
			s.pending.Add(-1)
			buf.Release()
			err = fmt.Errorf("comm: endpoint %d closed", e.machine)
		}
	}()
	s.queue <- buf
	return nil
}

func (e *tcpEndpoint) Recv() (*Buffer, bool) {
	select {
	case buf := <-e.inbox:
		e.metrics.record(buf, dirRecv)
		return buf, true
	case <-e.done:
		// Drain anything already queued before reporting closure.
		select {
		case buf := <-e.inbox:
			e.metrics.record(buf, dirRecv)
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
				s.conn().SetWriteDeadline(time.Now().Add(2 * time.Second))
			}
		}
		// Wait for the flush: once Close returns, every accepted frame is on
		// the wire (or failed) and released back to its pool.
		e.senderWG.Wait()
	})
	return nil
}
