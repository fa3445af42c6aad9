package comm

import (
	"fmt"
	"sync"
)

// Endpoint is one machine's attachment to the interconnection fabric.
// Send transfers buffer ownership to the fabric unconditionally: on success
// the eventual consumer releases the buffer, on failure the transport does —
// callers never touch a buffer after Send. Recv blocks for the next inbound
// frame. Implementations are safe for concurrent Send from many goroutines;
// Recv is called only by the machine's poller goroutine.
//
// The paper's engine "does not exploit any special features (e.g. RDMA)" of
// its InfiniBand fabric, which is precisely what makes transports swappable
// here: the engine code paths are identical over channels and TCP.
type Endpoint interface {
	// Machine returns this endpoint's machine id in [0, NumMachines).
	Machine() int
	// NumMachines returns the cluster size.
	NumMachines() int
	// Send delivers buf to machine dst. Ownership of buf transfers; the
	// receiver (or the transport, for wire transports) releases it.
	// Sending to the local machine is allowed and loops back.
	Send(dst int, buf *Buffer) error
	// Recv returns the next inbound frame, blocking until one arrives.
	// ok is false after Close, once the inbox is drained.
	Recv() (*Buffer, bool)
	// Close detaches the endpoint. In-flight frames may still be received.
	Close() error
	// Metrics returns cumulative traffic counters for this endpoint. A Send
	// the fabric refuses counts one send error here, in the refusing
	// endpoint.
	Metrics() *Metrics
}

// Fabric creates the endpoints of a simulated cluster. All endpoints must be
// obtained before any traffic flows.
type Fabric interface {
	// Endpoint returns machine m's endpoint. Each machine's endpoint must be
	// requested exactly once.
	Endpoint(m int) (Endpoint, error)
	// Close tears down the fabric after all endpoints are closed.
	Close() error
}

// ---------------------------------------------------------------------------
// In-process fabric: channels as wires.

// InProcFabric connects P in-process machines with buffered channels. A sent
// buffer is handed to the destination inbox without copying; the receiver
// releases it back to the sender's pool. This is the default transport for
// tests and benchmarks: it preserves the engine's batching/back-pressure
// behaviour while making runs deterministic and allocation-free on the wire.
type InProcFabric struct {
	inboxes []chan *Buffer
	taken   []bool
	mu      sync.Mutex
	closed  bool
}

// NewInProcFabric creates a fabric for p machines whose per-machine inboxes
// hold up to inboxDepth frames. A deeper inbox decouples sender and receiver
// more (more frames in flight) at the cost of memory; back-pressure comes
// from the bounded buffer pools, not the inbox, so the depth only needs to
// exceed the total pooled buffer count to never block senders artificially.
func NewInProcFabric(p int, inboxDepth int) *InProcFabric {
	if p < 1 {
		panic("comm: fabric needs at least one machine")
	}
	if inboxDepth < 1 {
		inboxDepth = 1
	}
	f := &InProcFabric{
		inboxes: make([]chan *Buffer, p),
		taken:   make([]bool, p),
	}
	for i := range f.inboxes {
		f.inboxes[i] = make(chan *Buffer, inboxDepth)
	}
	return f
}

// Endpoint implements Fabric.
func (f *InProcFabric) Endpoint(m int) (Endpoint, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if m < 0 || m >= len(f.inboxes) {
		return nil, fmt.Errorf("comm: machine %d out of range [0,%d)", m, len(f.inboxes))
	}
	if f.taken[m] {
		return nil, fmt.Errorf("comm: endpoint %d already taken", m)
	}
	f.taken[m] = true
	e := &inProcEndpoint{fabric: f, machine: m}
	e.metrics.init(len(f.inboxes))
	return e, nil
}

// Close implements Fabric. In-proc teardown is per-endpoint; Close is a
// no-op provided for interface symmetry with wire transports.
func (f *InProcFabric) Close() error { return nil }

// InMemory marks this fabric as delivering frames by reference: a sent
// buffer is handed to the destination inbox without serialization, so frame
// size costs nothing here.
func (f *InProcFabric) InMemory() bool { return true }

// InMemoryFabric reports whether f hands frames to receivers by reference
// within one process rather than serialising them. Wrappers (fault injectors)
// forward the answer of the fabric they wrap; unknown fabrics count as real
// wires. The engine's one use is the codec.wire_ratio shim (core's
// worker.sendFlushed), which reads 0 in memory by the benchmark's contract.
func InMemoryFabric(f Fabric) bool {
	im, ok := f.(interface{ InMemory() bool })
	return ok && im.InMemory()
}

type inProcEndpoint struct {
	fabric  *InProcFabric
	machine int
	metrics Metrics
	mu      sync.Mutex
	closed  bool
}

func (e *inProcEndpoint) Machine() int     { return e.machine }
func (e *inProcEndpoint) NumMachines() int { return len(e.fabric.inboxes) }
func (e *inProcEndpoint) Metrics() *Metrics {
	return &e.metrics
}

func (e *inProcEndpoint) Send(dst int, buf *Buffer) (err error) {
	if dst < 0 || dst >= len(e.fabric.inboxes) {
		return e.metrics.refuse(buf, fmt.Errorf("comm: send to machine %d out of range", dst))
	}
	defer func() {
		// A send on a closed inbox channel panics; the frame was not
		// delivered, so reclaim it and report an error — shutdown races
		// surface cleanly instead of crashing the process or leaking.
		if recover() != nil {
			err = e.metrics.refuse(buf, fmt.Errorf("comm: machine %d inbox closed", dst))
		}
	}()
	// Counted before the hand-over, not after: the receiver can act on the
	// frame — finish the job it answers, whose traffic is then read — before
	// this goroutine runs again, and a copier's Send is waited for by nobody.
	// (A send refused by a closed inbox stays counted and counts a send error;
	// that endpoint is gone.)
	e.metrics.recordSent(dst, buf)
	e.fabric.inboxes[dst] <- buf
	return nil
}

func (e *inProcEndpoint) Recv() (*Buffer, bool) {
	buf, ok := <-e.fabric.inboxes[e.machine]
	if !ok {
		return nil, false
	}
	e.metrics.recordRecv(buf)
	return buf, true
}

func (e *inProcEndpoint) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	close(e.fabric.inboxes[e.machine])
	return nil
}
