package comm

import (
	"sync"
	"sync/atomic"
)

// Router is the paper's poller thread (§3.4): a dedicated goroutine per
// machine that "polls across various queues between each workers and
// copiers and puts/gets message buffers to/from the networking device
// driver". Inbound frames are routed by type: requests to the copier queue,
// responses to the response queue of the worker that issued them, control
// frames to the control channel. Outbound frames go directly through
// Endpoint.Send, which is thread-safe; the Go scheduler plays the role of
// the paper's outbound polling.
type Router struct {
	ep         Endpoint
	workerResp []chan *Buffer
	reqQueue   chan *Buffer
	ctrl       chan *Buffer
	abort      chan *Buffer
	done       sync.WaitGroup

	// reqIn counts request frames put on reqQueue, reqDone the ones a copier
	// reported served (RequestDone); see PendingRequests.
	reqIn, reqDone atomic.Int64
}

// RouterConfig sizes the router's queues. Queue capacities must exceed the
// number of frames that can be in flight toward them or the poller stalls;
// the engine sizes them from its buffer-pool counts so routing never blocks
// (that bound is what makes the back-pressure scheme deadlock-free).
type RouterConfig struct {
	// NumWorkers is how many worker response queues to maintain.
	NumWorkers int
	// RespDepth is each worker response queue's capacity.
	RespDepth int
	// ReqDepth is the shared copier request queue's capacity.
	ReqDepth int
	// CtrlDepth is the control channel's capacity.
	CtrlDepth int
}

// NewRouter creates a router over ep and starts its poller goroutine.
func NewRouter(ep Endpoint, cfg RouterConfig) *Router {
	if cfg.NumWorkers < 1 {
		cfg.NumWorkers = 1
	}
	if cfg.RespDepth < 1 {
		cfg.RespDepth = 64
	}
	if cfg.ReqDepth < 1 {
		cfg.ReqDepth = 256
	}
	if cfg.CtrlDepth < 1 {
		cfg.CtrlDepth = 64
	}
	r := &Router{
		ep:         ep,
		workerResp: make([]chan *Buffer, cfg.NumWorkers),
		reqQueue:   make(chan *Buffer, cfg.ReqDepth),
		ctrl:       make(chan *Buffer, cfg.CtrlDepth),
		abort:      make(chan *Buffer, cfg.CtrlDepth),
	}
	for i := range r.workerResp {
		r.workerResp[i] = make(chan *Buffer, cfg.RespDepth)
	}
	r.done.Add(1)
	go r.poll()
	return r
}

func (r *Router) poll() {
	defer r.done.Done()
	for {
		buf, ok := r.ep.Recv()
		if !ok {
			// Endpoint closed: propagate closure downstream so workers,
			// copiers, and collectives observe shutdown.
			for _, ch := range r.workerResp {
				close(ch)
			}
			close(r.reqQueue)
			close(r.ctrl)
			close(r.abort)
			return
		}
		switch MsgType(buf.Data[0]) {
		case MsgReadResp, MsgRMIResp:
			// Only workers issue reads and RMIs, so a response to any other
			// id (CtrlWorker included) is misaddressed: drop rather than wedge
			// or let it pose as a control frame.
			if w := int(buf.Data[1]); w < len(r.workerResp) {
				r.workerResp[w] <- buf
			} else {
				buf.Release()
			}
		case MsgReadReq, MsgWriteReq, MsgRMIReq:
			r.reqIn.Add(1)
			r.reqQueue <- buf
		case MsgCtrl:
			r.ctrl <- buf
		case MsgAbort:
			// Abort announcements must not wedge the poller even if the
			// machine's abort watcher is slow: drop on a full queue (the
			// abort it carries has already been announced by someone).
			select {
			case r.abort <- buf:
			default:
				buf.Release()
			}
		default:
			buf.Release()
		}
	}
}

// WorkerResp returns worker w's response queue.
func (r *Router) WorkerResp(w int) <-chan *Buffer { return r.workerResp[w] }

// ReqQueue returns the shared copier request queue.
func (r *Router) ReqQueue() <-chan *Buffer { return r.reqQueue }

// Ctrl returns the control channel consumed by collectives.
func (r *Router) Ctrl() <-chan *Buffer { return r.ctrl }

// AbortQueue returns the channel carrying inbound MsgAbort frames. The
// engine's abort watcher consumes it for the life of the machine.
func (r *Router) AbortQueue() <-chan *Buffer { return r.abort }

// RequestDone reports one frame taken from ReqQueue as served and released.
func (r *Router) RequestDone() { r.reqDone.Add(1) }

// PendingRequests reports how many inbound request frames are queued or in a
// copier's hands: routed minus RequestDone, so a frame counts from before it
// is enqueued until its copier is done with it, with no window at the
// dequeue. The
// recovery drain polls this to know when the cluster has gone quiet after an
// aborted job — over TCP a frame being served lives in the transport's own
// receive buffer, which no engine pool accounts for.
func (r *Router) PendingRequests() int {
	done := r.reqDone.Load() // read first: a racing frame can only over-count
	return int(r.reqIn.Load() - done)
}

// Shutdown closes the endpoint and waits for the poller to drain and close
// all downstream channels. Remaining queued frames are released.
func (r *Router) Shutdown() {
	r.ep.Close()
	r.done.Wait()
	for _, ch := range r.workerResp {
		for buf := range ch {
			buf.Release()
		}
	}
	for buf := range r.reqQueue {
		buf.Release()
	}
	for buf := range r.ctrl {
		buf.Release()
	}
	for buf := range r.abort {
		buf.Release()
	}
}
