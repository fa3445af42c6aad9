package obs

import "repro/internal/comm"

// WrapEndpoint layers traffic accounting over a comm endpoint: every Send
// feeds the registry's per-(src,dst) matrix and byte/frame counters, every
// Recv the inbound counters. With a nil or unattached registry the endpoint
// is returned unwrapped, so the disabled engine keeps the raw transport on
// its hot path.
func WrapEndpoint(ep comm.Endpoint, r *Registry) comm.Endpoint {
	if r == nil || ep == nil {
		return ep
	}
	return &obsEndpoint{inner: ep, reg: r, src: ep.Machine()}
}

type obsEndpoint struct {
	inner comm.Endpoint
	reg   *Registry
	src   int
}

func (e *obsEndpoint) Machine() int           { return e.inner.Machine() }
func (e *obsEndpoint) NumMachines() int       { return e.inner.NumMachines() }
func (e *obsEndpoint) Metrics() *comm.Metrics { return e.inner.Metrics() }
func (e *obsEndpoint) Close() error           { return e.inner.Close() }

// Send records the frame where it is accepted, ahead of the hand-over, as the
// comm endpoints do: the peer can act on the frame — finish the job it belongs
// to, whose report then reads the traffic — before the inner Send returns, and
// Send transfers buffer ownership. A send that fails stays counted and counts
// a send error.
func (e *obsEndpoint) Send(dst int, buf *comm.Buffer) error {
	e.reg.Traffic(e.src, dst, len(buf.Data))
	if err := e.inner.Send(dst, buf); err != nil {
		e.reg.Add(e.src, CtrSendErrors, 1)
		return err
	}
	return nil
}

func (e *obsEndpoint) Recv() (*comm.Buffer, bool) {
	buf, ok := e.inner.Recv()
	if ok && buf != nil {
		e.reg.Add(e.src, CtrBytesRecv, int64(len(buf.Data)))
		e.reg.Add(e.src, CtrFramesRecv, 1)
	}
	return buf, ok
}

// Quiesce forwards to the inner endpoint when it supports quiescing (the
// async TCP path); the engine's leak checks find this method by type
// assertion, so the wrapper must pass it through.
func (e *obsEndpoint) Quiesce() {
	if q, ok := e.inner.(interface{ Quiesce() }); ok {
		q.Quiesce()
	}
}
