package comm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/reduce"
)

// ErrAborted is returned by collective operations interrupted by a job
// abort; the engine translates it into the job's root-cause error.
var ErrAborted = errors.New("comm: collective aborted")

// ErrTimeout is returned by collective operations that exceeded their
// configured deadline — the signal that a peer died without announcing it.
var ErrTimeout = errors.New("comm: collective timed out")

// Collectives implements the control-plane operations the engine runs
// between parallel regions: the step barrier (Figure 5b measures its
// latency), allreduce for sequential-region reductions (eigenvector
// normalization, convergence tests, termination detection).
//
// The implementation is a star rooted at machine 0 over MsgCtrl frames. All
// machines must invoke the same collective sequence (SPMD). A control frame's
// Aux holds its section (Begin) in the high half and the op and the round
// within the section in the low half: any frame but the one a wait is for is
// released on arrival. In the star a machine sends round r+1's frame only
// after round r's result reached it, so no frame of the running section can
// arrive ahead of its round; a mismatch is a straggler of an aborted section,
// or of an aborted round of this one.
//
// Collectives is used only by a machine's main goroutine and is not safe for
// concurrent use within one machine.
type Collectives struct {
	ep      Endpoint
	ctrl    <-chan *Buffer
	pool    *Pool
	section uint32 // the section the collectives run in (Begin)
	round   uint32 // the collectives the section has started
	// contrib is the root's gather slot per source machine: an allreduce's
	// contributions land here as they arrive and merge in machine order, so
	// a float reduction's bits do not follow the schedule. Reused by every
	// collective; empty between them.
	contrib []*Buffer

	// abort, when non-nil, interrupts waits as soon as the channel closes
	// (a job-scoped abort). The engine points it at the running job's abort
	// channel for the duration of each parallel region.
	abort <-chan struct{}
	// timeout bounds each control-frame wait; zero waits forever. It is the
	// last-resort detector for peers that died without sending MsgAbort.
	timeout time.Duration
}

// SetAbort installs (or clears, with nil) the abort channel observed by
// collective waits. Called only from the owning machine's main goroutine.
func (c *Collectives) SetAbort(ch <-chan struct{}) { c.abort = ch }

// SetTimeout bounds every subsequent control-frame wait; zero disables.
func (c *Collectives) SetTimeout(d time.Duration) { c.timeout = d }

// Begin starts section sec, the number every machine's frames carry until the
// next Begin, and restarts the round. Sections do not overlap — every machine
// leaves one before any enters the next — so a frame of another section can
// only be an older one's.
func (c *Collectives) Begin(sec uint32) { c.section, c.round = sec, 0 }

// Seq returns the round: how many collectives the current section started.
func (c *Collectives) Seq() uint32 { return c.round }

// Control-frame operation codes, stored above the round in the low half of
// Header.Aux.
const (
	ctrlReduceContrib uint32 = iota + 1
	ctrlReduceResult
)

// NewCollectives creates the collective engine for ep, consuming control
// frames from ctrl (the Router's control channel) and allocating outbound
// frames from pool.
func NewCollectives(ep Endpoint, ctrl <-chan *Buffer, pool *Pool) *Collectives {
	return &Collectives{ep: ep, ctrl: ctrl, pool: pool, contrib: make([]*Buffer, ep.NumMachines())}
}

// ctrlAux is a control frame's Aux: the section, then the op and the round.
func ctrlAux(sec, op, round uint32) uint64 {
	return uint64(sec)<<32 | uint64(op)<<24 | uint64(round&(1<<24-1))
}

func (c *Collectives) newFrame(op uint32) *Buffer {
	buf := c.pool.Acquire()
	buf.Reset(Header{
		Type:   MsgCtrl,
		Worker: CtrlWorker,
		Src:    uint16(c.ep.Machine()),
		Aux:    ctrlAux(c.section, op, c.round),
	})
	return buf
}

// waitCtrl blocks for the control frame of the current section and round
// with op, releasing every other frame on arrival. The caller owns (and must
// release) the returned buffer.
func (c *Collectives) waitCtrl(op uint32) (*Buffer, error) {
	want := ctrlAux(c.section, op, c.round)
	var timeoutCh <-chan time.Time
	if c.timeout > 0 {
		t := time.NewTimer(c.timeout)
		defer t.Stop()
		timeoutCh = t.C
	}
	for {
		select {
		case buf, ok := <-c.ctrl:
			if !ok {
				return nil, fmt.Errorf("comm: control channel closed during collective (op=%d round=%d)", op, c.round)
			}
			if buf.Header().Aux == want {
				return buf, nil
			}
			buf.Release()
		case <-c.abort:
			return nil, fmt.Errorf("%w (op=%d round=%d)", ErrAborted, op, c.round)
		case <-timeoutCh:
			return nil, fmt.Errorf("%w after %v (op=%d round=%d)", ErrTimeout, c.timeout, op, c.round)
		}
	}
}

// Barrier blocks until every machine has entered it: an allreduce of no
// values, so one header-only frame goes each way between the root and every
// other machine. With one machine it is a no-op. Figure 5b reports this
// operation's latency versus machine count.
func (c *Collectives) Barrier() error {
	return c.allReduce(0, func(*Buffer) {}, func([]byte, bool) error { return nil })
}

// AllReduceF64 reduces vals element-wise across all machines with op and
// stores the global result back into vals on every machine.
func (c *Collectives) AllReduceF64(vals []float64, op reduce.Op) error {
	return c.allReduce(len(vals),
		func(buf *Buffer) {
			for _, v := range vals {
				buf.AppendU64(math.Float64bits(v))
			}
		},
		func(payload []byte, merge bool) error {
			if len(payload) < 8*len(vals) {
				return fmt.Errorf("comm: truncated allreduce contribution: %d bytes for %d values", len(payload), len(vals))
			}
			for i := range vals {
				v := math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
				if merge {
					vals[i] = reduce.ApplyF64(op, vals[i], v)
				} else {
					vals[i] = v
				}
			}
			return nil
		})
}

// AllReduceI64 reduces vals element-wise across all machines with op and
// stores the global result back into vals on every machine.
func (c *Collectives) AllReduceI64(vals []int64, op reduce.Op) error {
	return c.allReduce(len(vals),
		func(buf *Buffer) {
			for _, v := range vals {
				buf.AppendU64(uint64(v))
			}
		},
		func(payload []byte, merge bool) error {
			if len(payload) < 8*len(vals) {
				return fmt.Errorf("comm: truncated allreduce contribution: %d bytes for %d values", len(payload), len(vals))
			}
			for i := range vals {
				v := int64(binary.LittleEndian.Uint64(payload[8*i:]))
				if merge {
					vals[i] = reduce.ApplyI64(op, vals[i], v)
				} else {
					vals[i] = v
				}
			}
			return nil
		})
}

// allReduce implements the star-shaped gather-reduce-broadcast shared by the
// typed variants and Barrier (n = 0). write serializes the local contribution; apply decodes and
// validates a remote payload and merges it into the local values (merge=true)
// or overwrites them with the root's result (merge=false). The root merges
// machine 1's contribution first and machine p-1's last, whatever order they
// arrived in.
func (c *Collectives) allReduce(n int, write func(*Buffer), apply func(payload []byte, merge bool) error) error {
	c.round++
	p := c.ep.NumMachines()
	if p == 1 {
		return nil
	}
	if 8*n > c.pool.BufSize()-HeaderSize {
		return fmt.Errorf("comm: allreduce of %d values exceeds buffer size %d", n, c.pool.BufSize())
	}
	me := c.ep.Machine()
	if me == 0 {
		err := c.gather()
		for src := 1; src < p && err == nil; src++ {
			if err = apply(c.contrib[src].Payload(), true); err != nil {
				err = fmt.Errorf("%v (round=%d)", err, c.round)
			}
		}
		for src, buf := range c.contrib {
			if buf != nil {
				buf.Release()
				c.contrib[src] = nil
			}
		}
		if err != nil {
			return err
		}
		for d := 1; d < p; d++ {
			out := c.newFrame(ctrlReduceResult)
			write(out)
			if err := c.ep.Send(d, out); err != nil {
				return err
			}
		}
		return nil
	}
	out := c.newFrame(ctrlReduceContrib)
	write(out)
	if err := c.ep.Send(0, out); err != nil {
		return err
	}
	buf, err := c.waitCtrl(ctrlReduceResult)
	if err != nil {
		return err
	}
	err = apply(buf.Payload(), false)
	buf.Release()
	if err != nil {
		return fmt.Errorf("%v (round=%d)", err, c.round)
	}
	return nil
}

// gather takes the round's contribution from every machine but the root
// into contrib, by source, refusing a source out of range or heard from twice.
func (c *Collectives) gather() error {
	for range len(c.contrib) - 1 {
		buf, err := c.waitCtrl(ctrlReduceContrib)
		if err != nil {
			return err
		}
		src := int(buf.Header().Src)
		if src < 1 || src >= len(c.contrib) || c.contrib[src] != nil {
			buf.Release()
			return fmt.Errorf("comm: allreduce contribution from machine %d refused: out of range or duplicate (round=%d)", src, c.round)
		}
		c.contrib[src] = buf
	}
	return nil
}

// AllReduceSumI64 is a convenience wrapper: sum a single int64 across all
// machines.
func (c *Collectives) AllReduceSumI64(v int64) (int64, error) {
	vals := []int64{v}
	if err := c.AllReduceI64(vals, reduce.Sum); err != nil {
		return 0, err
	}
	return vals[0], nil
}
