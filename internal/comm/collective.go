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
// machines must invoke the same collective sequence (SPMD); frames are
// matched by (op, seq) so a fast machine running ahead into the next
// collective cannot confuse a slow one.
//
// Collectives is used only by a machine's main goroutine and is not safe for
// concurrent use within one machine.
type Collectives struct {
	ep      Endpoint
	ctrl    <-chan *Buffer
	pool    *Pool
	seq     uint32
	pending []*Buffer

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

// Seq returns the collective sequence counter, used by recovery to
// resynchronize machines whose counters diverged during an aborted job.
func (c *Collectives) Seq() uint32 { return c.seq }

// Recover releases any buffered stale control frames and forces the
// sequence counter to seq. After an aborted job, machines may have
// advanced different distances into the job's collective schedule; the
// driver levels them with Recover so the next job's frames match up.
func (c *Collectives) Recover(seq uint32) {
	for _, buf := range c.pending {
		buf.Release()
	}
	c.pending = c.pending[:0]
	c.seq = seq
}

// Control-frame operation codes, stored in the high half of Header.Aux with
// the sequence number in the low half.
const (
	ctrlReduceContrib uint32 = iota + 1
	ctrlReduceResult
)

// NewCollectives creates the collective engine for ep, consuming control
// frames from ctrl (the Router's control channel) and allocating outbound
// frames from pool.
func NewCollectives(ep Endpoint, ctrl <-chan *Buffer, pool *Pool) *Collectives {
	return &Collectives{ep: ep, ctrl: ctrl, pool: pool}
}

func ctrlAux(op, seq uint32) uint64 { return uint64(op)<<32 | uint64(seq) }

func (c *Collectives) newFrame(op, seq uint32) *Buffer {
	buf := c.pool.Acquire()
	buf.Reset(Header{
		Type:   MsgCtrl,
		Worker: CtrlWorker,
		Src:    uint16(c.ep.Machine()),
		Aux:    ctrlAux(op, seq),
	})
	return buf
}

// waitCtrl blocks for the next control frame matching (op, seq), buffering
// mismatches for later collectives. The caller owns (and must release) the
// returned buffer.
func (c *Collectives) waitCtrl(op, seq uint32) (*Buffer, error) {
	want := ctrlAux(op, seq)
	for i, buf := range c.pending {
		if buf.Header().Aux == want {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			return buf, nil
		}
	}
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
				return nil, fmt.Errorf("comm: control channel closed during collective (op=%d seq=%d)", op, seq)
			}
			if buf.Header().Aux == want {
				return buf, nil
			}
			c.pending = append(c.pending, buf)
		case <-c.abort:
			return nil, fmt.Errorf("%w (op=%d seq=%d)", ErrAborted, op, seq)
		case <-timeoutCh:
			return nil, fmt.Errorf("%w after %v (op=%d seq=%d)", ErrTimeout, c.timeout, op, seq)
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
// or overwrites them with the root's result (merge=false).
func (c *Collectives) allReduce(n int, write func(*Buffer), apply func(payload []byte, merge bool) error) error {
	c.seq++
	seq := c.seq
	p := c.ep.NumMachines()
	if p == 1 {
		return nil
	}
	if 8*n > c.pool.BufSize()-HeaderSize {
		return fmt.Errorf("comm: allreduce of %d values exceeds buffer size %d", n, c.pool.BufSize())
	}
	me := c.ep.Machine()
	if me == 0 {
		for i := 0; i < p-1; i++ {
			buf, err := c.waitCtrl(ctrlReduceContrib, seq)
			if err != nil {
				return err
			}
			err = apply(buf.Payload(), true)
			buf.Release()
			if err != nil {
				return fmt.Errorf("%v (seq=%d)", err, seq)
			}
		}
		for d := 1; d < p; d++ {
			out := c.newFrame(ctrlReduceResult, seq)
			write(out)
			if err := c.ep.Send(d, out); err != nil {
				return err
			}
		}
		return nil
	}
	out := c.newFrame(ctrlReduceContrib, seq)
	write(out)
	if err := c.ep.Send(0, out); err != nil {
		return err
	}
	buf, err := c.waitCtrl(ctrlReduceResult, seq)
	if err != nil {
		return err
	}
	err = apply(buf.Payload(), false)
	buf.Release()
	if err != nil {
		return fmt.Errorf("%v (seq=%d)", err, seq)
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
