// Package comm implements PGX.D's Communication Manager substrate
// (paper §3.4): fixed-size message buffers drawn from bounded pools
// (back-pressure), a pluggable point-to-point transport with an in-process
// and a TCP implementation, a poller that routes inbound frames to workers
// and copiers, control-plane collectives (barrier, allreduce, broadcast),
// and a remote-method-invocation registry.
//
// The package is payload-agnostic: engines define their own record formats
// inside frames. Only control frames (collectives) are interpreted here.
package comm

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// MsgType tags a frame's purpose. Routing is by type: requests go to copier
// queues, responses to the originating worker, control frames to the
// collective engine.
type MsgType uint8

const (
	// MsgReadReq carries buffered remote-read requests (paper: 8-byte
	// address records).
	MsgReadReq MsgType = iota
	// MsgReadResp carries the values answering a MsgReadReq, in request
	// order (the side structure on the requester matches them back up).
	MsgReadResp
	// MsgWriteReq carries buffered remote-write (reduction) records that
	// copiers apply with atomics.
	MsgWriteReq
	// MsgRMIReq invokes a registered remote method.
	MsgRMIReq
	// MsgRMIResp carries an RMI result back to the calling worker.
	MsgRMIResp
	// MsgCtrl carries collective/control traffic (barriers, reductions).
	MsgCtrl
	// MsgAbort announces that the sending machine aborted the current job
	// (Aux carries the job id, the payload the cause). Receivers abort the
	// same job locally so no machine hangs waiting on a peer that already
	// gave up — the fail-soft replacement for panic-on-wire-error.
	MsgAbort
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case MsgReadReq:
		return "READ_REQ"
	case MsgReadResp:
		return "READ_RESP"
	case MsgWriteReq:
		return "WRITE_REQ"
	case MsgRMIReq:
		return "RMI_REQ"
	case MsgRMIResp:
		return "RMI_RESP"
	case MsgCtrl:
		return "CTRL"
	case MsgAbort:
		return "ABORT"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// CtrlWorker is the pseudo worker id used by a machine's main goroutine
// (collectives, abort announcements). A read or RMI response addressed to it
// is released as misaddressed: only tasks issue reads and RMIs.
const CtrlWorker = 255

// HeaderSize is the fixed frame header length in bytes.
const HeaderSize = 16

// Header is the decoded frame header. Layout (little endian):
//
//	[0]     type
//	[1]     worker  (requester's worker id; echoed back in responses)
//	[2:4]   src machine
//	[4:8]   record count
//	[8:16]  aux (message-type specific: RMI method id, ctrl op/seq, ...)
type Header struct {
	Type   MsgType
	Worker uint8
	Src    uint16
	Count  uint32
	Aux    uint64
}

// Buffer is one message buffer: a fixed-capacity byte slab beginning with a
// frame header. Buffers are acquired from a Pool, filled by appending
// records, sent (ownership transfers to the transport/receiver), and finally
// released back to their origin pool. The paper sizes these at 256 KiB
// (Figure 8b); the capacity is the pool's configured buffer size.
type Buffer struct {
	// Data holds header + payload; len(Data) is the bytes used so far.
	Data []byte
	pool *Pool
}

// Reset truncates the buffer to an empty payload with the given header.
func (b *Buffer) Reset(h Header) {
	b.Data = b.Data[:HeaderSize]
	b.Data[0] = byte(h.Type)
	b.Data[1] = h.Worker
	binary.LittleEndian.PutUint16(b.Data[2:4], h.Src)
	binary.LittleEndian.PutUint32(b.Data[4:8], h.Count)
	binary.LittleEndian.PutUint64(b.Data[8:16], h.Aux)
}

// Header decodes the frame header.
func (b *Buffer) Header() Header {
	return Header{
		Type:   MsgType(b.Data[0]),
		Worker: b.Data[1],
		Src:    binary.LittleEndian.Uint16(b.Data[2:4]),
		Count:  binary.LittleEndian.Uint32(b.Data[4:8]),
		Aux:    binary.LittleEndian.Uint64(b.Data[8:16]),
	}
}

// SetCount updates the record-count header field in place.
func (b *Buffer) SetCount(n uint32) {
	binary.LittleEndian.PutUint32(b.Data[4:8], n)
}

// SetAux updates the aux header field in place.
func (b *Buffer) SetAux(v uint64) {
	binary.LittleEndian.PutUint64(b.Data[8:16], v)
}

// Payload returns the bytes after the header.
func (b *Buffer) Payload() []byte { return b.Data[HeaderSize:] }

// Room returns how many payload bytes still fit.
func (b *Buffer) Room() int { return cap(b.Data) - len(b.Data) }

// Cap returns the buffer's total capacity (header + payload).
func (b *Buffer) Cap() int { return cap(b.Data) }

// AppendU64 appends one little-endian uint64 record field.
func (b *Buffer) AppendU64(v uint64) {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	b.Data = append(b.Data, tmp[:]...)
}

// AppendBytes appends raw bytes.
func (b *Buffer) AppendBytes(p []byte) {
	b.Data = append(b.Data, p...)
}

// Release returns the buffer to its origin pool. The caller must not touch
// the buffer afterwards. Release on an already-pooled buffer corrupts the
// pool; the engine's ownership discipline (exactly one owner at all times)
// is what prevents that, and the pool's leak check verifies it in tests.
func (b *Buffer) Release() {
	b.pool.put(b)
}

// Pool is a bounded pool of fixed-size buffers. Acquire blocks when the pool
// is empty — this is the back-pressure mechanism the paper relies on to
// bound memory and avoid flooding ("back-pressure mechanisms were induced to
// avoid deadlocks"): requesters stall until in-flight buffers drain, while
// responders draw from a separate pool so they can always make progress.
type Pool struct {
	ch       chan *Buffer
	bufSize  int
	total    int
	acquired atomic.Int64
}

// NewPool creates a pool of count buffers of bufSize bytes each (including
// the HeaderSize header).
func NewPool(count, bufSize int) *Pool {
	if count < 1 {
		panic("comm: pool needs at least one buffer")
	}
	if bufSize < HeaderSize+8 {
		panic(fmt.Sprintf("comm: buffer size %d too small", bufSize))
	}
	p := &Pool{ch: make(chan *Buffer, count), bufSize: bufSize, total: count}
	for i := 0; i < count; i++ {
		p.ch <- &Buffer{Data: make([]byte, HeaderSize, bufSize), pool: p}
	}
	return p
}

// BufSize returns the configured per-buffer capacity.
func (p *Pool) BufSize() int { return p.bufSize }

// Acquire takes a buffer, blocking until one is available.
func (p *Pool) Acquire() *Buffer {
	b := <-p.ch
	p.acquired.Add(1)
	return b
}

// TryAcquire takes a buffer without blocking; ok is false when the pool is
// drained.
func (p *Pool) TryAcquire() (*Buffer, bool) {
	select {
	case b := <-p.ch:
		p.acquired.Add(1)
		return b, true
	default:
		return nil, false
	}
}

func (p *Pool) put(b *Buffer) {
	b.Data = b.Data[:HeaderSize]
	p.acquired.Add(-1)
	select {
	case p.ch <- b:
	default:
		panic("comm: pool overflow — buffer released twice or to wrong pool")
	}
}

// Outstanding returns how many buffers are currently checked out. Tests use
// this to verify the engine leaks nothing after each job.
func (p *Pool) Outstanding() int { return int(p.acquired.Load()) }

// C exposes the pool's free-buffer channel so callers can select between
// acquiring a buffer and other events (a worker stalled on back-pressure
// keeps draining its response queue this way). A caller that receives a
// buffer from C must immediately call NoteAcquired to keep the outstanding
// count accurate.
func (p *Pool) C() <-chan *Buffer { return p.ch }

// NoteAcquired records an acquisition performed by receiving directly from
// C. See C.
func (p *Pool) NoteAcquired() { p.acquired.Add(1) }
