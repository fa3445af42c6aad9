package comm

import (
	"fmt"
	"sync/atomic"
)

// Metrics accumulates per-endpoint traffic counters, split by destination
// and by message type. It is the engine's one traffic and transport-error
// ledger: Figure 6a (traffic reduction from replicas), the Figure 8
// bandwidth studies, JobStats.Traffic and the obs registry's job reports all
// read these. All counters are atomic: many
// goroutines send concurrently.
type Metrics struct {
	// links[d] counts the frames and bytes sent to machine d; the sent totals
	// are its row sums.
	links []link

	framesRecv atomic.Int64
	bytesRecv  atomic.Int64

	// Per-type byte counts (indexed by MsgType) for sent frames.
	sentByType [7]atomic.Int64

	// Transport error counters: sends the fabric refused or failed to write,
	// and corrupt/truncated inbound frames (a poisoned stream is diagnosable,
	// not a silent hang).
	sendErrors atomic.Int64
	recvErrors atomic.Int64
}

type link struct{ frames, bytes atomic.Int64 }

// init sizes the per-destination rows for a p-machine fabric.
func (m *Metrics) init(p int) { m.links = make([]link, p) }

// recordSent counts one frame accepted for dst. Callers have range-checked
// dst.
func (m *Metrics) recordSent(dst int, b *Buffer) {
	n, t := int64(len(b.Data)), MsgType(b.Data[0])
	l := &m.links[dst]
	l.frames.Add(1)
	l.bytes.Add(n)
	if int(t) < len(m.sentByType) {
		m.sentByType[t].Add(n)
	}
}

func (m *Metrics) recordRecv(b *Buffer) {
	m.framesRecv.Add(1)
	m.bytesRecv.Add(int64(len(b.Data)))
}

// refuse is the refused-send exit of an endpoint's Send: it releases buf (Send
// owns it either way), counts one send error and returns err.
func (m *Metrics) refuse(buf *Buffer, err error) error {
	buf.Release()
	m.sendErrors.Add(1)
	return err
}

// FramesSentTo returns the number of frames sent to machine d.
func (m *Metrics) FramesSentTo(d int) int64 {
	if d < 0 || d >= len(m.links) {
		return 0
	}
	return m.links[d].frames.Load()
}

// BytesSentTo returns the number of bytes sent to machine d (headers
// included).
func (m *Metrics) BytesSentTo(d int) int64 {
	if d < 0 || d >= len(m.links) {
		return 0
	}
	return m.links[d].bytes.Load()
}

// FramesSent returns the number of frames sent.
func (m *Metrics) FramesSent() int64 {
	var n int64
	for d := range m.links {
		n += m.links[d].frames.Load()
	}
	return n
}

// BytesSent returns the number of bytes sent (headers included).
func (m *Metrics) BytesSent() int64 {
	var n int64
	for d := range m.links {
		n += m.links[d].bytes.Load()
	}
	return n
}

// FramesRecv returns the number of frames received.
func (m *Metrics) FramesRecv() int64 { return m.framesRecv.Load() }

// BytesRecv returns the number of bytes received.
func (m *Metrics) BytesRecv() int64 { return m.bytesRecv.Load() }

// BytesSentByType returns the bytes sent with the given message type.
func (m *Metrics) BytesSentByType(t MsgType) int64 {
	if int(t) >= len(m.sentByType) {
		return 0
	}
	return m.sentByType[t].Load()
}

// DataBytesSent returns bytes sent excluding control traffic — the traffic
// measure Figure 6a plots (replicas reduce data traffic; barrier chatter is
// constant).
func (m *Metrics) DataBytesSent() int64 {
	return m.BytesSent() - m.BytesSentByType(MsgCtrl) - m.BytesSentByType(MsgAbort)
}

// SendErrors returns how many sends the fabric refused (bad or closed
// destination, a sender with a sticky error, an injected failure or kill) or
// failed to write.
func (m *Metrics) SendErrors() int64 { return m.sendErrors.Load() }

// RecordRecvError counts one corrupt or truncated inbound frame.
func (m *Metrics) RecordRecvError() { m.recvErrors.Add(1) }

// RecvErrors returns how many inbound frames were rejected.
func (m *Metrics) RecvErrors() int64 { return m.recvErrors.Load() }

// Snapshot is a point-in-time copy of the counters, safe to subtract.
type Snapshot struct {
	FramesSent, BytesSent int64
	FramesRecv, BytesRecv int64
	DataBytesSent         int64

	// Read-path traffic split.
	ReadReqBytes, ReadRespBytes int64

	// Transport errors.
	SendErrors, RecvErrors int64
}

// Snapshot captures current counter values.
func (m *Metrics) Snapshot() Snapshot {
	return Snapshot{
		FramesSent:    m.FramesSent(),
		BytesSent:     m.BytesSent(),
		FramesRecv:    m.FramesRecv(),
		BytesRecv:     m.BytesRecv(),
		DataBytesSent: m.DataBytesSent(),
		ReadReqBytes:  m.BytesSentByType(MsgReadReq),
		ReadRespBytes: m.BytesSentByType(MsgReadResp),
		SendErrors:    m.SendErrors(),
		RecvErrors:    m.RecvErrors(),
	}
}

// Sub returns s - o component-wise.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	return Snapshot{
		FramesSent:    s.FramesSent - o.FramesSent,
		BytesSent:     s.BytesSent - o.BytesSent,
		FramesRecv:    s.FramesRecv - o.FramesRecv,
		BytesRecv:     s.BytesRecv - o.BytesRecv,
		DataBytesSent: s.DataBytesSent - o.DataBytesSent,
		ReadReqBytes:  s.ReadReqBytes - o.ReadReqBytes,
		ReadRespBytes: s.ReadRespBytes - o.ReadRespBytes,
		SendErrors:    s.SendErrors - o.SendErrors,
		RecvErrors:    s.RecvErrors - o.RecvErrors,
	}
}

// Add returns s + o component-wise.
func (s Snapshot) Add(o Snapshot) Snapshot {
	return Snapshot{
		FramesSent:    s.FramesSent + o.FramesSent,
		BytesSent:     s.BytesSent + o.BytesSent,
		FramesRecv:    s.FramesRecv + o.FramesRecv,
		BytesRecv:     s.BytesRecv + o.BytesRecv,
		DataBytesSent: s.DataBytesSent + o.DataBytesSent,
		ReadReqBytes:  s.ReadReqBytes + o.ReadReqBytes,
		ReadRespBytes: s.ReadRespBytes + o.ReadRespBytes,
		SendErrors:    s.SendErrors + o.SendErrors,
		RecvErrors:    s.RecvErrors + o.RecvErrors,
	}
}

// String renders the snapshot for harness output.
func (s Snapshot) String() string {
	out := fmt.Sprintf("sent=%d frames/%d B recv=%d frames/%d B data=%d B",
		s.FramesSent, s.BytesSent, s.FramesRecv, s.BytesRecv, s.DataBytesSent)
	if s.SendErrors+s.RecvErrors > 0 {
		out += fmt.Sprintf(" errors=%d send/%d recv", s.SendErrors, s.RecvErrors)
	}
	return out
}
