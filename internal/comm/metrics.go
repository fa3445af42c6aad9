package comm

import (
	"fmt"
	"sync/atomic"
)

type direction int

const (
	dirSent direction = iota
	dirRecv
)

// Metrics accumulates per-endpoint traffic counters, split by message type.
// Figure 6a (traffic reduction from replicas) and the Figure 8 bandwidth
// studies read these. All counters are atomic: many goroutines send
// concurrently.
type Metrics struct {
	framesSent atomic.Int64
	bytesSent  atomic.Int64
	framesRecv atomic.Int64
	bytesRecv  atomic.Int64

	// Per-type byte counts (indexed by MsgType) for sent frames.
	sentByType [7]atomic.Int64

	// Transport error counters: failed socket writes and corrupt/truncated
	// inbound frames (a poisoned stream is diagnosable, not a silent hang).
	sendErrors atomic.Int64
	recvErrors atomic.Int64
}

func (m *Metrics) record(b *Buffer, d direction) {
	n, t := len(b.Data), MsgType(b.Data[0])
	switch d {
	case dirSent:
		m.framesSent.Add(1)
		m.bytesSent.Add(int64(n))
		if int(t) < len(m.sentByType) {
			m.sentByType[t].Add(int64(n))
		}
	case dirRecv:
		m.framesRecv.Add(1)
		m.bytesRecv.Add(int64(n))
	}
}

// FramesSent returns the number of frames sent.
func (m *Metrics) FramesSent() int64 { return m.framesSent.Load() }

// BytesSent returns the number of bytes sent (headers included).
func (m *Metrics) BytesSent() int64 { return m.bytesSent.Load() }

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

// RecordSendError counts one failed socket write.
func (m *Metrics) RecordSendError() { m.sendErrors.Add(1) }

// SendErrors returns how many sends failed at the transport.
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
