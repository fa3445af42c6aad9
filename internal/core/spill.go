package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/obs"
)

// Spillable write buffers (Config.SpillWrites). During an out-of-core run the
// task phase wants every spare byte of RAM for topology pages; inbound remote
// write frames applied eagerly would fault property and frontier pages into
// the middle of the streaming scan. With spilling on, copiers copy each write
// frame's records into a bounded in-memory buffer — overflowing to a temp
// file past SpillBudgetBytes — without applying them, and the write-drain
// loop replays the backlog on the machine's main goroutine: first the file,
// then the memory tail, through the same applyWrites path copiers use, so
// write-activation behaves identically. Termination is unchanged — a spilled
// frame's records simply count as applied in the drain round that replays
// them — and the abort path
// discards the backlog and removes the temp file, so a faulted job leaves no
// residue and the next job starts clean.

// spillFrame is one deferred write frame: the record count applyWrites
// consumes plus the copied payload.
type spillFrame struct {
	count   uint32
	payload []byte
}

// spillFileHeaderBytes is the per-frame prelude in the temp file:
// count u32 | payloadLen u32.
const spillFileHeaderBytes = 8

// spillState is one machine's spill buffer. Copiers add under the mutex;
// the machine main goroutine replays and resets. Created once at machine
// startup when Config.SpillWrites is set; active only between a job's start
// and the completion of its write drain.
type spillState struct {
	mu     sync.Mutex
	active bool
	mem    []spillFrame
	// memBytes counts buffered payload bytes; past budget the memory tail
	// flushes to file.
	memBytes int64
	budget   int64
	dir      string
	file     *os.File
	fileOff  int64
	scratch  []byte // flush assembly buffer, reused
}

func newSpillState(cfg *Config) *spillState {
	if !cfg.SpillWrites {
		return nil
	}
	return &spillState{budget: cfg.SpillBudgetBytes, dir: cfg.SpillDir}
}

// begin arms the spill for a job. Runs on the machine main goroutine before
// the job is published (curJob.Store), so the pre-task barrier orders it
// before any peer's first write frame.
func (sp *spillState) begin() {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	sp.active = true
	sp.mu.Unlock()
}

// add defers one write frame, reporting whether it was taken (false when the
// spill is not armed — the caller applies directly) and how many frames
// overflowed to the temp file in consequence. The payload is copied; the
// frame buffer stays with the caller.
func (sp *spillState) add(count uint32, payload []byte) (took bool, flushed int, err error) {
	if sp == nil {
		return false, 0, nil
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if !sp.active {
		return false, 0, nil
	}
	p := make([]byte, len(payload))
	copy(p, payload)
	sp.mem = append(sp.mem, spillFrame{count: count, payload: p})
	sp.memBytes += int64(len(p))
	if sp.memBytes > sp.budget {
		flushed = len(sp.mem)
		if err := sp.flushLocked(); err != nil {
			return true, 0, err
		}
	}
	return true, flushed, nil
}

// flushLocked appends every buffered frame to the temp file (created lazily)
// and empties the memory tail. Callers hold the mutex.
func (sp *spillState) flushLocked() error {
	if sp.file == nil {
		dir := sp.dir
		if dir == "" {
			dir = os.TempDir()
		}
		f, err := os.CreateTemp(dir, "pgxd-spill-*")
		if err != nil {
			return fmt.Errorf("spill: %w", err)
		}
		sp.file = f
	}
	buf := sp.scratch[:0]
	for _, fr := range sp.mem {
		buf = binary.LittleEndian.AppendUint32(buf, fr.count)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(fr.payload)))
		buf = append(buf, fr.payload...)
	}
	sp.scratch = buf[:0]
	if _, err := sp.file.WriteAt(buf, sp.fileOff); err != nil {
		return fmt.Errorf("spill: %w", err)
	}
	sp.fileOff += int64(len(buf))
	sp.mem = sp.mem[:0]
	sp.memBytes = 0
	return nil
}

// take detaches the current backlog for replay: the temp file (ownership
// included — a concurrent overflow after this starts a fresh file, so replay
// reads a quiescent segment) and the memory tail. The spill stays active;
// frames arriving during replay buffer for the next round.
func (sp *spillState) take() (file *os.File, fileLen int64, mem []spillFrame) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	file, fileLen = sp.file, sp.fileOff
	sp.file = nil
	sp.fileOff = 0
	mem = sp.mem
	sp.mem = nil
	sp.memBytes = 0
	return
}

// reset discards the backlog and removes the temp file. Called after a
// successful drain (nothing left), after an abort (backlog must not apply),
// and at shutdown. Idempotent.
func (sp *spillState) reset() {
	if sp == nil {
		return
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.active = false
	sp.mem = nil
	sp.memBytes = 0
	sp.fileOff = 0
	if sp.file != nil {
		name := sp.file.Name()
		sp.file.Close() //nolint:errcheck
		os.Remove(name) //nolint:errcheck
		sp.file = nil
	}
}

// replaySpill applies the spilled backlog: the temp-file segment first (in
// arrival order), then the memory tail. Runs on the machine main goroutine
// once per drain round, before the round stages its applied count, so a round
// that observes sent == applied has replayed everything.
func (m *Machine) replaySpill() error {
	sp := m.spill
	file, fileLen, mem := sp.take()
	if file != nil {
		// The detached file is replay's to clean up, success or error — an
		// abort mid-replay must not leave a temp file behind.
		defer func() {
			name := file.Name()
			file.Close()    //nolint:errcheck
			os.Remove(name) //nolint:errcheck
		}()
	}
	var applied int64
	if fileLen > 0 {
		r := io.NewSectionReader(file, 0, fileLen)
		var hdr [spillFileHeaderBytes]byte
		var payload []byte
		for off := int64(0); off < fileLen; {
			if _, err := io.ReadFull(r, hdr[:]); err != nil {
				return fmt.Errorf("core: machine %d spill replay: %w", m.id, err)
			}
			count := leU32(hdr[0:])
			plen := int64(leU32(hdr[4:]))
			if off+spillFileHeaderBytes+plen > fileLen {
				return fmt.Errorf("core: machine %d spill replay: truncated frame at %d", m.id, off)
			}
			if int64(cap(payload)) < plen {
				payload = make([]byte, plen)
			}
			payload = payload[:plen]
			if _, err := io.ReadFull(r, payload); err != nil {
				return fmt.Errorf("core: machine %d spill replay: %w", m.id, err)
			}
			if err := m.applyWrites(count, payload); err != nil {
				return err
			}
			applied += int64(count)
			off += spillFileHeaderBytes + plen
		}
	}
	for _, fr := range mem {
		if err := m.applyWrites(fr.count, fr.payload); err != nil {
			return err
		}
		applied += int64(fr.count)
	}
	if applied > 0 {
		m.writesApplied.Add(applied)
		m.cfg.Obs.Add(m.id, obs.CtrWritesApplied, applied)
	}
	return nil
}

// leU32 decodes a little-endian uint32 at the start of p.
func leU32(p []byte) uint32 { return binary.LittleEndian.Uint32(p) }
