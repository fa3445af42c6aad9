package core

import (
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/obs"
)

// Deferred writes, the engine's one receive policy. A copier validates an
// inbound write frame and stashes its records in the machine's backlog; it
// never writes a column. The machine's main goroutine replays the backlog in
// the write drain, once per round before the round stages its applied count
// (drainRound), through applyWrites. So during the task phase the only writers
// to a column are the machine's own workers, and a remote write is visible at
// its owner from the drain of the superstep that issued it on — all the
// paper's relaxed consistency asks. Termination is unchanged: a stashed record
// counts as applied in the drain round that replays it. The abort path
// discards the backlog and removes the temp file, so a faulted job leaves no
// residue and the next job starts clean.
//
// The backlog is at most one superstep's inbound records, kept in one arena
// per machine reused across rounds and jobs. Under Config.SpillWrites it is
// bounded by ResidentBudgetBytes (4 MiB when none is set) and overflows to a
// pgxd-spill-* temp file in SpillDir — an out-of-core run keeps one memory
// budget, and its RAM for topology pages; otherwise it stays in memory and
// never overflows.

// spillState is one machine's write backlog. Copiers add under the mutex; the
// machine's main goroutine arms, replays and resets it.
type spillState struct {
	mu sync.Mutex
	// job is the job whose frames add takes: armed by begin, 0 after reset, so
	// a straggler of an aborted job never enters the next job's backlog.
	job uint64
	// recs is the arena: the memory tail's records in arrival order. Its
	// first taken bytes are out with replay (take, then drop); copiers append
	// past them, and frames counts the frames they appended since.
	recs   []byte
	taken  int
	frames int
	// budget bounds the memory tail before it overflows to the temp file; 0
	// (SpillWrites off) never overflows.
	budget  int64
	dir     string
	file    *os.File
	fileOff int64
}

func newSpillState(cfg *Config) *spillState {
	sp := &spillState{dir: cfg.SpillDir}
	if cfg.SpillWrites {
		sp.budget = cfg.ResidentBudgetBytes
		if sp.budget <= 0 {
			sp.budget = 4 << 20
		}
	}
	return sp
}

// begin arms the backlog for job. Runs on the machine main goroutine before
// the job is published (curJob.Store), so the pre-task barrier orders it
// before any peer's first write frame.
func (sp *spillState) begin(job uint64) {
	sp.mu.Lock()
	sp.job = job
	sp.mu.Unlock()
}

// add stashes the records of one validated write frame of job, reporting
// whether it was taken (false when job is not the armed one: a straggler) and
// how many frames overflowed to the temp file in consequence. The records are
// copied; the frame buffer stays with the caller.
func (sp *spillState) add(job uint64, recs []byte) (took bool, flushed int, err error) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.job != job {
		return false, 0, nil
	}
	sp.recs = append(sp.recs, recs...)
	sp.frames++
	if sp.budget > 0 && int64(len(sp.recs)-sp.taken) > sp.budget {
		flushed = sp.frames
		if err := sp.flushLocked(); err != nil {
			return true, 0, err
		}
	}
	return true, flushed, nil
}

// flushLocked appends the memory tail past the taken bytes to the temp file
// (created lazily) and empties it. Callers hold the mutex.
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
	tail := sp.recs[sp.taken:]
	if _, err := sp.file.WriteAt(tail, sp.fileOff); err != nil {
		return fmt.Errorf("spill: %w", err)
	}
	sp.fileOff += int64(len(tail))
	sp.recs, sp.frames = sp.recs[:sp.taken], 0
	return nil
}

// take detaches the current backlog for replay: the temp file (ownership
// included — an overflow after this starts a fresh file, so replay reads a
// quiescent segment) and the memory tail, which stays in the arena until drop.
// The backlog stays armed; frames arriving during replay stash past the taken
// bytes for the next round — into the same array, or into a grown copy while
// replay reads the old one.
func (sp *spillState) take() (file *os.File, fileLen int64, recs []byte) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	file, fileLen, recs = sp.file, sp.fileOff, sp.recs
	sp.file, sp.fileOff = nil, 0
	sp.taken, sp.frames = len(recs), 0
	return
}

// drop discards the taken bytes once replay is done with them, moving what
// copiers stashed since to the front of the arena.
func (sp *spillState) drop() {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	n := copy(sp.recs, sp.recs[sp.taken:])
	sp.recs, sp.taken = sp.recs[:n], 0
}

// reset disarms the backlog, discards it and removes the temp file. Called
// when a job unpublishes: a drained job left nothing; an aborted one's backlog
// must not apply, and since every machine has unpublished before the cluster
// recovers or shuts down, neither resets it again. Idempotent.
func (sp *spillState) reset() {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.job = 0
	sp.recs, sp.taken, sp.frames = sp.recs[:0], 0, 0
	sp.fileOff = 0
	if sp.file != nil {
		name := sp.file.Name()
		sp.file.Close() //nolint:errcheck
		os.Remove(name) //nolint:errcheck
		sp.file = nil
	}
}

// replayChunk is how many bytes of records replaySpill hands applyWrites at a
// time: a default frame's worth, so its validation and apply passes read
// cached bytes.
const replayChunk = 32 << 10

// replaySpill applies jr's backlog: the temp-file segment first (in arrival
// order), then the memory tail. Runs on the machine main goroutine once per
// drain round, before the round stages its applied count, so a round that
// observes sent == applied has replayed everything. Write-activations land in
// the build frontiers' membership here, and each fed list is sorted once.
func (m *Machine) replaySpill(jr *jobRuntime) error {
	file, fileLen, mem := m.spill.take()
	defer m.spill.drop()
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
	apply := func(recs []byte) error {
		for len(recs) > 0 {
			n := min(len(recs), replayChunk)
			if err := m.applyWrites(jr, uint32(n/writeRecSize), recs[:n]); err != nil {
				return err
			}
			applied += int64(n / writeRecSize)
			recs = recs[n:]
		}
		return nil
	}
	if fileLen > 0 {
		r := io.NewSectionReader(file, 0, fileLen)
		buf := make([]byte, min(fileLen, replayChunk))
		for left := fileLen; left > 0; {
			chunk := buf[:min(left, int64(len(buf)))]
			if _, err := io.ReadFull(r, chunk); err != nil {
				return fmt.Errorf("core: machine %d spill replay: %w", m.id, err)
			}
			if err := apply(chunk); err != nil {
				return err
			}
			left -= int64(len(chunk))
		}
	}
	if err := apply(mem); err != nil {
		return err
	}
	if applied > 0 {
		m.cfg.Obs.Add(m.id, obs.CtrWritesApplied, applied)
		m.writesApplied.Add(applied)
		if jr.activate != nil {
			for _, bf := range jr.builds {
				bf.sortSparse()
			}
		}
	}
	return nil
}
