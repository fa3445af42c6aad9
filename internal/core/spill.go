package core

import (
	"fmt"
	"io"
	"math"
	"os"
	"sync"

	"repro/internal/obs"
)

// Deferred writes, the engine's one receive policy. A copier validates an
// inbound write frame and stashes its records in the machine's backlog; it
// never writes a column. Once the drain's first round has told the machine how
// many records it is owed, its main goroutine waits until that many are
// stashed (awaitWrites) and replays the backlog once, through applyWrites; a
// replay of any other count fails the job. So during the task phase the only
// writers to a column are the machine's own workers, and a remote write is
// visible at its owner from the drain of the superstep that issued it on — all
// the paper's relaxed consistency asks. The abort path discards the backlog
// and removes the temp file: a faulted job leaves no residue.
//
// The backlog is at most one superstep's inbound records, kept in one arena
// per machine reused across jobs. Under Config.SpillWrites it is bounded by
// ResidentBudgetBytes (4 MiB when none is set) and overflows to a
// pgxd-spill-* temp file in SpillDir — an out-of-core run keeps one memory
// budget, and its RAM for topology pages; otherwise it stays in memory and
// never overflows.

// spillState is one machine's write backlog. Copiers add under the mutex; the
// machine's main goroutine arms, awaits, replays and resets it.
type spillState struct {
	mu sync.Mutex
	// job is the job whose frames add takes: armed by begin, 0 once the owed
	// records are all in and after reset, so neither a straggler of an aborted
	// job nor a surplus frame enters a backlog replay reads.
	job uint64
	// recs is the arena: the memory tail's records in arrival order; frames
	// counts the frames appended since it last overflowed. count is the records
	// stashed for the job, owed the drain's first round's figure (MaxInt64
	// before it), and arrived takes a token when count reaches owed.
	recs    []byte
	frames  int
	count   int64
	owed    int64
	arrived chan struct{}
	// budget bounds the memory tail before it overflows to the temp file; 0
	// (SpillWrites off) never overflows.
	budget  int64
	dir     string
	file    *os.File
	fileOff int64
}

func newSpillState(cfg *Config) *spillState {
	sp := &spillState{dir: cfg.SpillDir, arrived: make(chan struct{}, 1)}
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
	sp.job, sp.owed = job, math.MaxInt64
	sp.mu.Unlock()
}

// add stashes the records of one validated write frame of job, reporting
// whether it was taken (false when job is not the armed one: a straggler, or
// a frame past the owed count) and how many frames overflowed to the temp file
// in consequence. The records are copied; the frame buffer stays with the
// caller.
func (sp *spillState) add(job uint64, recs []byte) (took bool, flushed int, err error) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.job != job {
		return false, 0, nil
	}
	sp.recs = append(sp.recs, recs...)
	sp.frames++
	sp.count += int64(len(recs) / writeRecSize)
	if sp.budget > 0 && int64(len(sp.recs)) > sp.budget {
		flushed = sp.frames
		if err := sp.flushLocked(); err != nil {
			return true, 0, err
		}
	}
	if sp.count >= sp.owed { // all in: disarm, and wake the owner
		sp.job = 0
		select { // the job's one token: reset emptied the slot
		case sp.arrived <- struct{}{}:
		default:
		}
	}
	return true, flushed, nil
}

// expect records that the job owes this machine owed records and reports
// whether they are all in already, disarming the backlog if so; if not, add
// puts a token on arrived when the last one is stashed.
func (sp *spillState) expect(owed int64) bool {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.owed = owed
	if sp.count < owed {
		return false
	}
	sp.job = 0
	return true
}

// flushLocked appends the memory tail to the temp file (created lazily) and
// empties it. Callers hold the mutex.
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
	if _, err := sp.file.WriteAt(sp.recs, sp.fileOff); err != nil {
		return fmt.Errorf("spill: %w", err)
	}
	sp.fileOff += int64(len(sp.recs))
	sp.recs, sp.frames = sp.recs[:0], 0
	return nil
}

// reset disarms the backlog, discards it and removes the temp file. Called
// when a job unpublishes: a drained job's backlog is replayed; an aborted one's
// must not apply, and since every machine has unpublished before the cluster
// recovers or shuts down, neither resets it again. Idempotent.
func (sp *spillState) reset() {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.job = 0
	sp.recs, sp.frames, sp.count = sp.recs[:0], 0, 0
	sp.fileOff = 0
	select { // a token the job never took
	case <-sp.arrived:
	default:
	}
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

// replaySpill applies jr's backlog — the temp-file segment first (in arrival
// order), then the memory tail — and returns how many records it applied. Runs
// on the machine main goroutine once per job, after awaitWrites: the owed
// records are all in and the backlog is disarmed, so nothing writes it while
// replay reads. Write-activations land in the build frontiers' membership
// here, and each fed list is sorted once.
func (m *Machine) replaySpill(jr *jobRuntime) (int64, error) {
	sp := m.spill
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
	if sp.fileOff > 0 {
		r := io.NewSectionReader(sp.file, 0, sp.fileOff)
		buf := make([]byte, min(sp.fileOff, replayChunk))
		for left := sp.fileOff; left > 0; {
			chunk := buf[:min(left, int64(len(buf)))]
			if _, err := io.ReadFull(r, chunk); err != nil {
				return applied, fmt.Errorf("core: machine %d spill replay: %w", m.id, err)
			}
			if err := apply(chunk); err != nil {
				return applied, err
			}
			left -= int64(len(chunk))
		}
	}
	if err := apply(sp.recs); err != nil {
		return applied, err
	}
	if applied > 0 {
		m.cfg.Obs.Add(m.id, obs.CtrWritesApplied, applied)
		if jr.activate != nil {
			for _, bf := range jr.builds {
				bf.sortSparse()
			}
		}
	}
	return applied, nil
}
