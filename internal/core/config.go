// Package core implements the PGX.D engine itself (paper §3): a cluster of
// simulated machines, each composed of a Task Manager (run-to-complete
// worker goroutines consuming edge-balanced chunks), a Data Manager
// (partitioned CSR, column-oriented properties and the per-load remote sets
// that replicate remote values), and a Communication Manager (buffered
// request/response messaging with copier goroutines and a poller), plus the
// relaxed-consistency job execution model.
package core

import (
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/obs"
)

// Config describes a PGX.D cluster. The zero value is not usable; call
// DefaultConfig and adjust.
type Config struct {
	// NumMachines is the simulated cluster size P.
	NumMachines int
	// Workers is the number of worker goroutines per machine (the paper's
	// worker threads; Figure 7 sweeps this against Copiers).
	Workers int
	// Copiers is the number of copier goroutines per machine serving
	// inbound requests.
	Copiers int
	// BufferSize is the message buffer size in bytes, header included. The
	// paper settles on 256 KiB from Figure 8b; the laptop-scale default here
	// is smaller so per-step latency stays reasonable at bench graph sizes.
	BufferSize int
	// Ablate switches individual engine mechanisms off (or pins the
	// traversal direction) for evaluation. It is an instrument, not a
	// deployment option: only benchmarks and tests set it, and the zero
	// value — every mechanism on — is the only configuration the CLIs, the
	// server and the facade ever run.
	Ablate Ablation
	// ResidentBudgetBytes caps how many bytes of an out-of-core store file
	// (Cluster.LoadStore) the engine keeps resident: workers advise claimed
	// chunks in and the residency window advises the oldest out once the
	// budget is exceeded. Zero or negative disables the window — the page
	// cache alone governs residency; in-memory loads have no window. Under
	// SpillWrites the same budget bounds each machine's write backlog in
	// memory, whatever the load.
	ResidentBudgetBytes int64
	// DecodeCacheBytes sizes the resident pool a compressed store file
	// (.csr3) inflates edge blocks into: each row reader pins the one block
	// it is in and the rest are recycled first-in first-out. Zero uses
	// store.DefaultDecodeCacheBytes; negative holds the whole file (every
	// decoded block stays resident); a positive value below the file's
	// largest decoded block (~64 KiB) is raised to it, since a smaller pool
	// could keep nothing it decodes. Ignored for raw (.csr2) files and
	// in-memory loads. The cache is per store.File, so pool jobs sharing one
	// open file share its decoded blocks.
	DecodeCacheBytes int64
	// SpillWrites bounds the write backlog (spill.go) — the inbound
	// remote-write records copiers stash and the write drain replays, at most
	// one superstep's — at ResidentBudgetBytes per machine (4 MiB when that is
	// zero or negative), overflowing to a temp file in SpillDir, so an
	// out-of-core run keeps its RAM for topology pages. Off, the default, the
	// backlog stays in memory and never overflows.
	SpillWrites bool
	// SpillDir is the directory for spill temp files (empty uses the OS
	// default temp dir). Files are created lazily on first overflow and
	// removed when the job's drain completes or the job aborts.
	SpillDir string
	// Timeout bounds every wait on a peer: a remote response or a drained
	// buffer pool inside a job, the write-drain loop, and each collective
	// control-frame wait, a driver-side reduce or barrier included. Zero
	// waits forever. It is the detector for silently dropped frames and for a
	// machine that died without announcing an abort: a lost frame produces
	// no error, only silence, so without a timeout a faulted job hangs
	// instead of failing.
	Timeout time.Duration
	// Fabric supplies the transport. Nil creates an in-process fabric.
	Fabric comm.Fabric
	// Obs attaches the observability registry: per-job counters, trace
	// spans, the traffic matrix, and the abort flight recorder. Nil (the
	// default) disables observability entirely — instrumentation sites
	// reduce to a nil check, so the engine's hot path is unchanged. Traffic
	// is counted by each endpoint's comm.Metrics either way.
	Obs *obs.Registry
}

// DefaultConfig returns a laptop-scale configuration for p machines,
// mirroring the paper's production setting of 16 workers and 8 copiers in
// miniature.
func DefaultConfig(p int) Config {
	return Config{
		NumMachines: p,
		Workers:     4,
		Copiers:     2,
		BufferSize:  32 << 10,
	}
}

// Ablation is a set of engine mechanisms turned off for an evaluation run
// (paper §5.3, Fig 6b-c treat these as instruments). No member changes any
// algorithm's result (float push sums keep their usual last-ulp freedom);
// only the cost moves.
type Ablation uint8

const (
	// AblateEdgeChunking cuts scheduling chunks by node count instead of
	// edge count — the Figure 6c baseline.
	AblateEdgeChunking Ablation = 1 << iota
	// AblatePinPush and AblatePinPull pin every traversal superstep to one
	// direction instead of the per-superstep rule (pull wins when both are
	// set); the traversals in internal/algorithms read them.
	AblatePinPush
	AblatePinPull
)

// Has reports whether any member of m is set in a.
func (a Ablation) Has(m Ablation) bool { return a&m != 0 }

// frontierDenseFraction is the share of a machine's local nodes at which its
// frontier flips from sorted list to bitmap: the usual bitmap break-even point.
const frontierDenseFraction = 1.0 / 32

// validate normalizes cfg and reports configuration errors.
func (c *Config) validate() error {
	if c.NumMachines < 1 {
		return fmt.Errorf("core: NumMachines %d must be >= 1", c.NumMachines)
	}
	if c.NumMachines > 1<<15 {
		return fmt.Errorf("core: NumMachines %d exceeds the 2^15 machine-id space", c.NumMachines)
	}
	if c.Workers < 1 {
		return fmt.Errorf("core: Workers %d must be >= 1", c.Workers)
	}
	if c.Workers > comm.CtrlWorker-1 {
		return fmt.Errorf("core: Workers %d exceeds the %d worker-id space", c.Workers, comm.CtrlWorker-1)
	}
	if c.Copiers < 1 {
		return fmt.Errorf("core: Copiers %d must be >= 1", c.Copiers)
	}
	if c.BufferSize < comm.HeaderSize+16 {
		return fmt.Errorf("core: BufferSize %d too small", c.BufferSize)
	}
	if c.Timeout < 0 {
		return fmt.Errorf("core: Timeout %v must be >= 0", c.Timeout)
	}
	return nil
}

// shape is what a machine's buffers, queues and scheduling chunks follow from
// its shape — P machines of W workers and C copiers. None of it is a setting:
// the paper buffers remote reads and writes "into large messages per (worker,
// destination)", so how many buffers are in flight is a matter of counting.
type shape struct {
	// req is the request pool: two frames in flight from every worker toward
	// every machine, plus slack, so back-pressure engages only under real
	// load. Workers stall when it drains.
	req int
	// resp is the response pool copiers answer reads and RMIs from.
	resp int
	// ctrl is the collectives' pool; abort the small pool abort announcements
	// draw from, so they never compete with an exhausted data pool.
	ctrl, abort int
	// respQueue is each worker's response queue: its in-flight responses are
	// bounded by the request pool. reqQueue is the copiers' request queue:
	// inbound requests are bounded by the senders' request pools. At these
	// depths the poller never blocks on a queue.
	respQueue, reqQueue int
	// inflight bounds the frames in flight toward one machine
	// (NewInProcFabric).
	inflight int
	// chunkDiv cuts each iterator's nodes or edges into scheduling chunks of
	// total/chunkDiv+1: about eight per worker.
	chunkDiv int
}

// shapeOf derives cfg's shape.
func shapeOf(cfg *Config) shape {
	p := cfg.NumMachines
	s := shape{
		req:      2*cfg.Workers*p + 4,
		resp:     2*cfg.Copiers*p + 4,
		ctrl:     4*p + 8,
		abort:    p + 2,
		chunkDiv: 8 * cfg.Workers,
	}
	s.respQueue = s.req + 2
	s.reqQueue = p*s.req + 4
	s.inflight = p*(s.req+s.resp+s.ctrl+s.abort) + 16
	return s
}

// NewInProcFabric returns the in-process transport NewCluster builds for cfg
// when cfg.Fabric is nil. Every frame in flight toward a machine was drawn
// from some machine's pool, so their number is bounded by the pools: inbound
// requests from every peer's request pool, plus the responses to this
// machine's own requests from the peers' response pools, plus control frames
// and abort frames from their control and abort pools — P·(req + resp + ctrl +
// abort), and 16 of slack. Each inbox holds that many frames, so a send never
// blocks on one.
func NewInProcFabric(cfg Config) *comm.InProcFabric {
	return comm.NewInProcFabric(cfg.NumMachines, shapeOf(&cfg).inflight)
}

// NewTCPFabric returns a loopback-TCP transport for cfg whose receive pools
// hold NewInProcFabric's in-flight bound, so a socket reader never waits for a
// receive buffer while the frame that would free one is queued behind it.
func NewTCPFabric(cfg Config) (*comm.TCPFabric, error) {
	return comm.NewTCPFabric(cfg.NumMachines, shapeOf(&cfg).inflight, cfg.BufferSize)
}
