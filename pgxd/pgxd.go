// Package pgxd is the public API of the PGX.D reproduction: a fast
// distributed graph processing engine (Hong et al., SC '15) simulated over
// in-process or TCP transports.
//
// The typical flow mirrors the paper's Figure 2 application skeleton:
//
//	g, _ := pgxd.RMAT(16, 16, pgxd.TwitterLike(), 42)
//	cluster, _ := pgxd.NewCluster(pgxd.DefaultConfig(4))
//	defer cluster.Shutdown()
//	cluster.LoadGraph(g)
//	ranks, metrics, _ := cluster.PageRankPull(10, 0.85)
//
// Built-in algorithms cover the paper's evaluation suite (Table 2); custom
// run-to-complete kernels plug in through RunJob with the Task interface —
// see examples/custom_kernel.
package pgxd

import (
	"repro/internal/algorithms"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/reduce"
	"repro/internal/store"
)

// --- graph substrate ---------------------------------------------------------

// Graph is an immutable directed graph in CSR form (both orientations).
type Graph = graph.Graph

// NodeID identifies a vertex (dense, 0-based).
type NodeID = graph.NodeID

// Edge is one directed, optionally weighted edge.
type Edge = graph.Edge

// RMATParams configures the RMAT generator.
type RMATParams = graph.RMATParams

// TwitterLike returns RMAT parameters shaped like the paper's Twitter graph.
func TwitterLike() RMATParams { return graph.TwitterLike() }

// WebLike returns RMAT parameters shaped like the paper's Web-UK graph.
func WebLike() RMATParams { return graph.WebLike() }

// RMAT generates a skewed power-law graph with 2^scale nodes and
// edgeFactor*2^scale edges.
func RMAT(scale, edgeFactor int, p RMATParams, seed int64) (*Graph, error) {
	return graph.RMAT(scale, edgeFactor, p, seed)
}

// Uniform generates an Erdős–Rényi graph with n nodes and m edges.
func Uniform(n, m int, seed int64) (*Graph, error) { return graph.Uniform(n, m, seed) }

// Grid generates a road-network-like mesh with long-range shortcuts.
func Grid(rows, cols, shortcuts int, seed int64) (*Graph, error) {
	return graph.Grid(rows, cols, shortcuts, seed)
}

// PreferentialAttachment generates a Barabási–Albert style skewed graph.
func PreferentialAttachment(n, k int, seed int64) (*Graph, error) {
	return graph.PreferentialAttachment(n, k, seed)
}

// FromEdges builds a graph from an edge list.
func FromEdges(n int, edges []Edge, weighted bool) (*Graph, error) {
	return graph.FromEdges(n, edges, weighted)
}

// --- engine configuration ----------------------------------------------------

// Config describes a PGX.D cluster; see DefaultConfig.
type Config = core.Config

// DefaultConfig returns a laptop-scale configuration for p simulated
// machines: 4 workers and 2 copiers per machine, 32 KiB message buffers,
// edge partitioning, and a replica of every remote value a machine's rows
// reference.
func DefaultConfig(p int) Config { return core.DefaultConfig(p) }

// NewTCPFabric creates a loopback-TCP transport sized for cfg; assign it to
// cfg.Fabric before NewCluster to run the engine over real sockets.
func NewTCPFabric(cfg Config) (comm.Fabric, error) {
	f, err := core.NewTCPFabric(cfg)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// --- failure model and fault injection ----------------------------------------

// ErrJobAborted wraps every error returned for a job that started and then
// failed (transport fault, timeout, dead machine, protocol violation). Test
// with errors.Is; the root cause stays in the chain. After an aborted job
// the cluster has recovered and the next job starts clean, but property
// values the failed job touched are undefined.
var ErrJobAborted = core.ErrJobAborted

// ErrAborted is the sentinel inside collective operations interrupted by a
// job abort; ErrTimeout marks a collective or request wait that expired.
var (
	ErrAborted = comm.ErrAborted
	ErrTimeout = comm.ErrTimeout
)

// ErrJobCanceled marks jobs stopped by external cancellation (Cluster.Cancel:
// a deadline, a client cancel, shutdown) rather than a fault. It appears
// wrapped inside ErrJobAborted; test with errors.Is.
var ErrJobCanceled = core.ErrJobCanceled

// FaultKind selects what a fault rule does to a matching frame.
type FaultKind = comm.FaultKind

// Fault kinds.
const (
	FaultDrop     = comm.FaultDrop
	FaultDelay    = comm.FaultDelay
	FaultTruncate = comm.FaultTruncate
	FaultFail     = comm.FaultFail
	FaultKill     = comm.FaultKill
)

// FaultRule matches frames by (src, dst, type) and applies a fault; see
// comm.FaultRule for the trigger fields (After, Every, Limit, Prob).
type FaultRule = comm.FaultRule

// FaultPlan is a seeded, deterministic set of fault rules.
type FaultPlan = comm.FaultPlan

// FaultStats counts the faults an injector actually applied.
type FaultStats = comm.FaultStats

// AnyMachine (as FaultRule.Src/Dst) and AnyType (as FaultRule.Type) match
// every machine or message type.
const (
	AnyMachine = comm.AnyMachine
	AnyType    = comm.AnyType
)

// MsgType identifies a wire frame's type, for targeting FaultRule.Type at
// one kind of traffic (cast to int in the rule).
type MsgType = comm.MsgType

// Message types carried by the engine's transport.
const (
	MsgReadReq  = comm.MsgReadReq
	MsgReadResp = comm.MsgReadResp
	MsgWriteReq = comm.MsgWriteReq
	MsgRMIReq   = comm.MsgRMIReq
	MsgRMIResp  = comm.MsgRMIResp
	MsgCtrl     = comm.MsgCtrl
	MsgAbort    = comm.MsgAbort
)

// FaultInjector wraps a fabric and applies a FaultPlan to its traffic.
type FaultInjector = comm.FaultInjector

// NewFaultFabric wraps inner (e.g. a fabric from NewTCPFabric, or nil for a
// fresh in-process fabric sized for cfg) with deterministic fault
// injection. Assign the returned injector to cfg.Fabric; use its Kill,
// ClearRules, and Stats methods to drive test scenarios.
func NewFaultFabric(cfg Config, inner comm.Fabric, plan FaultPlan) *FaultInjector {
	if inner == nil {
		inner = core.NewInProcFabric(cfg)
	}
	return comm.NewFaultInjector(inner, plan)
}

// --- observability -------------------------------------------------------------

// ObsRegistry is the unified observability registry: per-job counters,
// latency histograms, a per-(src,dst) traffic matrix, per-machine trace
// spans, and the abort flight recorder. Create with NewObsRegistry, assign
// to Config.Obs before NewCluster, and read results via JobReport /
// AbortDump. A nil registry (the default) disables observability with zero
// overhead.
type ObsRegistry = obs.Registry

// NewObsRegistry creates an observability registry ready to assign to
// Config.Obs.
func NewObsRegistry() *ObsRegistry { return obs.NewRegistry() }

// JobReport is one job's observability snapshot: counter deltas, latency
// histograms, the traffic matrix, and the job's trace spans.
type JobReport = obs.JobReport

// AbortDump is the flight recorder's capture of an aborted job: partial
// counters, traffic, and the most recent spans per machine.
type AbortDump = obs.AbortDump

// Span is one recorded trace event; see SpanKind for what each measures.
type Span = obs.Span

// SpanKind names what a trace span measures.
type SpanKind = obs.SpanKind

// Span kinds recorded by the engine.
const (
	SpanJob         = obs.SpanJob
	SpanBarrier     = obs.SpanBarrier
	SpanTaskPhase   = obs.SpanTaskPhase
	SpanWriteDrain  = obs.SpanWriteDrain
	SpanFlush       = obs.SpanFlush
	SpanReadRTT     = obs.SpanReadRTT
	SpanCopierServe = obs.SpanCopierServe
)

// --- custom kernel API ---------------------------------------------------------

// Ctx is the execution context passed to Task callbacks.
type Ctx = core.Ctx

// Task is a run-to-complete kernel (its ReadDone continuation); see the
// paper's §4.1 programming model. A kernel comes in one of two forms, by
// iterator: NodeTask on IterNodes, RowTask on the edge iterators. Either is a
// loop over one chunk at a time, stepping its Cursor.
type Task = core.Task

// NodeTask is a kernel the node iterator hands a chunk of nodes; it loops
// over them itself (RunNodes).
type NodeTask = core.NodeTask

// Cursor is the worker's walk over one chunk a kernel is handed: Next steps to
// the next node (NodeTask) or row (RowTask), setting Ctx.Node at each node's
// first row, and Row returns the current row.
type Cursor = core.Cursor

// NoReads is a mixin for push-only tasks.
type NoReads = core.NoReads

// RowTask is a kernel the edge iterators hand a chunk of adjacency rows; it
// loops over the rows and over each row's edges itself (RunRows).
type RowTask = core.RowTask

// Row is one node's adjacency in one orientation, as Cursor.Row returns it.
type Row = core.Row

// F64View and I64View are typed read views over a property (Ctx.F64 /
// Ctx.I64): At answers every owned neighbor and, in a job that mirrors the
// property, every replicated one, and reports false for the rest, which go
// through Ctx.ReadRef. Writer is the write handle of a (property, operator)
// pair (Ctx.Writer returns a *Writer): WriteRow reduces by the row, Write by
// the ref.
type (
	F64View = core.F64View
	I64View = core.I64View
	Writer  = core.Writer
)

// JobSpec describes one parallel region.
type JobSpec = core.JobSpec

// JobStats reports one job execution.
type JobStats = core.JobStats

// WriteSpec declares a reduced property.
type WriteSpec = core.WriteSpec

// PropID names a registered node property.
type PropID = core.PropID

// IterKind selects a job's iterator.
type IterKind = core.IterKind

// Job iterators (paper §4.1.2, plus the undirected-view extension).
const (
	IterNodes     = core.IterNodes
	IterOutEdges  = core.IterOutEdges
	IterInEdges   = core.IterInEdges
	IterBothEdges = core.IterBothEdges
)

// ReduceOp is a reduction operator for property writes.
type ReduceOp = reduce.Op

// Reduction operators.
const (
	Sum = reduce.Sum
	Min = reduce.Min
	Max = reduce.Max
	Or  = reduce.Or
	And = reduce.And
)

// F64Word converts a raw read value to float64 (in Task.ReadDone).
func F64Word(v uint64) float64 { return core.F64Word(v) }

// I64Word converts a raw read value to int64.
func I64Word(v uint64) int64 { return core.I64Word(v) }

// Metrics aggregates an algorithm run (iterations, time, traffic).
type Metrics = algorithms.Metrics

// --- cluster -------------------------------------------------------------------

// Cluster is a booted PGX.D cluster. Create with NewCluster, feed with
// LoadGraph, then run built-in algorithms or custom jobs. Shutdown when done.
type Cluster struct {
	core *core.Cluster
	g    *graph.Graph
}

// NewCluster boots the simulated machines (workers, copiers, pollers,
// transports) per cfg.
func NewCluster(cfg Config) (*Cluster, error) {
	c, err := core.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	return &Cluster{core: c}, nil
}

// LoadGraph partitions g across the machines edge-balanced (paper §3.3) and
// builds per-machine CSR stores, replicating every remote address a machine's
// rows reference.
func (c *Cluster) LoadGraph(g *Graph) error {
	if err := c.core.Load(g); err != nil {
		return err
	}
	c.g = g
	return nil
}

// StoreFile is an opened out-of-core store file, raw or compressed (written
// by pgxd-gen -format csr2|csr3, store.WriteGraph[Compressed], or
// store.WriteStream).
type StoreFile = store.File

// OpenStore maps a store file read-only, validating the whole container
// before returning.
func OpenStore(path string) (*StoreFile, error) { return store.Open(path) }

// LoadStore adopts the mmap'd store file instead of copying it onto the
// heap: topology stays page-cache-backed, with residency bounded by
// Config.ResidentBudgetBytes (and, for a compressed file, decoded edge
// blocks by Config.DecodeCacheBytes). The file's baked-in partition count must
// equal the cluster's machine count, and the file must stay open until
// after Shutdown (sections alias the mapping). TriangleCount requires the
// in-memory graph and is unavailable on store-loaded clusters.
func (c *Cluster) LoadStore(sf *StoreFile) error { return c.core.LoadStore(sf) }

// Shutdown stops all machines. Idempotent.
func (c *Cluster) Shutdown() { c.core.Shutdown() }

// Cancel aborts the in-flight job (if any) through the job-scoped abort
// latch and makes every subsequent job fail fast with ErrJobCanceled until
// Uncancel — the hook for per-request deadlines and client cancellation.
// Safe from any goroutine (e.g. a time.AfterFunc).
func (c *Cluster) Cancel(cause error) { c.core.Cancel(cause) }

// Uncancel clears a previous Cancel so the cluster accepts jobs again.
func (c *Cluster) Uncancel() { c.core.Uncancel() }

// CancelCause returns the sticky cancellation error, or nil when active.
func (c *Cluster) CancelCause() error { return c.core.CancelCause() }

// Core exposes the underlying engine for advanced use (custom properties,
// RMI, driver-side reductions).
func (c *Cluster) Core() *core.Cluster { return c.core }

// Observability returns the registry assigned via Config.Obs, or nil when
// observability is off.
func (c *Cluster) Observability() *ObsRegistry { return c.core.Obs() }

// LastJobReport returns the most recently completed job's report, or nil
// when observability is off or no job has run.
func (c *Cluster) LastJobReport() *JobReport { return c.core.Obs().LastReport() }

// LastAbortDump returns the flight recorder's capture of the most recent
// job abort, or nil when observability is off or no job has aborted.
func (c *Cluster) LastAbortDump() *AbortDump { return c.core.Obs().LastAbort() }

// NumNodes returns the loaded graph's node count.
func (c *Cluster) NumNodes() int { return c.core.NumNodes() }

// NumEdges returns the loaded graph's edge count.
func (c *Cluster) NumEdges() int64 { return c.core.NumEdges() }

// RunJob executes a custom parallel region cluster-wide.
func (c *Cluster) RunJob(spec JobSpec) (JobStats, error) { return c.core.RunJob(spec) }

// AddPropF64 registers a float64 node property.
func (c *Cluster) AddPropF64(name string) (PropID, error) { return c.core.AddPropF64(name) }

// AddPropI64 registers an int64 node property.
func (c *Cluster) AddPropI64(name string) (PropID, error) { return c.core.AddPropI64(name) }

// --- built-in algorithms (the paper's Table 2 suite) -------------------------

// PageRankPull runs iters power iterations with remote data pulling — the
// variant only PGX.D supports, and the fastest (paper §5.2).
func (c *Cluster) PageRankPull(iters int, damping float64) ([]float64, Metrics, error) {
	return algorithms.PageRankPull(c.core, iters, damping)
}

// PageRankPush runs iters power iterations with data pushing (SUM reductions
// into the neighbors), the pattern conventional frameworks require.
func (c *Cluster) PageRankPush(iters int, damping float64) ([]float64, Metrics, error) {
	return algorithms.PageRankPush(c.core, iters, damping)
}

// PageRankApprox runs delta-propagation PageRank with vertex deactivation
// below threshold.
func (c *Cluster) PageRankApprox(damping, threshold float64, maxIter int) ([]float64, Metrics, error) {
	return algorithms.PageRankApprox(c.core, damping, threshold, maxIter)
}

// WCC computes weakly connected components (labels are minimum member ids).
func (c *Cluster) WCC(maxIter int) ([]int64, Metrics, error) {
	return algorithms.WCC(c.core, maxIter)
}

// SSSP computes single-source shortest paths (Bellman-Ford) from source;
// the loaded graph must carry edge weights.
func (c *Cluster) SSSP(source NodeID, maxIter int) ([]float64, Metrics, error) {
	return algorithms.SSSP(c.core, source, maxIter)
}

// HopDist computes BFS hop distances from root.
func (c *Cluster) HopDist(root NodeID, maxIter int) ([]int64, Metrics, error) {
	return algorithms.HopDist(c.core, root, maxIter)
}

// Eigenvector computes eigenvector centrality by iters normalized power
// iterations (data pulling).
func (c *Cluster) Eigenvector(iters int) ([]float64, Metrics, error) {
	return algorithms.Eigenvector(c.core, iters)
}

// KCore finds the maximum k-core number and each node's core number.
func (c *Cluster) KCore(maxK int64) (int64, []int64, Metrics, error) {
	return algorithms.KCore(c.core, maxK)
}

// --- extensions beyond the paper's Table 2 (its §6 outlook) ------------------

// TriangleCount counts transitive triads (u→v, u→w, v→w) through the
// general task framework: remote neighbors are handled by shipping the
// adjacency list to the data via RMI ("moving computation instead of data").
func (c *Cluster) TriangleCount() (int64, Metrics, error) {
	return algorithms.TriangleCount(c.core, c.g)
}

// PersonalizedPageRank ranks vertices by proximity to the source set
// (random walk with restart).
func (c *Cluster) PersonalizedPageRank(sources []NodeID, iters int, damping float64) ([]float64, Metrics, error) {
	return algorithms.PersonalizedPageRank(c.core, sources, iters, damping)
}

// MIS computes a maximal independent set over the undirected view (Luby's
// algorithm); the result is deterministic in seed.
func (c *Cluster) MIS(seed int64, maxRounds int) ([]bool, Metrics, error) {
	return algorithms.MIS(c.core, seed, maxRounds)
}

// Closeness estimates harmonic closeness centrality from `samples` BFS
// sources (deterministic in seed).
func (c *Cluster) Closeness(samples int, seed int64, maxIter int) ([]float64, Metrics, error) {
	return algorithms.Closeness(c.core, samples, seed, maxIter)
}
