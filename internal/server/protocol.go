// Package server implements the paper's §6.2 outlook as a working system:
// "a long-running server system which allows multiple concurrent clients.
// That is, each client can load up multiple graph instances and execute
// different analysis algorithms on them in an interactive manner."
//
// The server keeps a registry of named graph instances, each backed by a
// small pool of engine clusters over one shared immutable graph, so
// read-only analyses on the same graph run concurrently (analyses never
// mutate the graph, only their own job-scoped properties). Requests arrive
// as JSON lines over TCP and pass through an admission scheduler: a global
// concurrency cap, per-tenant quotas, priorities with aging, and
// per-request deadlines/cancellation that abort the engine job through the
// core cancellation latch — the resource-fairness questions the paper
// raises, answered with an explicit multi-tenant job scheduler.
package server

import (
	"encoding/json"
	"fmt"
)

// Request is one client command. Op selects the action; the remaining
// fields are op-specific.
type Request struct {
	// Op is one of: load, generate, run, cancel, list, drop, stats.
	Op string `json:"op"`

	// Graph names the target instance (load, generate, run, drop).
	Graph string `json:"graph,omitempty"`

	// Tenant identifies the client for admission accounting and per-tenant
	// concurrency quotas (op=run, optionally op=cancel). Empty maps to
	// "default".
	Tenant string `json:"tenant,omitempty"`

	// Priority biases admission order (op=run): higher runs sooner, default
	// 0, clamped to [-8, 8]. Queued requests age one level per
	// Config.PriorityAging waited, so low-priority work cannot starve.
	Priority int `json:"priority,omitempty"`

	// TimeoutMillis, when positive, is the request's end-to-end deadline
	// (op=run): queue wait plus execution. A request still queued when it
	// expires is rejected; a running one has its engine job canceled through
	// the abort latch and returns a deadline error.
	TimeoutMillis int64 `json:"timeout_millis,omitempty"`

	// MaxResidentMB declares the run's peak resident-memory need in MiB
	// (op=run). Zero charges the run its algorithm's catalog columns,
	// ⌈Cols × 8 B × nodes / 1 MiB⌉. The admission memory gate keeps the sum
	// over running analyses within Config.RunMemoryBudgetMB: an over-budget
	// run queues (counted in stats as a budget deferral) until enough memory
	// frees.
	MaxResidentMB int64 `json:"max_resident_mb,omitempty"`

	// Tag is a client-chosen label for a run (op=run) so another connection
	// can cancel it (op=cancel): cancel removes queued runs with the tag and
	// aborts running ones via the engine's cancellation latch. With Tenant
	// set on the cancel, only that tenant's runs match.
	Tag string `json:"tag,omitempty"`

	// Path is a graph file to load (op=load); .bin selects binary format.
	Path string `json:"path,omitempty"`

	// Generator parameters (op=generate).
	Kind       string  `json:"kind,omitempty"` // rmat, uniform, grid
	Scale      int     `json:"scale,omitempty"`
	EdgeFactor int     `json:"edge_factor,omitempty"`
	Nodes      int     `json:"nodes,omitempty"`
	Edges      int     `json:"edges,omitempty"`
	Seed       int64   `json:"seed,omitempty"`
	WeightLo   float64 `json:"weight_lo,omitempty"`
	WeightHi   float64 `json:"weight_hi,omitempty"`

	// Engine parameters (load/generate).
	Machines int `json:"machines,omitempty"`

	// Analysis parameters (op=run). Algo is a name in algorithms.Catalog();
	// zero Iterations/Damping/Threshold take the catalog's defaults.
	Algo       string  `json:"algo,omitempty"`
	Iterations int     `json:"iterations,omitempty"`
	Damping    float64 `json:"damping,omitempty"`
	Threshold  float64 `json:"threshold,omitempty"`
	Source     uint32  `json:"source,omitempty"`
	TopK       int     `json:"top_k,omitempty"`
}

// Response is the server's reply to one request.
type Response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`

	// Graphs lists loaded instances (op=list, op=stats).
	Graphs []GraphInfo `json:"graphs,omitempty"`

	// Result carries an analysis outcome (op=run).
	Result *RunResult `json:"result,omitempty"`

	// Stats carries server-level counters (op=stats).
	Stats *ServerStats `json:"stats,omitempty"`
}

// GraphInfo describes one loaded graph instance.
type GraphInfo struct {
	Name     string `json:"name"`
	Nodes    int    `json:"nodes"`
	Edges    int64  `json:"edges"`
	Weighted bool   `json:"weighted"`
	Machines int    `json:"machines"`
}

// RunResult summarizes one analysis.
type RunResult struct {
	Algo       string  `json:"algo"`
	Iterations int     `json:"iterations"`
	Millis     float64 `json:"millis"`
	Extra      string  `json:"extra,omitempty"`
	// TopVertices are the run's TopK best vertices in algorithms.Result.Top's
	// order: by value (smallest first for distances), ties by node id.
	TopVertices []TopVertex `json:"top,omitempty"`

	// JobID is the server-assigned admission sequence number of this run.
	JobID uint64 `json:"job_id,omitempty"`
	// QueueMillis is how long the run waited for admission before an engine
	// was granted (Millis measures execution only).
	QueueMillis float64 `json:"queue_millis,omitempty"`
}

// TopVertex is one entry of an analysis' top-K ranking.
type TopVertex struct {
	Node  uint32  `json:"node"`
	Value float64 `json:"value"`
}

// ServerStats reports server-level accounting. The admission fields come
// from one snapshot of the scheduler's ledger: RunsServed and FailedRuns are
// the sums of the tenants' Served and Failed — FailedRuns counts analyses
// that returned an error, in the queue or on an engine (including engine job
// aborts) — and ActiveAnalyses is the number of engine leases held.
// TransportErrors sums, across all loaded instances' fabrics, the sends the
// fabric refused (bad or closed destination, a connection with a sticky write
// error, an injected failure) or failed to write, and the rejected inbound
// frames — nonzero values mean the engine has been absorbing wire faults
// rather than crashing. The run-duration percentiles cover the most recent
// analyses (a sliding window); JobsObserved counts engine-level parallel
// regions across instances, as seen by their observability registries.
type ServerStats struct {
	LoadedGraphs    int   `json:"loaded_graphs"`
	ResidentEdges   int64 `json:"resident_edges"`
	MaxEdges        int64 `json:"max_edges"`
	RunsServed      int64 `json:"runs_served"`
	FailedRuns      int64 `json:"failed_runs"`
	ActiveAnalyses  int   `json:"active_analyses"`
	TransportErrors int64 `json:"transport_errors"`

	// StaleWriteFrames and StaleReadFrames count, across all loaded
	// instances' engines, write and read or RMI request frames dropped by the
	// section check — frames from an aborted job that outlived recovery.
	StaleWriteFrames int64 `json:"stale_write_frames"`
	StaleReadFrames  int64 `json:"stale_read_frames"`

	UptimeSeconds float64 `json:"uptime_seconds"`
	RunP50Millis  float64 `json:"run_p50_millis,omitempty"`
	RunP90Millis  float64 `json:"run_p90_millis,omitempty"`
	RunP99Millis  float64 `json:"run_p99_millis,omitempty"`
	JobsObserved  int64   `json:"jobs_observed"`
	AbortsSeen    int64   `json:"aborts_seen"`

	// Scheduler accounting: requests waiting for admission right now, the
	// per-instance engine pool size, runs rejected or aborted by their
	// deadline, runs canceled explicitly (op=cancel or shutdown), and the
	// admission-queue wait percentiles from the server's obs histogram
	// (power-of-two bucket upper bounds).
	QueuedAnalyses int `json:"queued_analyses"`
	EnginePoolSize int `json:"engine_pool_size"`
	// BudgetDeferrals counts runs the admission memory gate held back at
	// least once because admitting them would have pushed the running set
	// past Config.RunMemoryBudgetMB; MemInUseMB is the declared or charged
	// resident total of the currently running analyses. Both stay zero with
	// no memory budget configured.
	BudgetDeferrals      int64   `json:"budget_deferrals"`
	MemInUseMB           int64   `json:"mem_in_use_mb"`
	DeadlineExceededRuns int64   `json:"deadline_exceeded_runs"`
	CanceledRuns         int64   `json:"canceled_runs"`
	QueueP50Millis       float64 `json:"queue_p50_millis,omitempty"`
	QueueP99Millis       float64 `json:"queue_p99_millis,omitempty"`

	// Tenants breaks admission accounting down per tenant ID.
	Tenants map[string]*TenantStats `json:"tenants,omitempty"`

	// LastAbort summarizes the most recent flight-recorder dump across all
	// loaded instances, or nil when no job has aborted.
	LastAbort *AbortSummary `json:"last_abort,omitempty"`
}

// TenantStats is one tenant's slice of the scheduler accounting.
type TenantStats struct {
	// Served counts completed analyses; Failed counts error responses
	// (including canceled and deadline-exceeded runs).
	Served int64 `json:"served"`
	Failed int64 `json:"failed"`
	// Running and Queued are the tenant's current admission state.
	Running int `json:"running"`
	Queued  int `json:"queued"`
}

// AbortSummary is the stats-protocol view of a flight-recorder dump.
type AbortSummary struct {
	Graph string `json:"graph"`
	Job   uint64 `json:"job"`
	Name  string `json:"name"`
	Err   string `json:"err"`
	// AgeSeconds is how long ago the abort happened.
	AgeSeconds float64 `json:"age_seconds"`
	// Spans is how many trace spans the flight recorder retained.
	Spans int `json:"spans"`
}

// encode writes v as one JSON line.
func encode(enc *json.Encoder, v any) error {
	return enc.Encode(v)
}

// errResp builds an error response.
func errResp(format string, args ...any) Response {
	return Response{OK: false, Error: fmt.Sprintf(format, args...)}
}
