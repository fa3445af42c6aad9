// Package obs is the engine's observability subsystem: a unified metrics
// registry (atomic counters, latency histograms, and a per-(src,dst) traffic
// matrix read from the transport's own ledger), per-machine trace spans
// recorded by workers, copiers, and the job driver, and a flight recorder
// that retains the most recent spans per machine and dumps them with the
// aborted job's counter deltas. Every cell is cumulative: a job's report is
// the difference between the readings at its end and at its start.
//
// The paper's evaluation (Tables 3-4, Figure 8) hinges on knowing exactly
// where time and bytes go — per-superstep compute vs. communication,
// per-(src,dst) traffic, replica upkeep. This package makes that data a
// first-class engine output instead of ad-hoc counters.
//
// Everything is nil-safe: a nil *Registry turns every record operation into
// an immediate return, so instrumentation sites can call unconditionally and
// the disabled engine pays one predictable-branch nil check and zero
// allocations per site (verified by TestNilRegistryZeroAlloc).
package obs

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/comm"
)

// CounterID names one registry counter. Counters are per-machine and
// cumulative: BeginJob reads them all, and the job's report holds what they
// gained until EndJob (or RecordAbort), so it never conflates earlier runs or
// what happened between jobs.
type CounterID uint8

// Registry counters.
const (
	// CtrReadsServed counts remote-read records this machine answered.
	CtrReadsServed CounterID = iota
	// CtrWritesApplied counts remote-write records this machine applied.
	CtrWritesApplied
	// CtrStaleWriteFrames counts write frames dropped because their section
	// named a job that is no longer current — stragglers from an aborted job
	// that outlived post-abort recovery (TCP can hold frames in the kernel
	// past pool quiescence).
	CtrStaleWriteFrames
	// CtrStaleReadFrames counts read and RMI request frames dropped unserved
	// for the same reason.
	CtrStaleReadFrames
	// CtrRMIServed counts remote method invocations dispatched.
	CtrRMIServed
	// CtrWireRawBytes / CtrWireBytes both count the payload bytes workers
	// flushed onto a serialising fabric. The flush codec they once compared
	// is gone; they stay, equal, for benchmark/'s codec.wire_ratio (see
	// core's worker.sendFlushed) and go with that metric.
	CtrWireRawBytes
	CtrWireBytes
	// CtrFrontierNodes / CtrFrontierEdges accumulate the global frontier size
	// (nodes, out-edges) observed at each direction decision — the data the
	// push/pull heuristic acted on.
	CtrFrontierNodes
	CtrFrontierEdges
	// The write backlog (core's spill.go): inbound write frames a copier
	// stashed for the drain to apply — every one a job accepts — their record
	// bytes, and how many of those frames overflowed the in-memory budget to
	// the temp file (Config.SpillWrites only).
	CtrSpilledWriteFrames
	CtrSpilledWriteBytes
	CtrSpillFileFrames
	// Compressed-store decode cache (.csr3 files): chunk claims that found their
	// blocks already decoded vs. ones that paid a varint decode, the raw ref
	// bytes produced by those decodes, and arena bytes evicted to stay under
	// the cache budget.
	CtrDecodeHits
	CtrDecodeMisses
	CtrDecodedBytes
	CtrDecodeEvictedBytes
	// Out-of-core residency window: file bytes advised into the window by
	// chunk claims and bytes advised back out (DONTNEED) to hold the resident
	// budget.
	CtrResidencyTouchedBytes
	CtrResidencyEvictedBytes
	// CtrMirrorWords counts the words mirrored jobs prefetched: per job, the
	// requesting machine's remote-set size times its read props.
	CtrMirrorWords
	// CtrAccumulatedWrites counts the remote writes workers folded into their
	// accumulators instead of buffering a record each; what they then shipped
	// is the write_flush spans' args (and part of writes_applied).
	CtrAccumulatedWrites

	// The transport counters are not registry cells: they are read from the
	// machine's comm.Metrics, the engine's one traffic ledger, and Add
	// ignores them. CtrBytesSent / CtrFramesSent are the sums of its traffic
	// row (headers included); CtrSendErrors counts the sends the fabric
	// refused or failed to write, CtrRecvErrors rejected inbound frames.
	CtrBytesSent
	CtrFramesSent
	CtrBytesRecv
	CtrFramesRecv
	CtrSendErrors
	CtrRecvErrors

	numCounters
)

// numCells is the number of counters the registry holds itself.
const numCells = CtrBytesSent

var counterNames = [numCounters]string{
	CtrBytesSent:             "bytes_sent",
	CtrFramesSent:            "frames_sent",
	CtrBytesRecv:             "bytes_recv",
	CtrFramesRecv:            "frames_recv",
	CtrSendErrors:            "send_errors",
	CtrRecvErrors:            "recv_errors",
	CtrReadsServed:           "reads_served",
	CtrWritesApplied:         "writes_applied",
	CtrStaleWriteFrames:      "stale_write_frames",
	CtrStaleReadFrames:       "stale_read_frames",
	CtrRMIServed:             "rmi_served",
	CtrWireRawBytes:          "wire_raw_bytes",
	CtrWireBytes:             "wire_bytes",
	CtrFrontierNodes:         "frontier_nodes",
	CtrFrontierEdges:         "frontier_edges",
	CtrSpilledWriteFrames:    "spilled_write_frames",
	CtrSpilledWriteBytes:     "spilled_write_bytes",
	CtrSpillFileFrames:       "spill_file_frames",
	CtrDecodeHits:            "decode_hits",
	CtrDecodeMisses:          "decode_misses",
	CtrDecodedBytes:          "decoded_bytes",
	CtrDecodeEvictedBytes:    "decode_evicted_bytes",
	CtrResidencyTouchedBytes: "residency_touched_bytes",
	CtrResidencyEvictedBytes: "residency_evicted_bytes",
	CtrMirrorWords:           "mirror_words",
	CtrAccumulatedWrites:     "accumulated_writes",
}

// String implements fmt.Stringer.
func (c CounterID) String() string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return fmt.Sprintf("CounterID(%d)", uint8(c))
}

// HistID names one latency histogram. Histograms are per-machine with
// power-of-two nanosecond buckets; like counters they are cumulative, and a
// job's report holds the buckets they gained during the job.
type HistID uint8

// Registry histograms.
const (
	// HistReadRTT is the remote-read round trip: request flush to response
	// processing on the requesting worker.
	HistReadRTT HistID = iota
	// HistBarrier is the time a machine's main goroutine waits in a barrier.
	HistBarrier
	// HistFlush is the worker-side cost of shipping one request message.
	HistFlush
	// HistServe is the copier-side cost of serving one inbound request.
	HistServe
	// HistQueueWait is the serving layer's admission latency: a run request
	// enters the scheduler queue to the moment it is granted an engine.
	// Recorded by internal/server (machine slot 0 of a 1-slot registry).
	HistQueueWait
	// HistRunLatency is the serving layer's engine time of one analysis —
	// from the grant of an engine to the run's end, queue wait excluded (that
	// is HistQueueWait) — recorded per successful run.
	HistRunLatency

	numHists
)

var histNames = [numHists]string{
	HistReadRTT:    "read_rtt_ns",
	HistBarrier:    "barrier_wait_ns",
	HistFlush:      "flush_send_ns",
	HistServe:      "copier_serve_ns",
	HistQueueWait:  "admit_queue_wait_ns",
	HistRunLatency: "run_latency_ns",
}

// String implements fmt.Stringer.
func (h HistID) String() string {
	if int(h) < len(histNames) {
		return histNames[h]
	}
	return fmt.Sprintf("HistID(%d)", uint8(h))
}

// histBuckets is the number of power-of-two buckets; bucket i holds samples
// with bits.Len64(ns) == i, so the top bucket covers everything >= ~4.3 s.
const histBuckets = 33

// histogram is a fixed-bucket atomic histogram.
type histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

func (h *histogram) observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	i := bits.Len64(uint64(ns))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
}

func (h *histogram) snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.SumNS = h.sum.Load()
	return s
}

// HistSnapshot is a point-in-time copy of one histogram.
type HistSnapshot struct {
	Count   int64              `json:"count"`
	SumNS   int64              `json:"sum_ns"`
	Buckets [histBuckets]int64 `json:"-"`
}

// Quantile returns an upper bound for the q-quantile (q in [0,1]) from the
// power-of-two buckets, or 0 with no samples.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	rank := int64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var seen int64
	for i, b := range s.Buckets {
		seen += b
		if seen > rank {
			// Bucket i holds values with bits.Len64 == i: [2^(i-1), 2^i).
			return time.Duration(int64(1) << uint(i))
		}
	}
	return time.Duration(s.SumNS)
}

// Mean returns the average sample, or 0 with no samples.
func (s HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNS / s.Count)
}

// machineObs is one machine's slice of the registry: counters, histograms,
// the machine's transport ledger, and the trace ring (which doubles as the
// flight recorder).
type machineObs struct {
	counters [numCells]atomic.Int64
	hists    [numHists]histogram
	// transport is the machine's endpoint ledger, the source of the transport
	// counters and of the machine's traffic row; nil reads as zero.
	transport *comm.Metrics

	trace traceRing
}

// reading is one machine's cumulative state at an instant: every counter,
// every histogram, and its traffic row toward every destination. A job's
// report is the difference of two readings.
type reading struct {
	counters      [numCounters]int64
	hists         [numHists]HistSnapshot
	bytes, frames []int64
}

func newReading(p int) reading {
	return reading{bytes: make([]int64, p), frames: make([]int64, p)}
}

// read fills rd. The sent totals are the sums of the row read here, so a
// reading's matrix and its bytes_sent/frames_sent agree by construction.
func (mo *machineObs) read(rd *reading) {
	for c := range mo.counters {
		rd.counters[c] = mo.counters[c].Load()
	}
	for h := range mo.hists {
		rd.hists[h] = mo.hists[h].snapshot()
	}
	t := mo.transport
	if t == nil {
		return
	}
	var bytes, frames int64
	for d := range rd.bytes {
		rd.bytes[d], rd.frames[d] = t.BytesSentTo(d), t.FramesSentTo(d)
		bytes += rd.bytes[d]
		frames += rd.frames[d]
	}
	rd.counters[CtrBytesSent], rd.counters[CtrFramesSent] = bytes, frames
	rd.counters[CtrBytesRecv], rd.counters[CtrFramesRecv] = t.BytesRecv(), t.FramesRecv()
	rd.counters[CtrSendErrors], rd.counters[CtrRecvErrors] = t.SendErrors(), t.RecvErrors()
}

// regState is the attached-cluster state, swapped atomically so record paths
// never take a lock to find their machine slot. base[m] is machine m's
// reading at the current job's BeginJob; only the driver-side lifecycle
// methods touch it, under Registry.mu.
type regState struct {
	machines []*machineObs
	base     []reading
}

// Registry is the unified observability hub for one cluster. Create with
// NewRegistry, assign to core.Config.Obs before NewCluster (which calls
// Attach), and read per-job results with LastReport / LastAbort.
//
// All record methods are safe for concurrent use and valid on a nil
// receiver (no-ops). The job lifecycle methods (BeginJob, EndJob,
// RecordAbort) are driver-side and serialized by the engine.
type Registry struct {
	state atomic.Pointer[regState]
	epoch time.Time

	// traceDepth is the per-machine span ring capacity installed by the next
	// Attach; defaults to defaultTraceDepth.
	traceDepth int

	mu      sync.Mutex // guards jobName and the attached state's base readings
	jobName string

	jobs      atomic.Int64
	aborts    atomic.Int64
	last      atomic.Pointer[JobReport]
	lastAbort atomic.Pointer[AbortDump]

	// recent keeps the most recent job reports (up to reportHistory) so a
	// multi-superstep algorithm run can be read back superstep by superstep.
	recentMu sync.Mutex
	recent   []*JobReport
}

// reportHistory caps Registry.RecentReports.
const reportHistory = 64

const defaultTraceDepth = 4096

// NewRegistry creates an empty registry. It becomes usable once a cluster
// attaches to it (core.NewCluster calls Attach with its machine count).
func NewRegistry() *Registry {
	return &Registry{epoch: time.Now(), traceDepth: defaultTraceDepth}
}

// SetTraceDepth sets the per-machine span ring capacity (the flight
// recorder's retention window) used by the next Attach. Rounded up to a
// power of two; values < 16 are clamped.
func (r *Registry) SetTraceDepth(n int) {
	if r == nil {
		return
	}
	if n < 16 {
		n = 16
	}
	r.traceDepth = n
}

// Attach sizes the registry for a cluster of p machines, resetting all
// state. transport[m], when given, is machine m's endpoint ledger: the
// transport counters and machine m's traffic row are read from it, and read
// as zero without it. One registry serves one cluster at a time; attaching
// again (e.g. when a benchmark reuses the registry across clusters) starts
// fresh.
func (r *Registry) Attach(p int, transport ...*comm.Metrics) {
	if r == nil || p < 1 {
		return
	}
	st := &regState{machines: make([]*machineObs, p), base: make([]reading, p)}
	for m := range st.machines {
		mo := &machineObs{}
		if m < len(transport) {
			mo.transport = transport[m]
		}
		mo.trace.init(r.traceDepth)
		st.machines[m] = mo
		st.base[m] = newReading(p)
	}
	r.state.Store(st)
}

// Attached reports whether a cluster has attached (sized) this registry.
func (r *Registry) Attached() bool {
	return r != nil && r.state.Load() != nil
}

// Machines returns the attached cluster size, or 0.
func (r *Registry) Machines() int {
	if r == nil {
		return 0
	}
	if st := r.state.Load(); st != nil {
		return len(st.machines)
	}
	return 0
}

func (r *Registry) machine(m int) *machineObs {
	st := r.state.Load()
	if st == nil || m < 0 || m >= len(st.machines) {
		return nil
	}
	return st.machines[m]
}

// Add bumps counter c on machine m by v; the transport counters are not the
// registry's to bump, and Add ignores them. Nil-safe, allocation-free.
func (r *Registry) Add(m int, c CounterID, v int64) {
	if r == nil {
		return
	}
	if mo := r.machine(m); mo != nil && c < numCells {
		mo.counters[c].Add(v)
	}
}

// Observe records one latency sample into histogram h on machine m.
func (r *Registry) Observe(m int, h HistID, d time.Duration) {
	if r == nil {
		return
	}
	if mo := r.machine(m); mo != nil && h < numHists {
		mo.hists[h].observe(int64(d))
	}
}

// BeginJob marks the start of job id: every machine's counters, histograms
// and traffic row are read as the base its report subtracts, so everything
// recorded from here on belongs to this job. Driver-side (one caller at a
// time).
func (r *Registry) BeginJob(id uint64, name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.jobName = name
	if st := r.state.Load(); st != nil {
		for m, mo := range st.machines {
			mo.read(&st.base[m])
		}
	}
}

// sinceBase fills rep's counters, histograms and traffic matrix with what
// every machine recorded since BeginJob's base reading. Callers hold
// Registry.mu.
func (st *regState) sinceBase(rep *JobReport) {
	p := len(st.machines)
	rep.Machines = p
	rep.Counters = make(map[string]int64, int(numCounters))
	rep.PerMachine = make([]map[string]int64, p)
	rep.TrafficBytes = make([][]int64, p)
	rep.TrafficFrames = make([][]int64, p)
	rep.Histograms = make(map[string]HistSnapshot, int(numHists))
	var hists [numHists]HistSnapshot
	for m, mo := range st.machines {
		now, base := newReading(p), &st.base[m]
		mo.read(&now)
		perM := make(map[string]int64, int(numCounters))
		for c := CounterID(0); c < numCounters; c++ {
			v := now.counters[c] - base.counters[c]
			rep.Counters[c.String()] += v
			if v != 0 {
				perM[c.String()] = v
			}
		}
		for h := range hists {
			merge(&hists[h], now.hists[h].sub(base.hists[h]))
		}
		for d := range now.bytes {
			now.bytes[d] -= base.bytes[d]
			now.frames[d] -= base.frames[d]
		}
		rep.PerMachine[m] = perM
		rep.TrafficBytes[m], rep.TrafficFrames[m] = now.bytes, now.frames
	}
	for h := HistID(0); h < numHists; h++ {
		if hists[h].Count > 0 {
			rep.Histograms[h.String()] = hists[h]
		}
	}
}

func merge(dst *HistSnapshot, src HistSnapshot) {
	for i := range dst.Buckets {
		dst.Buckets[i] += src.Buckets[i]
	}
	dst.Count += src.Count
	dst.SumNS += src.SumNS
}

// sub returns s - o: the samples recorded between reading o and reading s.
func (s HistSnapshot) sub(o HistSnapshot) HistSnapshot {
	for i := range s.Buckets {
		s.Buckets[i] -= o.Buckets[i]
	}
	s.Count -= o.Count
	s.SumNS -= o.SumNS
	return s
}

// EndJob closes job id: its report holds what every counter, histogram and
// traffic cell gained since BeginJob, plus the job's spans from the trace
// rings, and is published as LastReport. d is the driver-measured job
// duration.
func (r *Registry) EndJob(id uint64, d time.Duration) *JobReport {
	if r == nil {
		return nil
	}
	rep := &JobReport{Job: id, Duration: d}
	r.mu.Lock()
	rep.Name = r.jobName
	if st := r.state.Load(); st != nil {
		st.sinceBase(rep)
	}
	r.mu.Unlock()
	rep.Spans = r.spansForJob(id)
	r.jobs.Add(1)
	r.last.Store(rep)
	r.recentMu.Lock()
	r.recent = append(r.recent, rep)
	if len(r.recent) > reportHistory {
		r.recent = r.recent[len(r.recent)-reportHistory:]
	}
	r.recentMu.Unlock()
	return rep
}

// RecentReports returns the most recent completed-job reports, oldest
// first (up to an internal cap).
func (r *Registry) RecentReports() []*JobReport {
	if r == nil {
		return nil
	}
	r.recentMu.Lock()
	defer r.recentMu.Unlock()
	out := make([]*JobReport, len(r.recent))
	copy(out, r.recent)
	return out
}

// JobsObserved returns how many jobs completed under this registry.
func (r *Registry) JobsObserved() int64 {
	if r == nil {
		return 0
	}
	return r.jobs.Load()
}

// AbortsObserved returns how many job aborts the flight recorder captured.
func (r *Registry) AbortsObserved() int64 {
	if r == nil {
		return 0
	}
	return r.aborts.Load()
}

// LastReport returns the report of the most recently completed job, or nil.
func (r *Registry) LastReport() *JobReport {
	if r == nil {
		return nil
	}
	return r.last.Load()
}

// LifetimeCounters sums every counter's current value across machines: the
// registry's since Attach, the transport's since its endpoints opened —
// between jobs included.
func (r *Registry) LifetimeCounters() map[string]int64 {
	if r == nil {
		return nil
	}
	st := r.state.Load()
	if st == nil {
		return nil
	}
	out := make(map[string]int64, int(numCounters))
	for _, mo := range st.machines {
		rd := newReading(len(st.machines))
		mo.read(&rd)
		for c := CounterID(0); c < numCounters; c++ {
			out[c.String()] += rd.counters[c]
		}
	}
	return out
}

// LifetimeHistogram returns the cumulative snapshot of histogram h merged
// across machines.
func (r *Registry) LifetimeHistogram(h HistID) HistSnapshot {
	var out HistSnapshot
	if r == nil || h >= numHists {
		return out
	}
	st := r.state.Load()
	if st == nil {
		return out
	}
	for _, mo := range st.machines {
		merge(&out, mo.hists[h].snapshot())
	}
	return out
}
