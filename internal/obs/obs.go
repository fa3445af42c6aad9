// Package obs is the engine's observability subsystem: a unified metrics
// registry (atomic counters, latency histograms, and a per-(src,dst) traffic
// matrix with snapshot-and-reset-per-job semantics), per-machine trace spans
// recorded by workers, copiers, and the job driver, and a flight recorder
// that retains the most recent spans and counter deltas per machine and dumps
// them when a job aborts.
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
)

// CounterID names one registry counter. Counters are per-machine and
// per-job: BeginJob/EndJob fold the running values into process-lifetime
// totals and reset the per-job cells, so a job's snapshot never conflates
// earlier runs (the bug the scattered comm counters had).
type CounterID uint8

// Registry counters.
const (
	// CtrBytesSent / CtrFramesSent count outbound wire traffic (via the
	// endpoint wrapper; headers included).
	CtrBytesSent CounterID = iota
	CtrFramesSent
	// CtrBytesRecv / CtrFramesRecv count inbound wire traffic.
	CtrBytesRecv
	CtrFramesRecv
	// CtrSendErrors / CtrRecvErrors count transport failures observed while
	// the registry was attached.
	CtrSendErrors
	CtrRecvErrors
	// CtrReadsServed counts remote-read records this machine answered.
	CtrReadsServed
	// CtrWritesApplied counts remote-write records this machine applied.
	CtrWritesApplied
	// CtrStaleWriteFrames counts write frames dropped because their epoch
	// stamp named a job that is no longer current — stragglers from an
	// aborted job that outlived post-abort recovery (TCP can hold frames in
	// the kernel past pool quiescence).
	CtrStaleWriteFrames
	// CtrStaleReadFrames counts read-request frames dropped unserved for the
	// same reason: their epoch stamp named a job that is no longer current.
	CtrStaleReadFrames
	// CtrRMIServed counts remote method invocations dispatched.
	CtrRMIServed
	// CtrFlushes counts request messages flushed by workers.
	CtrFlushes
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

	numCounters
)

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
	CtrFlushes:               "flushes",
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
// power-of-two nanosecond buckets; like counters they snapshot-and-reset at
// job boundaries.
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
	// HistRunLatency is the serving layer's end-to-end analysis latency
	// (queue wait + engine execution), recorded per completed run.
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

// drain atomically folds this histogram into lifetime and returns a snapshot
// of the drained per-job values.
func (h *histogram) drain(lifetime *histogram) HistSnapshot {
	var s HistSnapshot
	for i := range h.buckets {
		v := h.buckets[i].Swap(0)
		s.Buckets[i] = v
		if lifetime != nil {
			lifetime.buckets[i].Add(v)
		}
	}
	s.Count = h.count.Swap(0)
	s.SumNS = h.sum.Swap(0)
	if lifetime != nil {
		lifetime.count.Add(s.Count)
		lifetime.sum.Add(s.SumNS)
	}
	return s
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
// a traffic row toward every destination, and the trace ring (which doubles
// as the flight recorder).
type machineObs struct {
	counters [numCounters]atomic.Int64
	lifetime [numCounters]atomic.Int64
	hists    [numHists]histogram
	lifeHist [numHists]histogram

	// trafficBytes[d] / trafficFrames[d] accumulate wire traffic from this
	// machine toward machine d since the last job boundary.
	trafficBytes  []atomic.Int64
	trafficFrames []atomic.Int64

	// lifeTrafficBytes[d] is the lifetime twin of trafficBytes: job drains
	// fold into it so the cumulative matrix survives job boundaries (the
	// repartitioner consumes traffic measured over many jobs).
	lifeTrafficBytes []atomic.Int64

	trace traceRing
}

// regState is the attached-cluster state, swapped atomically so record paths
// never take a lock to find their machine slot.
type regState struct {
	machines []*machineObs
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

	mu       sync.Mutex // guards job lifecycle fields below
	jobID    uint64
	jobName  string
	jobStart time.Time

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
// per-job and lifetime state. One registry serves one cluster at a time;
// attaching again (e.g. when a benchmark reuses the registry across
// clusters) starts fresh.
func (r *Registry) Attach(p int) {
	if r == nil || p < 1 {
		return
	}
	st := &regState{machines: make([]*machineObs, p)}
	for m := range st.machines {
		mo := &machineObs{
			trafficBytes:     make([]atomic.Int64, p),
			trafficFrames:    make([]atomic.Int64, p),
			lifeTrafficBytes: make([]atomic.Int64, p),
		}
		mo.trace.init(r.traceDepth)
		st.machines[m] = mo
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

// Add bumps counter c on machine m by v. Nil-safe, allocation-free.
func (r *Registry) Add(m int, c CounterID, v int64) {
	if r == nil {
		return
	}
	if mo := r.machine(m); mo != nil && c < numCounters {
		mo.counters[c].Add(v)
	}
}

// Traffic records one outbound frame of n bytes from machine src to machine
// dst: the per-(src,dst) matrix cell plus the sender's byte/frame counters.
func (r *Registry) Traffic(src, dst, n int) {
	if r == nil {
		return
	}
	mo := r.machine(src)
	if mo == nil || dst < 0 || dst >= len(mo.trafficBytes) {
		return
	}
	mo.trafficBytes[dst].Add(int64(n))
	mo.trafficFrames[dst].Add(1)
	mo.counters[CtrBytesSent].Add(int64(n))
	mo.counters[CtrFramesSent].Add(1)
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

// BeginJob marks the start of job id: per-job counters, histograms, and the
// traffic matrix fold into lifetime totals and reset, so everything recorded
// from here on belongs to this job. Driver-side (one caller at a time).
func (r *Registry) BeginJob(id uint64, name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.jobID = id
	r.jobName = name
	r.jobStart = time.Now()
	r.mu.Unlock()
	r.drainToLifetime(nil)
}

// drainToLifetime folds every per-job cell into its lifetime twin and zeroes
// it. When rep is non-nil the drained values are also captured into it.
func (r *Registry) drainToLifetime(rep *JobReport) {
	st := r.state.Load()
	if st == nil {
		return
	}
	p := len(st.machines)
	if rep != nil {
		rep.Machines = p
		rep.Counters = make(map[string]int64, int(numCounters))
		rep.PerMachine = make([]map[string]int64, p)
		rep.TrafficBytes = make([][]int64, p)
		rep.TrafficFrames = make([][]int64, p)
		rep.Histograms = make(map[string]HistSnapshot, int(numHists))
	}
	var hists [numHists]HistSnapshot
	for m, mo := range st.machines {
		var perM map[string]int64
		if rep != nil {
			perM = make(map[string]int64, int(numCounters))
		}
		for c := CounterID(0); c < numCounters; c++ {
			v := mo.counters[c].Swap(0)
			mo.lifetime[c].Add(v)
			if rep != nil {
				rep.Counters[c.String()] += v
				if v != 0 {
					perM[c.String()] = v
				}
			}
		}
		for h := HistID(0); h < numHists; h++ {
			s := mo.hists[h].drain(&mo.lifeHist[h])
			merge(&hists[h], s)
		}
		rowB := make([]int64, len(mo.trafficBytes))
		rowF := make([]int64, len(mo.trafficFrames))
		for d := range mo.trafficBytes {
			rowB[d] = mo.trafficBytes[d].Swap(0)
			rowF[d] = mo.trafficFrames[d].Swap(0)
			mo.lifeTrafficBytes[d].Add(rowB[d])
		}
		if rep != nil {
			rep.PerMachine[m] = perM
			rep.TrafficBytes[m] = rowB
			rep.TrafficFrames[m] = rowF
		}
	}
	if rep != nil {
		for h := HistID(0); h < numHists; h++ {
			if hists[h].Count > 0 {
				rep.Histograms[h.String()] = hists[h]
			}
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

// EndJob closes job id: snapshots and resets every per-job cell, collects the
// job's spans from the trace rings, and publishes the assembled JobReport as
// LastReport. d is the driver-measured job duration.
func (r *Registry) EndJob(id uint64, d time.Duration) *JobReport {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	name := r.jobName
	r.jobID = 0
	r.mu.Unlock()
	rep := &JobReport{
		Job:      id,
		Name:     name,
		Duration: d,
	}
	r.drainToLifetime(rep)
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

// LifetimeCounters sums the process-lifetime counter totals across machines,
// including the still-running per-job values (so the totals never go
// backwards between job boundaries).
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
		for c := CounterID(0); c < numCounters; c++ {
			out[c.String()] += mo.lifetime[c].Load() + mo.counters[c].Load()
		}
	}
	return out
}

// LifetimeTraffic returns the per-(src,dst) wire-byte matrix accumulated
// over the registry's lifetime, including the still-running job — the
// cumulative form of JobReport.TrafficBytes, and the repartitioner's input.
func (r *Registry) LifetimeTraffic() [][]int64 {
	if r == nil {
		return nil
	}
	st := r.state.Load()
	if st == nil {
		return nil
	}
	out := make([][]int64, len(st.machines))
	for m, mo := range st.machines {
		row := make([]int64, len(mo.lifeTrafficBytes))
		for d := range row {
			row[d] = mo.lifeTrafficBytes[d].Load() + mo.trafficBytes[d].Load()
		}
		out[m] = row
	}
	return out
}

// MachineHistogram returns machine m's lifetime snapshot of histogram h
// (including the running job's samples). The cross-machine spread of e.g.
// HistBarrier is the load-imbalance telemetry the repartitioner reads.
func (r *Registry) MachineHistogram(m int, h HistID) HistSnapshot {
	var out HistSnapshot
	if r == nil || h >= numHists {
		return out
	}
	mo := r.machine(m)
	if mo == nil {
		return out
	}
	merge(&out, mo.lifeHist[h].snapshot())
	merge(&out, mo.hists[h].snapshot())
	return out
}

// LifetimeHistogram returns the lifetime snapshot of histogram h merged
// across machines (including the running job's samples).
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
		merge(&out, mo.lifeHist[h].snapshot())
		merge(&out, mo.hists[h].snapshot())
	}
	return out
}
