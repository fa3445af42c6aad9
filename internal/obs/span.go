package obs

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// SpanKind names what a trace span measures.
type SpanKind uint8

// Span kinds recorded by the engine.
const (
	// SpanJob covers one whole parallel region on one machine, from job
	// publish to the converged write drain.
	SpanJob SpanKind = iota
	// SpanBarrier is one collective barrier wait on the machine's main
	// goroutine (Arg: 0 = pre-task barrier, 1 = post-task barrier).
	SpanBarrier
	// SpanTaskPhase is the run-to-complete worker phase: first chunk handed
	// out to last worker response drained.
	SpanTaskPhase
	// SpanWriteDrain is what follows the drain's first allreduce: the wait
	// for the write records this machine is owed, their replay, and for a job
	// whose remote writes activate a frontier one more allreduce of the
	// frontier lanes (Arg: the collectives in the span, 0 or 1).
	SpanWriteDrain
	// SpanFlush is one worker request-buffer flush (Arg packs dst<<48|bytes).
	SpanFlush
	// SpanReadRTT is one remote-read round trip measured at the requesting
	// worker: request flush to response processed (Arg: responding machine).
	SpanReadRTT
	// SpanCopierServe is one inbound request served by a copier (Arg packs
	// src<<48|msgType).
	SpanCopierServe
	// SpanDirection is one push/pull direction decision by an adaptive
	// traversal (Arg packs direction<<62 | step<<48 | frontierSize, with the
	// frontier size saturating at 2^48-1).
	SpanDirection
	// SpanReadPrefetch is one worker's share of a mirrored job's prefetch:
	// first address buffered to every local worker's share answered (Arg:
	// words this worker fetched).
	SpanReadPrefetch
	// SpanWriteFlush is one worker shipping its write accumulators when it has
	// run dry: first slot walked to last frame sent (Arg: records shipped).
	SpanWriteFlush

	numSpanKinds
)

var spanKindNames = [numSpanKinds]string{
	SpanJob:          "job",
	SpanBarrier:      "barrier",
	SpanTaskPhase:    "task_phase",
	SpanWriteDrain:   "write_drain",
	SpanFlush:        "flush",
	SpanReadRTT:      "read_rtt",
	SpanCopierServe:  "copier_serve",
	SpanDirection:    "direction_decision",
	SpanReadPrefetch: "read_prefetch",
	SpanWriteFlush:   "write_flush",
}

// String implements fmt.Stringer.
func (k SpanKind) String() string {
	if int(k) < len(spanKindNames) {
		return spanKindNames[k]
	}
	return fmt.Sprintf("SpanKind(%d)", uint8(k))
}

// Worker-slot sentinels for Span.Worker.
const (
	// WorkerMain marks spans recorded by the machine's main job goroutine.
	WorkerMain = -1
	// WorkerCopier marks spans recorded by copier goroutines.
	WorkerCopier = -2
)

// Span is one recorded trace event. Spans carry no heap references so
// recording is allocation-free; timestamps are nanoseconds relative to the
// registry epoch, keeping per-machine timelines directly comparable.
type Span struct {
	Kind    SpanKind `json:"kind_id"`
	Machine int16    `json:"machine"`
	// Worker is the recording worker slot, or WorkerMain / WorkerCopier.
	Worker int16 `json:"worker"`
	// Job is the job sequence number the span belongs to.
	Job uint64 `json:"job"`
	// Seq is a per-machine monotone sequence assigned at record time; within
	// one machine it orders spans by completion.
	Seq uint64 `json:"seq"`
	// StartNS is the span start, nanoseconds since the registry epoch.
	StartNS int64 `json:"start_ns"`
	// DurNS is the span duration in nanoseconds.
	DurNS int64 `json:"dur_ns"`
	// Arg is kind-specific payload (see the SpanKind docs).
	Arg uint64 `json:"arg,omitempty"`
}

// End returns the span end, nanoseconds since the registry epoch.
func (s Span) End() int64 { return s.StartNS + s.DurNS }

// String formats one span for logs and the /debug/trace text view.
func (s Span) String() string {
	who := fmt.Sprintf("w%d", s.Worker)
	switch s.Worker {
	case WorkerMain:
		who = "main"
	case WorkerCopier:
		who = "copier"
	}
	return fmt.Sprintf("m%d/%s job=%d %s start=%.3fms dur=%.3fms arg=%#x",
		s.Machine, who, s.Job, s.Kind,
		float64(s.StartNS)/1e6, float64(s.DurNS)/1e6, s.Arg)
}

// traceRing is one machine's span buffer: a mutex-guarded power-of-two ring
// holding the most recent spans. It is both the per-job trace store (EndJob
// collects the job's spans) and the flight recorder (RecordAbort snapshots
// the tail after a failure).
type traceRing struct {
	mu   sync.Mutex
	buf  []Span
	next uint64 // total spans ever recorded; buf index = seq & mask
	mask uint64
}

func (t *traceRing) init(capacity int) {
	n := 16
	for n < capacity {
		n <<= 1
	}
	t.buf = make([]Span, n)
	t.mask = uint64(n - 1)
}

func (t *traceRing) record(s Span) {
	t.mu.Lock()
	s.Seq = t.next
	t.buf[t.next&t.mask] = s
	t.next++
	t.mu.Unlock()
}

// tail returns up to max of the most recent spans, oldest first.
func (t *traceRing) tail(max int) []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.next
	if n > uint64(len(t.buf)) {
		n = uint64(len(t.buf))
	}
	if max > 0 && uint64(max) < n {
		n = uint64(max)
	}
	out := make([]Span, 0, n)
	for i := t.next - n; i < t.next; i++ {
		out = append(out, t.buf[i&t.mask])
	}
	return out
}

// forJob returns the retained spans belonging to job id, oldest first.
func (t *traceRing) forJob(id uint64) []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.next
	if n > uint64(len(t.buf)) {
		n = uint64(len(t.buf))
	}
	var out []Span
	for i := t.next - n; i < t.next; i++ {
		if s := t.buf[i&t.mask]; s.Job == id {
			out = append(out, s)
		}
	}
	return out
}

// now returns nanoseconds since the registry epoch.
func (r *Registry) now() int64 { return int64(time.Since(r.epoch)) }

// Clock returns the current time on the registry's span timeline
// (nanoseconds since its epoch). Record sites capture a start clock, do the
// work, and hand both to Span.
func (r *Registry) Clock() int64 {
	if r == nil {
		return 0
	}
	return r.now()
}

// Span records one completed span on machine m. startNS is a Clock() value
// captured when the operation began; the duration is measured against the
// registry's clock at record time. Nil-safe and allocation-free (the ring
// stores spans by value).
func (r *Registry) Span(m, worker int, k SpanKind, job uint64, startNS int64, arg uint64) {
	if r == nil {
		return
	}
	mo := r.machine(m)
	if mo == nil || k >= numSpanKinds {
		return
	}
	mo.trace.record(Span{
		Kind:    k,
		Machine: int16(m),
		Worker:  int16(worker),
		Job:     job,
		StartNS: startNS,
		DurNS:   r.now() - startNS,
		Arg:     arg,
	})
}

// spansForJob gathers job id's retained spans across machines, ordered by
// start time (ties by machine then seq).
func (r *Registry) spansForJob(id uint64) []Span {
	st := r.state.Load()
	if st == nil {
		return nil
	}
	var out []Span
	for _, mo := range st.machines {
		out = append(out, mo.trace.forJob(id)...)
	}
	sortSpans(out)
	return out
}

// RecentSpans returns up to max of the most recent spans per machine,
// merged and ordered by start time. max <= 0 returns everything retained.
func (r *Registry) RecentSpans(max int) []Span {
	if r == nil {
		return nil
	}
	st := r.state.Load()
	if st == nil {
		return nil
	}
	var out []Span
	for _, mo := range st.machines {
		out = append(out, mo.trace.tail(max)...)
	}
	sortSpans(out)
	return out
}

func sortSpans(spans []Span) {
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.StartNS != b.StartNS {
			return a.StartNS < b.StartNS
		}
		if a.Machine != b.Machine {
			return a.Machine < b.Machine
		}
		return a.Seq < b.Seq
	})
}
