package server

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// errShutdown fails every ticket queued when the server closes, and every one
// enqueued after.
var errShutdown = errors.New("server shutting down")

// engine is one pooled cluster of an instance: analyses lease an engine for
// their whole run, so one engine executes one job stream at a time while its
// siblings serve other runs on the same shared graph.
type engine struct {
	cluster *core.Cluster
	reg     *obs.Registry // nil when observability is disabled
}

// admitResult is what a queued ticket eventually receives: an engine lease,
// or a terminal admission error (deadline, dropped graph, cancel, shutdown).
type admitResult struct {
	eng *engine
	err error
}

// ticket is one run request, from enqueue to release.
type ticket struct {
	seq           uint64
	tenant        string
	tag           string
	priority      int
	timeoutMillis int64
	enqueued      time.Time
	inst          *instance
	// memMB is the run's declared (Request.MaxResidentMB) or column-charged
	// (Server.memCharge) resident need, charged against the scheduler's memory
	// budget for the duration of the lease. Zero when no budget is configured.
	memMB int64
	// deferred marks that the memory gate has already skipped this ticket
	// once, so the budget-deferral stat counts runs, not dispatch sweeps.
	deferred bool
	// timer is the run's one deadline, armed at enqueue: it fails the ticket
	// while queued and cancels its engine once leased, and expired records
	// that it fired on a lease. Both are guarded by scheduler.mu.
	timer   *time.Timer
	expired bool
	// result receives exactly one admitResult; buffered so the scheduler
	// never blocks on a waiter.
	result chan admitResult
}

// stop disarms t's deadline.
func (t *ticket) stop() {
	if t.timer != nil {
		t.timer.Stop()
	}
}

// scheduler is the ledger of every run from enqueue to release: the queue,
// the leases, each instance's idle engines, the per-tenant counts and the
// runs' deadlines, all under mu. It charges a global concurrency slot only
// when a run can actually execute — the target instance has an idle engine
// and the tenant is under quota — so a request blocked behind a busy graph
// never starves requests for other graphs.
type scheduler struct {
	maxConcurrent int
	quota         int           // per-tenant running cap; <=0 means no cap
	aging         time.Duration // queued priority +1 per aging waited; <=0 disables
	memBudgetMB   int64         // cap on Σ memMB of running analyses; <=0 disables

	mu      sync.Mutex
	seq     uint64
	shut    bool // shutdown has begun: nothing more is admitted
	queue   []*ticket
	running map[*ticket]*engine     // the leases
	tenants map[string]*TenantStats // every tenant that has enqueued a run
	// memInUseMB is the declared or charged resident total of running
	// analyses; budgetDeferrals counts tickets the memory gate held back at
	// least once.
	memInUseMB       int64
	budgetDeferrals  int64
	deadlineExceeded int64
	canceled         int64
	// durs is a sliding window of recent run durations (milliseconds)
	// backing the stats percentiles.
	durs    []float64
	durNext int
}

// runDurWindow is the sliding-window size for run-duration percentiles.
const runDurWindow = 512

func newScheduler(maxConcurrent, quota int, aging time.Duration, memBudgetMB int64) *scheduler {
	return &scheduler{
		maxConcurrent: maxConcurrent,
		quota:         quota,
		aging:         aging,
		memBudgetMB:   memBudgetMB,
		running:       make(map[*ticket]*engine),
		tenants:       make(map[string]*TenantStats),
	}
}

// only matches t alone.
func only(t *ticket) func(*ticket) bool {
	return func(q *ticket) bool { return q == t }
}

// enqueue registers t, arms its deadline and tries to admit. Returns t's
// admission sequence number (the server-side job id).
func (s *scheduler) enqueue(t *ticket) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	t.seq, t.enqueued = s.seq, time.Now()
	ts := s.tenants[t.tenant]
	if ts == nil {
		ts = &TenantStats{}
		s.tenants[t.tenant] = ts
	}
	ts.Queued++
	s.queue = append(s.queue, t)
	switch {
	case s.shut:
		s.reject(only(t), errShutdown)
	case t.inst.closed:
		s.reject(only(t), fmt.Errorf("graph %q dropped while queued", t.inst.name))
	default:
		if t.timeoutMillis > 0 {
			t.timer = time.AfterFunc(time.Duration(t.timeoutMillis)*time.Millisecond, func() { s.expire(t) })
		}
		s.dispatch()
	}
	return t.seq
}

// reject takes every queued ticket match picks out of the queue and fails it
// with err, a failed run of its tenant. Returns how many it took. Caller holds
// s.mu.
func (s *scheduler) reject(match func(*ticket) bool, err error) int {
	kept, n := s.queue[:0], 0
	for _, t := range s.queue {
		if !match(t) {
			kept = append(kept, t)
			continue
		}
		t.stop()
		ts := s.tenants[t.tenant]
		ts.Queued--
		ts.Failed++
		t.result <- admitResult{err: err}
		n++
	}
	s.queue = kept
	return n
}

// expire is t's deadline: a queued t fails at once; a leased one has its
// engine canceled, and its release counts the deadline. Every cancel the
// scheduler makes is made under s.mu, and release clears the engine's latch
// under s.mu before any other lease can take it, so a cancel never lands on a
// later lease. Cancel does not wait for the job: it trips the latch and posts
// abort frames from each machine's own abort pool.
func (s *scheduler) expire(t *ticket) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.reject(only(t), fmt.Errorf("deadline exceeded after %dms in queue", t.timeoutMillis)) > 0 {
		s.deadlineExceeded++
		return
	}
	if eng := s.running[t]; eng != nil {
		t.expired = true
		eng.cluster.Cancel(fmt.Errorf("deadline exceeded after %dms", t.timeoutMillis))
	}
}

// effPriority is t's queue priority with aging applied: one level per
// s.aging waited, so old low-priority work eventually outbids fresh
// high-priority work and nothing starves.
func (s *scheduler) effPriority(t *ticket, now time.Time) int64 {
	p := int64(t.priority)
	if s.aging > 0 {
		p += int64(now.Sub(t.enqueued) / s.aging)
	}
	return p
}

// dispatch admits queued tickets while capacity lasts. Called whenever
// capacity may have appeared: enqueue and release. Admission order is aged
// priority, FIFO within a level; a ticket whose instance has no idle engine
// or whose tenant is at quota is skipped, not waited on — no head-of-line
// blocking. Caller holds s.mu.
func (s *scheduler) dispatch() {
	now := time.Now()
	if len(s.queue) > 1 {
		sort.SliceStable(s.queue, func(i, j int) bool {
			pi, pj := s.effPriority(s.queue[i], now), s.effPriority(s.queue[j], now)
			if pi != pj {
				return pi > pj
			}
			return s.queue[i].seq < s.queue[j].seq
		})
	}
	for len(s.running) < s.maxConcurrent {
		i := s.next()
		if i < 0 {
			return
		}
		t := s.queue[i]
		s.queue = append(s.queue[:i], s.queue[i+1:]...)
		idle := t.inst.idle
		eng := idle[len(idle)-1]
		t.inst.idle = idle[:len(idle)-1]
		s.running[t] = eng
		ts := s.tenants[t.tenant]
		ts.Queued--
		ts.Running++
		s.memInUseMB += t.memMB
		t.result <- admitResult{eng: eng}
	}
}

// next returns the index of the first queued ticket that can run now, or -1.
// Caller holds s.mu.
func (s *scheduler) next() int {
	for i, t := range s.queue {
		if s.quota > 0 && s.tenants[t.tenant].Running >= s.quota {
			continue
		}
		// Memory gate: admitting t must keep the running set's declared
		// resident total under the budget. An idle server always admits —
		// a run bigger than the whole budget would otherwise queue
		// forever; alone it can still only be killed by the OS, not
		// starved by us. Deferral is counted once per ticket.
		if s.memBudgetMB > 0 && t.memMB > 0 && len(s.running) > 0 &&
			s.memInUseMB+t.memMB > s.memBudgetMB {
			if !t.deferred {
				t.deferred = true
				s.budgetDeferrals++
			}
			continue
		}
		if len(t.inst.idle) > 0 { // a busy instance is skipped: later tickets may target idle graphs
			return i
		}
	}
	return -1
}

// release ends t's lease with its run's outcome — err, or millis of a served
// run for the percentile window: the engine's cancel latch is cleared and it
// goes back to its instance's idle list, the tenant's counts move, and the
// freed capacity is re-dispatched.
func (s *scheduler) release(t *ticket, millis float64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	eng := s.running[t]
	delete(s.running, t)
	t.stop()
	s.memInUseMB -= t.memMB
	ts := s.tenants[t.tenant]
	ts.Running--
	switch {
	case err == nil:
		ts.Served++
		if len(s.durs) < runDurWindow {
			s.durs = append(s.durs, millis)
		} else {
			s.durs[s.durNext%runDurWindow] = millis
		}
		s.durNext++
	case t.expired:
		ts.Failed++
		s.deadlineExceeded++
	case errors.Is(err, core.ErrJobCanceled):
		ts.Failed++
		s.canceled++
	default:
		ts.Failed++
	}
	eng.cluster.Uncancel()
	t.inst.idle = append(t.inst.idle, eng)
	s.closeIfDrained(t.inst)
	s.dispatch()
}

// drop closes inst to admission: its queued tickets fail, and the returned
// channel closes when the release of its last lease does — at once when none
// is held. The wait is bounded: a closed instance admits nothing, and
// shutdown cancels every lease.
func (s *scheduler) drop(inst *instance) <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	inst.closed = true
	s.reject(func(t *ticket) bool { return t.inst == inst }, fmt.Errorf("graph %q dropped while queued", inst.name))
	s.closeIfDrained(inst)
	return inst.drained
}

// closeIfDrained closes a dropped instance's drained channel once every
// engine is idle. Caller holds s.mu.
func (s *scheduler) closeIfDrained(inst *instance) {
	if inst.closed && len(inst.idle) == len(inst.engines) {
		close(inst.drained)
	}
}

// cancelByTag kills runs labeled tag: queued ones fail with a cancel error,
// running ones have their engine canceled through the abort latch (the run's
// own handler observes the abort and releases). tenant, when non-empty,
// restricts the match. Returns how many runs matched.
func (s *scheduler) cancelByTag(tag, tenant string, cause error) int {
	match := func(t *ticket) bool {
		return t.tag == tag && tag != "" && (tenant == "" || t.tenant == tenant)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.reject(match, fmt.Errorf("run canceled: %w", cause))
	s.canceled += int64(n)
	for t, eng := range s.running {
		if match(t) {
			eng.cluster.Cancel(cause)
			n++
		}
	}
	return n
}

// shutdown fails every queued ticket, and every later one, with errShutdown
// and cancels every lease, so a queued run never wedges Close and a running
// one comes back promptly instead of after many supersteps.
func (s *scheduler) shutdown() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.shut = true
	s.reject(func(*ticket) bool { return true }, errShutdown)
	for _, eng := range s.running {
		eng.cluster.Cancel(errShutdown)
	}
}

// stats reads the ledger's fields of ServerStats in one snapshot: RunsServed
// and FailedRuns are the sums of the tenants' Served and Failed, and
// ActiveAnalyses is the number of leases held.
func (s *scheduler) stats() ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := ServerStats{
		ActiveAnalyses:       len(s.running),
		QueuedAnalyses:       len(s.queue),
		BudgetDeferrals:      s.budgetDeferrals,
		MemInUseMB:           s.memInUseMB,
		DeadlineExceededRuns: s.deadlineExceeded,
		CanceledRuns:         s.canceled,
		Tenants:              make(map[string]*TenantStats, len(s.tenants)),
	}
	for name, ts := range s.tenants {
		c := *ts
		st.Tenants[name] = &c
		st.RunsServed += ts.Served
		st.FailedRuns += ts.Failed
	}
	if len(s.durs) > 0 {
		window := append([]float64(nil), s.durs...)
		sort.Float64s(window)
		st.RunP50Millis = nearestRank(window, 0.50)
		st.RunP90Millis = nearestRank(window, 0.90)
		st.RunP99Millis = nearestRank(window, 0.99)
	}
	return st
}

// nearestRank returns the q-quantile of sorted using the nearest-rank
// method: the smallest element such that at least q*n elements are <= it,
// i.e. index ceil(q*n)-1. (The previous int(q*n) truncation was biased one
// rank high: p50 of two samples returned the max.)
func nearestRank(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}
