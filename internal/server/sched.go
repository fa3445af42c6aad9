package server

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Admission errors surfaced to handleRun. errRunCanceled tags queued runs
// killed by op=cancel so the server counts them separately from failures.
var (
	errShutdown    = errors.New("server shutting down")
	errRunCanceled = errors.New("run canceled")
)

// engine is one pooled cluster of an instance: analyses lease an engine for
// their whole run, so one engine executes one job stream at a time while its
// siblings serve other runs on the same shared graph.
type engine struct {
	idx     int
	cluster *core.Cluster
	reg     *obs.Registry // nil when observability is disabled
}

// enginePool is an instance's set of engines with a free list. It is not a
// channel so the scheduler can test availability without consuming, and so
// drop can collect every engine.
type enginePool struct {
	mu   sync.Mutex
	all  []*engine
	idle []*engine
}

func newEnginePool(all []*engine) *enginePool {
	idle := make([]*engine, len(all))
	copy(idle, all)
	return &enginePool{all: all, idle: idle}
}

// tryAcquire pops an idle engine, or nil when every engine is leased.
func (p *enginePool) tryAcquire() *engine {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.idle)
	if n == 0 {
		return nil
	}
	e := p.idle[n-1]
	p.idle = p.idle[:n-1]
	return e
}

// release returns one engine to the free list.
func (p *enginePool) release(e *engine) {
	p.mu.Lock()
	p.idle = append(p.idle, e)
	p.mu.Unlock()
}

// acquireAll collects every engine, waiting for leased ones to come home —
// the exclusive lock drop takes. One caller per pool: two concurrent calls
// would deadlock splitting it, and handleDrop is the only caller, once per
// instance. stop (the server's done channel) aborts the wait.
func (p *enginePool) acquireAll(stop <-chan struct{}) ([]*engine, error) {
	var held []*engine
	for {
		p.mu.Lock()
		held = append(held, p.idle...)
		p.idle = p.idle[:0]
		got := len(held) == len(p.all)
		p.mu.Unlock()
		if got {
			return held, nil
		}
		select {
		case <-stop:
			p.mu.Lock()
			p.idle = append(p.idle, held...)
			p.mu.Unlock()
			return nil, errShutdown
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// admitResult is what a queued ticket eventually receives: an engine lease,
// or a terminal admission error (dropped graph, cancel, shutdown).
type admitResult struct {
	eng *engine
	err error
}

// ticket is one run request waiting for (or holding) admission.
type ticket struct {
	seq      uint64
	tenant   string
	tag      string
	priority int
	enqueued time.Time
	inst     *instance
	// memMB is the run's declared (Request.MaxResidentMB) or store-sizing
	// estimated resident need, charged against the scheduler's memory budget
	// for the duration of the lease. Zero when no budget is configured.
	memMB int64
	// deferred marks that the memory gate has already skipped this ticket
	// once, so the budget-deferral stat counts runs, not dispatch sweeps.
	deferred bool
	// result receives exactly one admitResult; buffered so the dispatcher
	// never blocks on a waiter.
	result chan admitResult
}

// scheduler is the admission queue: it charges a global concurrency slot
// only when a run can actually execute — the target instance has an idle
// engine and the tenant is under quota — so a request blocked behind a busy
// graph never starves requests for other graphs (the runSem bug this
// replaces acquired the global slot first and then slept on the instance).
type scheduler struct {
	maxConcurrent int
	defaultQuota  int            // per-tenant running cap; <=0 means no cap
	quotas        map[string]int // per-tenant overrides of defaultQuota
	aging         time.Duration  // queued priority +1 per aging waited; <=0 disables
	memBudgetMB   int64          // cap on Σ memMB of running analyses; <=0 disables

	mu        sync.Mutex
	seq       uint64
	queue     []*ticket
	running   map[*ticket]*engine
	perTenant map[string]int // running analyses per tenant
	// memInUseMB is the declared/estimated resident total of running
	// analyses; budgetDeferrals counts tickets the memory gate held back at
	// least once.
	memInUseMB      int64
	budgetDeferrals int64
}

func newScheduler(maxConcurrent, defaultQuota int, quotas map[string]int, aging time.Duration, memBudgetMB int64) *scheduler {
	return &scheduler{
		maxConcurrent: maxConcurrent,
		defaultQuota:  defaultQuota,
		quotas:        quotas,
		aging:         aging,
		memBudgetMB:   memBudgetMB,
		running:       make(map[*ticket]*engine),
		perTenant:     make(map[string]int),
	}
}

// quota returns tenant's concurrent-run cap (<=0: unlimited).
func (s *scheduler) quota(tenant string) int {
	if q, ok := s.quotas[tenant]; ok {
		return q
	}
	return s.defaultQuota
}

// enqueue registers t and tries to admit. Returns t's admission sequence
// number (the server-side job id).
func (s *scheduler) enqueue(t *ticket) uint64 {
	s.mu.Lock()
	s.seq++
	t.seq = s.seq
	s.queue = append(s.queue, t)
	s.mu.Unlock()
	s.dispatch()
	return t.seq
}

// remove takes a still-queued ticket out (deadline expiry, shutdown). False
// means the ticket was already admitted or resolved — the caller must then
// consume t.result and release the lease.
func (s *scheduler) remove(t *ticket) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, q := range s.queue {
		if q == t {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			return true
		}
	}
	return false
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
// capacity may have appeared: enqueue, release, an instance dropped.
// Admission order is aged priority, FIFO within a level; a ticket whose
// instance has no idle engine or whose tenant is at quota is skipped, not
// waited on — no head-of-line blocking.
func (s *scheduler) dispatch() {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	// Fail tickets whose instance was dropped while they queued.
	kept := s.queue[:0]
	for _, t := range s.queue {
		if t.inst.closed.Load() {
			t.result <- admitResult{err: fmt.Errorf("graph %q dropped while queued", t.inst.name)}
			continue
		}
		kept = append(kept, t)
	}
	s.queue = kept
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
		admitted := false
		for i, t := range s.queue {
			if q := s.quota(t.tenant); q > 0 && s.perTenant[t.tenant] >= q {
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
			eng := t.inst.pool.tryAcquire()
			if eng == nil {
				continue // instance busy; later tickets may target idle graphs
			}
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			s.running[t] = eng
			s.perTenant[t.tenant]++
			s.memInUseMB += t.memMB
			t.result <- admitResult{eng: eng}
			admitted = true
			break
		}
		if !admitted {
			return
		}
	}
}

// release ends t's lease: the engine returns to its instance pool and the
// freed capacity is re-dispatched.
func (s *scheduler) release(t *ticket) {
	s.mu.Lock()
	eng := s.running[t]
	if eng != nil {
		s.memInUseMB -= t.memMB
	}
	delete(s.running, t)
	if s.perTenant[t.tenant]--; s.perTenant[t.tenant] <= 0 {
		delete(s.perTenant, t.tenant)
	}
	s.mu.Unlock()
	if eng != nil {
		t.inst.pool.release(eng)
	}
	s.dispatch()
}

// cancelByTag kills runs labeled tag: queued ones resolve with
// errRunCanceled, running ones have their engine canceled through the abort
// latch (the run's own handler observes the abort and releases). tenant,
// when non-empty, restricts the match. Returns how many runs matched.
func (s *scheduler) cancelByTag(tag, tenant string, cause error) int {
	match := func(t *ticket) bool {
		return t.tag == tag && tag != "" && (tenant == "" || t.tenant == tenant)
	}
	n := 0
	s.mu.Lock()
	kept := s.queue[:0]
	for _, t := range s.queue {
		if match(t) {
			t.result <- admitResult{err: fmt.Errorf("%w: %w", errRunCanceled, cause)}
			n++
			continue
		}
		kept = append(kept, t)
	}
	s.queue = kept
	var cancel []*engine
	for t, eng := range s.running {
		if match(t) {
			cancel = append(cancel, eng)
			n++
		}
	}
	s.mu.Unlock()
	for _, eng := range cancel {
		eng.cluster.Cancel(cause)
	}
	return n
}

// queueLen reports how many requests await admission.
func (s *scheduler) queueLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// memStats snapshots the memory gate's accounting for stats.
func (s *scheduler) memStats() (inUseMB, deferrals int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.memInUseMB, s.budgetDeferrals
}

// tenantLoad snapshots per-tenant running and queued counts for stats.
func (s *scheduler) tenantLoad() (running, queued map[string]int) {
	running = make(map[string]int)
	queued = make(map[string]int)
	s.mu.Lock()
	defer s.mu.Unlock()
	for tenant, n := range s.perTenant {
		running[tenant] = n
	}
	for _, t := range s.queue {
		queued[t.tenant]++
	}
	return running, queued
}
