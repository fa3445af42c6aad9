package comm

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// FaultKind selects what a matching FaultRule does to a frame.
type FaultKind uint8

const (
	// FaultDrop silently discards the frame (released back to its pool).
	// The sender observes success — exactly what a lossy wire looks like —
	// so drops surface only through the engine's deadlines.
	FaultDrop FaultKind = iota
	// FaultDelay sleeps on the sender's goroutine before forwarding,
	// modelling a congested or slow link.
	FaultDelay
	// FaultTruncate chops the frame to TruncateTo bytes before forwarding,
	// modelling partial writes and corrupt framing. The header is always
	// kept intact so the fault lands in payload validation, not in the
	// transport's own length checks.
	FaultTruncate
	// FaultFail releases the frame and returns an error from Send — a hard
	// transport failure the caller sees immediately.
	FaultFail
	// FaultKill marks the sending machine dead when the rule fires: every
	// later send from it fails and every frame toward it is blackholed.
	FaultKill
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case FaultDrop:
		return "drop"
	case FaultDelay:
		return "delay"
	case FaultTruncate:
		return "truncate"
	case FaultFail:
		return "fail"
	case FaultKill:
		return "kill"
	default:
		return fmt.Sprintf("FaultKind(%d)", uint8(k))
	}
}

// AnyMachine and AnyType are the wildcard values for FaultRule matchers.
const (
	AnyMachine = -1
	AnyType    = -1
)

// FaultRule describes one injected failure mode. A rule matches a frame by
// (src, dst, type) and then triggers either counter-based (After/Every,
// deterministic per (src,dst) stream) or probabilistically (Prob, from a
// per-(rule,src,dst) RNG seeded by FaultPlan.Seed — rerunning the same
// workload with the same seed faults the same frame ordinals).
type FaultRule struct {
	// Src and Dst restrict the rule to frames from/to one machine;
	// AnyMachine matches all.
	Src, Dst int
	// Type restricts the rule to one MsgType; AnyType matches all.
	Type int
	// Kind is what happens to a matching, triggered frame.
	Kind FaultKind
	// After skips the first After matching frames of each (src,dst) stream.
	After int
	// Every then triggers on every Every-th matching frame (1 = all,
	// 0 = only the single frame at position After).
	Every int
	// Limit caps how many times this rule fires per (src,dst) stream;
	// 0 means unlimited.
	Limit int
	// Prob, when > 0, replaces the After/Every counters: each matching
	// frame triggers with this probability.
	Prob float64
	// Delay is the injected latency for FaultDelay.
	Delay time.Duration
	// TruncateTo is the frame length FaultTruncate cuts to (clamped to
	// [HeaderSize, len(frame))).
	TruncateTo int
}

func (r *FaultRule) matches(src, dst int, t MsgType) bool {
	if r.Src != AnyMachine && r.Src != src {
		return false
	}
	if r.Dst != AnyMachine && r.Dst != dst {
		return false
	}
	if r.Type != AnyType && MsgType(r.Type) != t {
		return false
	}
	return true
}

// FaultPlan seeds a FaultInjector: the rule set plus the RNG seed that makes
// probabilistic rules reproducible.
type FaultPlan struct {
	Seed  int64
	Rules []FaultRule
}

// FaultStats counts what the injector did, for assertions and reports.
type FaultStats struct {
	Dropped, Delayed, Truncated, Failed int64
	Kills                               int64
}

// ruleState is the per-(rule, src, dst) trigger state.
type ruleState struct {
	matched int
	applied int
	rng     *rand.Rand
}

// FaultInjector wraps a Fabric and deterministically injects transport
// faults — drops, delays, truncation, hard send failures, and machine
// kills — per (src,dst) pair. It preserves the Send ownership contract:
// a faulted frame is either forwarded, or released by the injector before
// Send returns, so buffer-pool accounting survives every failure mode.
//
// The injector is safe for concurrent Sends and may be reconfigured at
// runtime (Kill, ClearRules) to stage failures mid-job.
type FaultInjector struct {
	inner Fabric
	plan  FaultPlan

	mu    sync.Mutex
	state map[[3]int]*ruleState // key: rule index, src, dst
	rules []FaultRule           // active rules (ClearRules empties)
	// killed is the kill set, indexed by machine id: Kill replaces it under
	// mu with a grown copy, so Alive reads it without a lock and a kill is
	// never lost to a set sized before the machine id was known.
	killed atomic.Pointer[[]bool]

	dropped   atomic.Int64
	delayed   atomic.Int64
	truncated atomic.Int64
	failed    atomic.Int64
	kills     atomic.Int64
}

// NewFaultInjector wraps inner with the given plan. The returned fabric is a
// drop-in replacement: hand it to the engine via Config.Fabric.
// InMemory forwards the wrapped fabric's answer: injecting faults does not
// make an in-memory fabric a wire.
func (inj *FaultInjector) InMemory() bool { return InMemoryFabric(inj.inner) }

func NewFaultInjector(inner Fabric, plan FaultPlan) *FaultInjector {
	rules := make([]FaultRule, len(plan.Rules))
	copy(rules, plan.Rules)
	return &FaultInjector{
		inner: inner,
		plan:  plan,
		state: make(map[[3]int]*ruleState),
		rules: rules,
	}
}

// Endpoint implements Fabric.
func (f *FaultInjector) Endpoint(m int) (Endpoint, error) {
	ep, err := f.inner.Endpoint(m)
	if err != nil {
		return nil, err
	}
	return &faultEndpoint{inj: f, inner: ep}, nil
}

// Close implements Fabric.
func (f *FaultInjector) Close() error { return f.inner.Close() }

// Kill marks machine m dead: subsequent sends from it fail hard and frames
// toward it are blackholed (released, never delivered). Idempotent; callable
// mid-job from test goroutines.
func (f *FaultInjector) Kill(m int) {
	if m < 0 {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var old []bool
	if k := f.killed.Load(); k != nil {
		old = *k
	}
	if m < len(old) && old[m] {
		return
	}
	next := make([]bool, max(len(old), m+1))
	copy(next, old)
	next[m] = true
	f.killed.Store(&next)
	f.kills.Add(1)
}

// Alive reports whether machine m has not been killed.
func (f *FaultInjector) Alive(m int) bool {
	k := f.killed.Load()
	return k == nil || m < 0 || m >= len(*k) || !(*k)[m]
}

// ClearRules deactivates all rules (kills stay in effect); used by recovery
// tests to verify the engine works again once the fault clears.
func (f *FaultInjector) ClearRules() {
	f.mu.Lock()
	f.rules = nil
	f.mu.Unlock()
}

// Stats returns a snapshot of the injector's action counters.
func (f *FaultInjector) Stats() FaultStats {
	return FaultStats{
		Dropped:   f.dropped.Load(),
		Delayed:   f.delayed.Load(),
		Truncated: f.truncated.Load(),
		Failed:    f.failed.Load(),
		Kills:     f.kills.Load(),
	}
}

// decide finds the first rule that matches and triggers on this frame.
// Returns the rule (nil for no fault) — counter state advances for every
// matching rule whether or not it triggers, keeping streams deterministic.
func (f *FaultInjector) decide(src, dst int, t MsgType) *FaultRule {
	f.mu.Lock()
	defer f.mu.Unlock()
	var hit *FaultRule
	for i := range f.rules {
		r := &f.rules[i]
		if !r.matches(src, dst, t) {
			continue
		}
		key := [3]int{i, src, dst}
		st := f.state[key]
		if st == nil {
			st = &ruleState{rng: rand.New(rand.NewSource(f.plan.Seed ^ int64(i)<<32 ^ int64(src)<<16 ^ int64(dst)))}
			f.state[key] = st
		}
		ord := st.matched
		st.matched++
		if r.Limit > 0 && st.applied >= r.Limit {
			continue
		}
		trigger := false
		if r.Prob > 0 {
			trigger = st.rng.Float64() < r.Prob
		} else if ord >= r.After {
			if r.Every <= 0 {
				trigger = ord == r.After
			} else {
				trigger = (ord-r.After)%r.Every == 0
			}
		}
		if trigger && hit == nil {
			st.applied++
			hit = r
		}
	}
	return hit
}

// faultEndpoint wraps one machine's endpoint, applying the injector's rules
// on the send side. Recv and the rest of the interface pass through.
type faultEndpoint struct {
	inj   *FaultInjector
	inner Endpoint
}

func (e *faultEndpoint) Machine() int      { return e.inner.Machine() }
func (e *faultEndpoint) NumMachines() int  { return e.inner.NumMachines() }
func (e *faultEndpoint) Metrics() *Metrics { return e.inner.Metrics() }
func (e *faultEndpoint) Recv() (*Buffer, bool) {
	return e.inner.Recv()
}
func (e *faultEndpoint) Close() error { return e.inner.Close() }

// Quiesce forwards to the inner endpoint when it supports quiescing (the
// async TCP path); leak checks rely on this passing through the wrapper.
func (e *faultEndpoint) Quiesce() {
	if q, ok := e.inner.(interface{ Quiesce() }); ok {
		q.Quiesce()
	}
}

// Send applies the first triggered rule. A refused send — the sender is
// killed, or an injected FaultFail or FaultKill — counts one send error in
// the inner endpoint's Metrics, as the transport's own refusals do.
func (e *faultEndpoint) Send(dst int, buf *Buffer) error {
	src := e.inner.Machine()
	inj := e.inj
	if !inj.Alive(src) {
		inj.failed.Add(1)
		return e.inner.Metrics().refuse(buf, fmt.Errorf("comm: machine %d is killed", src))
	}
	if !inj.Alive(dst) {
		// A dead destination is a blackhole, not an error: real senders
		// only find out through timeouts (or TCP resets, eventually).
		buf.Release()
		inj.dropped.Add(1)
		return nil
	}
	rule := inj.decide(src, dst, MsgType(buf.Data[0]))
	if rule == nil {
		return e.inner.Send(dst, buf)
	}
	switch rule.Kind {
	case FaultDrop:
		buf.Release()
		inj.dropped.Add(1)
		return nil
	case FaultDelay:
		inj.delayed.Add(1)
		time.Sleep(rule.Delay)
		return e.inner.Send(dst, buf)
	case FaultTruncate:
		keep := rule.TruncateTo
		if keep < HeaderSize {
			keep = HeaderSize
		}
		if keep < len(buf.Data) {
			buf.Data = buf.Data[:keep]
			inj.truncated.Add(1)
		}
		return e.inner.Send(dst, buf)
	case FaultFail:
		inj.failed.Add(1)
		return e.inner.Metrics().refuse(buf, fmt.Errorf("comm: injected send failure %d -> %d", src, dst))
	case FaultKill:
		inj.Kill(src)
		inj.failed.Add(1)
		return e.inner.Metrics().refuse(buf, fmt.Errorf("comm: machine %d killed by fault injection", src))
	default:
		return e.inner.Send(dst, buf)
	}
}
