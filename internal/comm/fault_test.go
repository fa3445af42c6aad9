package comm

import (
	"strings"
	"testing"
	"time"

	"repro/internal/reduce"
)

// bootFaultPair wires a 2-machine in-process fabric through a FaultInjector
// and returns the injector plus both (wrapped) endpoints.
func bootFaultPair(t *testing.T, plan FaultPlan) (*FaultInjector, []Endpoint) {
	t.Helper()
	inj := NewFaultInjector(NewInProcFabric(2, 64), plan)
	eps := make([]Endpoint, 2)
	for m := range eps {
		ep, err := inj.Endpoint(m)
		if err != nil {
			t.Fatal(err)
		}
		eps[m] = ep
	}
	t.Cleanup(func() {
		for _, ep := range eps {
			ep.Close()
		}
		inj.Close()
	})
	return inj, eps
}

// TestFaultRuleCounters pins the After/Every/Limit trigger semantics: rules
// count matching frames per (src,dst) stream and fire on exact ordinals.
func TestFaultRuleCounters(t *testing.T) {
	cases := []struct {
		name string
		rule FaultRule
		want []int // ordinals (0-based) the rule must fire on, within 10 frames
	}{
		{"after-only fires once", FaultRule{After: 3}, []int{3}},
		{"every without after", FaultRule{Every: 4}, []int{0, 4, 8}},
		{"after plus every", FaultRule{After: 2, Every: 3}, []int{2, 5, 8}},
		{"limit caps applications", FaultRule{Every: 2, Limit: 2}, []int{0, 2}},
		{"every=1 fires on all", FaultRule{After: 7, Every: 1}, []int{7, 8, 9}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.rule
			r.Src, r.Dst, r.Type = AnyMachine, AnyMachine, AnyType
			r.Kind = FaultDrop
			inj := NewFaultInjector(NewInProcFabric(2, 4), FaultPlan{Seed: 1, Rules: []FaultRule{r}})
			defer inj.Close()
			var fired []int
			for ord := 0; ord < 10; ord++ {
				if inj.decide(0, 1, MsgReadReq) != nil {
					fired = append(fired, ord)
				}
			}
			if len(fired) != len(tc.want) {
				t.Fatalf("fired on %v, want %v", fired, tc.want)
			}
			for i := range fired {
				if fired[i] != tc.want[i] {
					t.Fatalf("fired on %v, want %v", fired, tc.want)
				}
			}
			// A distinct (src,dst) stream has independent counters.
			if tc.rule.After > 0 && inj.decide(1, 0, MsgReadReq) != nil {
				t.Error("fresh (src,dst) stream inherited another stream's ordinal")
			}
		})
	}
}

// TestFaultRuleMatching: Src/Dst/Type restrict a rule; wildcards do not.
func TestFaultRuleMatching(t *testing.T) {
	r := FaultRule{Src: 0, Dst: 2, Type: int(MsgReadResp)}
	if !r.matches(0, 2, MsgReadResp) {
		t.Error("exact triple did not match")
	}
	for _, bad := range [][3]int{{1, 2, int(MsgReadResp)}, {0, 1, int(MsgReadResp)}, {0, 2, int(MsgWriteReq)}} {
		if r.matches(bad[0], bad[1], MsgType(bad[2])) {
			t.Errorf("mismatched triple %v matched", bad)
		}
	}
	wild := FaultRule{Src: AnyMachine, Dst: AnyMachine, Type: AnyType}
	if !wild.matches(3, 7, MsgRMIReq) {
		t.Error("wildcard rule did not match")
	}
}

// TestFaultProbDeterminism: probabilistic rules draw from a per-(rule,src,dst)
// RNG seeded by the plan, so identical plans fault identical frame ordinals.
func TestFaultProbDeterminism(t *testing.T) {
	plan := FaultPlan{Seed: 42, Rules: []FaultRule{
		{Src: AnyMachine, Dst: AnyMachine, Type: AnyType, Kind: FaultDrop, Prob: 0.5},
	}}
	pattern := func(seed int64) []bool {
		p := plan
		p.Seed = seed
		inj := NewFaultInjector(NewInProcFabric(2, 4), p)
		defer inj.Close()
		out := make([]bool, 200)
		for i := range out {
			out[i] = inj.decide(0, 1, MsgReadReq) != nil
		}
		return out
	}
	a, b := pattern(42), pattern(42)
	hits := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at ordinal %d", i)
		}
		if a[i] {
			hits++
		}
	}
	if hits == 0 || hits == len(a) {
		t.Fatalf("Prob=0.5 fired %d/%d times; RNG not engaged", hits, len(a))
	}
	c := pattern(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical fault patterns")
	}
}

// sendFrame builds and sends one frame of the given type; the aux value tags
// it so receivers can identify which frames survived.
func sendFrame(t *testing.T, ep Endpoint, pool *Pool, dst int, typ MsgType, aux uint64) error {
	t.Helper()
	buf := pool.Acquire()
	buf.Reset(Header{Type: typ, Src: uint16(ep.Machine()), Aux: aux})
	buf.AppendU64(aux)
	return ep.Send(dst, buf)
}

// TestFaultDropOwnership: a dropped frame reports success, never arrives, and
// its buffer returns to the pool — the lossy-wire illusion with balanced
// accounting.
func TestFaultDropOwnership(t *testing.T) {
	inj, eps := bootFaultPair(t, FaultPlan{Seed: 1, Rules: []FaultRule{
		{Src: AnyMachine, Dst: AnyMachine, Type: int(MsgReadReq), Kind: FaultDrop, Limit: 1},
	}})
	pool := NewPool(4, 1024)
	if err := sendFrame(t, eps[0], pool, 1, MsgReadReq, 100); err != nil {
		t.Fatalf("dropped send reported failure: %v", err)
	}
	// The probe is a different type (unmatched) and must arrive first — proof
	// the previous frame was consumed by the injector, not delayed.
	if err := sendFrame(t, eps[0], pool, 1, MsgWriteReq, 101); err != nil {
		t.Fatal(err)
	}
	got, ok := eps[1].Recv()
	if !ok || got.Header().Aux != 101 {
		t.Fatalf("probe frame not first: ok=%v aux=%d", ok, got.Header().Aux)
	}
	got.Release()
	if st := inj.Stats(); st.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", st.Dropped)
	}
	if pool.Outstanding() != 0 {
		t.Errorf("dropped frame leaked: Outstanding = %d", pool.Outstanding())
	}
}

// TestFaultFailOwnership: a hard-failed send returns an error and releases
// the frame before Send returns (the transport ownership contract).
func TestFaultFailOwnership(t *testing.T) {
	inj, eps := bootFaultPair(t, FaultPlan{Seed: 1, Rules: []FaultRule{
		{Src: 0, Dst: 1, Type: AnyType, Kind: FaultFail, Limit: 1},
	}})
	pool := NewPool(2, 1024)
	err := sendFrame(t, eps[0], pool, 1, MsgReadReq, 7)
	if err == nil {
		t.Fatal("FaultFail send succeeded")
	}
	if !strings.Contains(err.Error(), "injected") {
		t.Errorf("error %q does not identify the injection", err)
	}
	if pool.Outstanding() != 0 {
		t.Errorf("failed frame leaked: Outstanding = %d", pool.Outstanding())
	}
	if st := inj.Stats(); st.Failed != 1 {
		t.Errorf("Failed = %d, want 1", st.Failed)
	}
	// Limit reached: the next send passes through.
	if err := sendFrame(t, eps[0], pool, 1, MsgReadReq, 8); err != nil {
		t.Fatalf("send after Limit still failing: %v", err)
	}
	got, _ := eps[1].Recv()
	got.Release()
}

// TestFaultTruncateClamps: truncation keeps at least the header (so the
// fault lands in payload validation, not framing) and leaves frames already
// shorter than the target untouched.
func TestFaultTruncateClamps(t *testing.T) {
	inj, eps := bootFaultPair(t, FaultPlan{Seed: 1, Rules: []FaultRule{
		{Src: AnyMachine, Dst: AnyMachine, Type: int(MsgReadResp), Kind: FaultTruncate, Every: 1, TruncateTo: 0},
	}})
	pool := NewPool(4, 1024)
	if err := sendFrame(t, eps[0], pool, 1, MsgReadResp, 5); err != nil {
		t.Fatal(err)
	}
	got, ok := eps[1].Recv()
	if !ok {
		t.Fatal("truncated frame not delivered")
	}
	if len(got.Data) != HeaderSize {
		t.Errorf("truncated to %d bytes, want clamp at HeaderSize=%d", len(got.Data), HeaderSize)
	}
	if got.Header().Aux != 5 {
		t.Errorf("header damaged by truncation: %+v", got.Header())
	}
	if len(got.Payload()) != 0 {
		t.Errorf("payload survived truncation: %d bytes", len(got.Payload()))
	}
	got.Release()
	if st := inj.Stats(); st.Truncated != 1 {
		t.Errorf("Truncated = %d, want 1", st.Truncated)
	}
	// A header-only frame cannot shrink further: forwarded intact, not counted.
	buf := pool.Acquire()
	buf.Reset(Header{Type: MsgReadResp, Src: 0, Aux: 6})
	if err := eps[0].Send(1, buf); err != nil {
		t.Fatal(err)
	}
	got, _ = eps[1].Recv()
	got.Release()
	if st := inj.Stats(); st.Truncated != 1 {
		t.Errorf("header-only frame counted as truncated: %d", st.Truncated)
	}
}

// TestFaultDelayDelivers: delayed frames arrive late but intact.
func TestFaultDelayDelivers(t *testing.T) {
	inj, eps := bootFaultPair(t, FaultPlan{Seed: 1, Rules: []FaultRule{
		{Src: AnyMachine, Dst: AnyMachine, Type: AnyType, Kind: FaultDelay, Every: 1, Delay: 5 * time.Millisecond},
	}})
	pool := NewPool(2, 1024)
	start := time.Now()
	if err := sendFrame(t, eps[0], pool, 1, MsgCtrl, 9); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Errorf("send returned after %v, delay not applied", d)
	}
	got, ok := eps[1].Recv()
	if !ok || got.Header().Aux != 9 {
		t.Fatalf("delayed frame lost: ok=%v", ok)
	}
	got.Release()
	if st := inj.Stats(); st.Delayed != 1 {
		t.Errorf("Delayed = %d, want 1", st.Delayed)
	}
}

// TestFaultKillSemantics: a killed machine's sends fail hard; frames toward
// it are blackholed (success + release) so peers only notice via timeouts.
func TestFaultKillSemantics(t *testing.T) {
	inj, eps := bootFaultPair(t, FaultPlan{Seed: 1})
	pool := NewPool(4, 1024)
	if !inj.Alive(1) {
		t.Fatal("machine 1 dead before Kill")
	}
	inj.Kill(1)
	inj.Kill(1) // idempotent
	if inj.Alive(1) || !inj.Alive(0) {
		t.Fatalf("liveness wrong after Kill: alive(0)=%v alive(1)=%v", inj.Alive(0), inj.Alive(1))
	}
	if st := inj.Stats(); st.Kills != 1 {
		t.Errorf("Kills = %d, want 1 (idempotent)", st.Kills)
	}
	if err := sendFrame(t, eps[1], pool, 0, MsgCtrl, 1); err == nil {
		t.Error("send from killed machine succeeded")
	}
	if err := sendFrame(t, eps[0], pool, 1, MsgCtrl, 2); err != nil {
		t.Errorf("send toward killed machine errored (must blackhole): %v", err)
	}
	if pool.Outstanding() != 0 {
		t.Errorf("kill paths leaked buffers: Outstanding = %d", pool.Outstanding())
	}
	st := inj.Stats()
	if st.Failed != 1 || st.Dropped != 1 {
		t.Errorf("stats = %+v, want Failed=1 Dropped=1", st)
	}
}

// TestFaultKillBeforeEndpoints: kills staged before any endpoint exists all
// take effect, a later Kill of a higher-numbered machine included, and each
// counts once.
func TestFaultKillBeforeEndpoints(t *testing.T) {
	inj := NewFaultInjector(NewInProcFabric(3, 64), FaultPlan{Seed: 1})
	inj.Kill(1)
	inj.Kill(2)
	eps := make([]Endpoint, 3)
	for m := range eps {
		ep, err := inj.Endpoint(m)
		if err != nil {
			t.Fatal(err)
		}
		eps[m] = ep
	}
	t.Cleanup(func() {
		for _, ep := range eps {
			ep.Close()
		}
		inj.Close()
	})
	if !inj.Alive(0) || inj.Alive(1) || inj.Alive(2) {
		t.Fatalf("alive = %v %v %v, want true false false", inj.Alive(0), inj.Alive(1), inj.Alive(2))
	}
	if st := inj.Stats(); st.Kills != 2 {
		t.Errorf("Kills = %d, want 2", st.Kills)
	}
	pool := NewPool(4, 1024)
	if err := sendFrame(t, eps[2], pool, 0, MsgCtrl, 1); err == nil {
		t.Error("send from killed machine 2 succeeded")
	}
	if pool.Outstanding() != 0 {
		t.Errorf("kill path leaked buffers: Outstanding = %d", pool.Outstanding())
	}
}

// TestFaultKillRuleFires: a FaultKill rule marks the source dead at its
// trigger ordinal; the send that trips it fails, and all later sends fail.
func TestFaultKillRuleFires(t *testing.T) {
	inj, eps := bootFaultPair(t, FaultPlan{Seed: 1, Rules: []FaultRule{
		{Src: 1, Dst: AnyMachine, Type: AnyType, Kind: FaultKill, After: 2},
	}})
	pool := NewPool(4, 1024)
	for i := 0; i < 2; i++ {
		if err := sendFrame(t, eps[1], pool, 0, MsgCtrl, uint64(i)); err != nil {
			t.Fatalf("send %d before kill ordinal failed: %v", i, err)
		}
		got, _ := eps[0].Recv()
		got.Release()
	}
	if err := sendFrame(t, eps[1], pool, 0, MsgCtrl, 2); err == nil {
		t.Fatal("send at kill ordinal succeeded")
	}
	if inj.Alive(1) {
		t.Error("machine 1 alive after kill rule fired")
	}
	if err := sendFrame(t, eps[1], pool, 0, MsgCtrl, 3); err == nil {
		t.Error("send after kill succeeded")
	}
	if pool.Outstanding() != 0 {
		t.Errorf("buffers leaked: %d", pool.Outstanding())
	}
}

// TestFaultClearRules: ClearRules stops rule-driven faults (recovery testing)
// while kills remain permanent.
func TestFaultClearRules(t *testing.T) {
	inj, eps := bootFaultPair(t, FaultPlan{Seed: 1, Rules: []FaultRule{
		{Src: AnyMachine, Dst: AnyMachine, Type: AnyType, Kind: FaultFail, Every: 1},
	}})
	pool := NewPool(2, 1024)
	if err := sendFrame(t, eps[0], pool, 1, MsgCtrl, 1); err == nil {
		t.Fatal("rule did not fire")
	}
	inj.ClearRules()
	if err := sendFrame(t, eps[0], pool, 1, MsgCtrl, 2); err != nil {
		t.Fatalf("send still failing after ClearRules: %v", err)
	}
	got, _ := eps[1].Recv()
	got.Release()
}

// TestFaultKindString covers the Stringer, including the unknown branch.
func TestFaultKindString(t *testing.T) {
	want := map[FaultKind]string{
		FaultDrop: "drop", FaultDelay: "delay", FaultTruncate: "truncate",
		FaultFail: "fail", FaultKill: "kill",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("FaultKind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
	if FaultKind(200).String() == "" {
		t.Error("unknown FaultKind renders empty")
	}
}

// TestFaultAbortFrameRouted: MsgAbort frames land on the router's dedicated
// abort queue, not the worker or control channels.
func TestFaultAbortFrameRouted(t *testing.T) {
	_, eps := bootFaultPair(t, FaultPlan{Seed: 1})
	router := NewRouter(eps[1], RouterConfig{NumWorkers: 1})
	defer router.Shutdown()
	pool := NewPool(2, 1024)
	buf := pool.Acquire()
	buf.Reset(Header{Type: MsgAbort, Src: 0, Worker: CtrlWorker, Aux: 77})
	buf.AppendBytes([]byte("boom"))
	if err := eps[0].Send(1, buf); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-router.AbortQueue():
		if got.Header().Aux != 77 || string(got.Payload()) != "boom" {
			t.Errorf("abort frame mangled: %+v %q", got.Header(), got.Payload())
		}
		got.Release()
	case <-time.After(2 * time.Second):
		t.Fatal("MsgAbort never reached the abort queue")
	}
}

// TestFaultTruncatedAllReduceRejected: a truncated control frame surfaces as
// an allreduce error on the root instead of an out-of-range panic.
func TestFaultTruncatedAllReduceRejected(t *testing.T) {
	_, eps := bootFaultPair(t, FaultPlan{Seed: 1, Rules: []FaultRule{
		{Src: 1, Dst: 0, Type: int(MsgCtrl), Kind: FaultTruncate, Every: 1, TruncateTo: HeaderSize + 8},
	}})
	errs := make(chan error, 2)
	for m := 0; m < 2; m++ {
		go func(m int) {
			router := NewRouter(eps[m], RouterConfig{NumWorkers: 1})
			defer router.Shutdown()
			col := NewCollectives(eps[m], router.Ctrl(), NewPool(4, 4096))
			col.SetTimeout(300 * time.Millisecond)
			vals := []int64{1, 2, 3, 4}
			errs <- col.AllReduceI64(vals, reduce.Sum)
		}(m)
	}
	rootErr := <-errs
	// Machine 1's wait for the result either times out (root bailed) or sees
	// its router shut down; order of the two errors is unspecified.
	otherErr := <-errs
	if rootErr == nil && otherErr == nil {
		t.Fatal("truncated allreduce contribution reported no error")
	}
	for _, err := range []error{rootErr, otherErr} {
		if err != nil && strings.Contains(err.Error(), "index out of range") {
			t.Fatalf("truncation panicked through: %v", err)
		}
	}
}
