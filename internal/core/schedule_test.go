package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"

	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/reduce"
)

// mainSpans lists, in completion order, the spans machine's main goroutine
// recorded for job: kind names, a barrier's with its arg.
func mainSpans(reg *obs.Registry, job uint64, machine int) []string {
	var spans []obs.Span
	for _, s := range reg.RecentSpans(0) {
		if s.Job == job && int(s.Machine) == machine && s.Worker == obs.WorkerMain {
			spans = append(spans, s)
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].Seq < spans[j].Seq })
	names := make([]string, len(spans))
	for i, s := range spans {
		names[i] = s.KindName()
		if s.Kind == obs.SpanBarrier {
			names[i] = fmt.Sprintf("barrier(%d)", s.Arg)
		}
	}
	return names
}

// extraDrainRounds is the arg of machine's write_drain span for job: how many
// allreduce rounds the drain took after its first (the barrier(1) span).
func extraDrainRounds(t *testing.T, reg *obs.Registry, job uint64, machine int) uint32 {
	t.Helper()
	for _, s := range reg.RecentSpans(0) {
		if s.Job == job && int(s.Machine) == machine && s.Kind == obs.SpanWriteDrain {
			return uint32(s.Arg)
		}
	}
	t.Fatalf("machine %d recorded no write_drain span for job %d", machine, job)
	return 0
}

// jobSchedule is the span sequence runJob's phases must record on every
// machine for a job with readProps ghost-synced read props.
func jobSchedule(readProps int, ghostMerge bool) []string {
	var want []string
	for i := 0; i < readProps; i++ {
		want = append(want, "ghost_read_sync")
	}
	want = append(want, "barrier(0)", "task_phase", "barrier(1)", "write_drain")
	if ghostMerge {
		want = append(want, "ghost_merge")
	}
	return append(want, "job")
}

// scheduleCluster boots three machines with a registry over g, ghosting every
// vertex of degree 32 and up or none at all.
func scheduleCluster(t *testing.T, g *graph.Graph, cfg Config, ghosts bool) *Cluster {
	t.Helper()
	cfg.GhostThreshold = GhostDisabled
	if ghosts {
		cfg.GhostThreshold = 32
	}
	cfg.Obs = obs.NewRegistry()
	c := bootCluster(t, g, cfg)
	if (c.NumGhosts() > 0) != ghosts {
		t.Fatalf("test graph produced %d ghosts, want some: %v", c.NumGhosts(), ghosts)
	}
	return c
}

// TestRunJobSchedule pins the job protocol: whatever a machine's local state
// (a ghosted read+write job, an empty local frontier, spilled writes, a
// stealable job, no ghosts at all), its main goroutine records exactly
// ghost_read_sync per read prop, barrier(0), task_phase, barrier(1),
// write_drain, ghost_merge, job — and the collective count is what those
// spans say: the start barrier and the first drain round (two, all a healthy
// ghost-free job needs), one per ghosted read prop and per ghosted write
// prop, one per drain round after the first.
func TestRunJobSchedule(t *testing.T) {
	g := testGraph(t)
	inDeg := refInDegree(g)
	fromZero := make([]int64, g.NumNodes()) // in-degree counting node 0's out-edges only
	for _, v := range g.Out.Neighbors(0) {
		fromZero[v]++
	}
	for _, tc := range []struct {
		name      string
		cfg       func(*Config)
		spec      func(c *Cluster, spec *JobSpec)
		ghostFree bool
		readProps int
		quiet     bool // no remote write: the drain must take its first round only
		want      []int64
	}{
		{name: "ghosted-read-write", readProps: 2, want: inDeg,
			spec: func(c *Cluster, spec *JobSpec) {
				a, _ := c.AddPropF64("a")
				b, _ := c.AddPropI64("b")
				spec.ReadProps = []PropID{a, b}
			}},
		{name: "empty-local-frontier", want: fromZero,
			spec: func(c *Cluster, spec *JobSpec) {
				spec.Source = c.NewFrontier("src")
				spec.Source.Add(0) // machines 1 and 2 own no member: they skip dispatch
			}},
		{name: "spill-writes", want: inDeg,
			cfg: func(cfg *Config) { cfg.SpillWrites = true }},
		{name: "stealable", want: inDeg,
			cfg:  func(cfg *Config) { cfg.EnableWorkStealing = true },
			spec: func(c *Cluster, spec *JobSpec) { spec.Steal = &StealSpec{} }},
		{name: "ghost-free", ghostFree: true, readProps: 0, want: inDeg,
			spec: func(c *Cluster, spec *JobSpec) {
				a, _ := c.AddPropF64("a")
				spec.ReadProps = []PropID{a} // read through neighbors, but no ghost to refresh
			}},
		{name: "ghost-free-empty-frontier", ghostFree: true, quiet: true, want: make([]int64, g.NumNodes()),
			spec: func(c *Cluster, spec *JobSpec) { spec.Source = c.NewFrontier("none") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(3)
			if tc.cfg != nil {
				tc.cfg(&cfg)
			}
			c := scheduleCluster(t, g, cfg, !tc.ghostFree)
			dst, _ := c.AddPropI64("dst")
			c.FillI64(dst, 0)
			spec := JobSpec{Name: tc.name, Iter: IterOutEdges, Task: &pushOneTask{counter: dst},
				WriteProps: []WriteSpec{{Prop: dst, Op: reduce.Sum}}}
			if tc.spec != nil {
				tc.spec(c, &spec)
			}
			seq0 := c.machines[0].col.Seq()
			if _, err := c.RunJob(spec); err != nil {
				t.Fatal(err)
			}
			if got := c.GatherI64(dst); !slices.Equal(got, tc.want) {
				t.Error("job result differs from the reference")
			}
			want := jobSchedule(tc.readProps, !tc.ghostFree)
			for m := 0; m < 3; m++ {
				if got := mainSpans(c.cfg.Obs, c.jobSeq, m); !slices.Equal(got, want) {
					t.Errorf("machine %d recorded %v, want %v", m, got, want)
				}
				extra := extraDrainRounds(t, c.cfg.Obs, c.jobSeq, m)
				if tc.quiet && extra != 0 {
					t.Errorf("machine %d: a job without remote writes drained for %d extra rounds", m, extra)
				}
				collectives := 2 + extra
				if !tc.ghostFree {
					collectives += uint32(tc.readProps + len(spec.WriteProps))
				}
				if got := c.machines[m].col.Seq() - seq0; got != collectives {
					t.Errorf("machine %d ran %d collectives, want %d (%d extra drain rounds)", m, got, collectives, extra)
				}
			}
		})
	}
}

// TestFaultRunJobPhases fails each phase of the schedule in turn and requires
// the same residue-free outcome from all of them: ErrJobAborted, no current
// job, the spill reset, every buffer home, and an exact rerun on the same
// cluster. A collective is one control frame from machine 1 to machine 0, so
// failing that stream's k-th frame fails the job's k-th collective, and the
// spans machine 1 completed before it say which phase that was — which pins
// the order of the collectives too. The first drain round is the barrier(1)
// span; the drain takes no further round only when no remote write is in
// flight, so the phases after it are reached with a job over an empty
// frontier, and with writes in flight the collective after the first drain
// round is a later round or, when one sufficed, the ghost merge.
func TestFaultRunJobPhases(t *testing.T) {
	g := testGraph(t)
	want := refInDegree(g)
	ctrl := func(k int) comm.FaultRule {
		return comm.FaultRule{Src: 1, Dst: 0, Type: int(comm.MsgCtrl), Kind: comm.FaultFail, After: k, Limit: 1}
	}
	full := jobSchedule(1, true)
	for _, tc := range []struct {
		phase string
		rule  comm.FaultRule
		quiet bool     // iterate an empty frontier: no writes, one drain round
		spans []string // what machine 1 completes before the failure; nil = the job succeeds
		or    []string // the other span prefix the failure may leave
	}{
		{phase: "ghostPrepare", rule: ctrl(0), spans: full[:0]},
		{phase: "barrier-start", rule: ctrl(1), spans: full[:2]}, // a failed barrier still records its span
		{phase: "taskPhase", rule: comm.FaultRule{Src: 1, Dst: comm.AnyMachine, Type: int(comm.MsgWriteReq), Kind: comm.FaultFail, Limit: 1}, spans: full[:3]},
		{phase: "drainWrites-first-round", rule: ctrl(2), spans: full[:4]}, // the end barrier: its span is recorded, write_drain is not
		{phase: "drainWrites-or-ghostMerge", rule: ctrl(3), spans: full[:4], or: full[:5]},
		{phase: "ghostMerge", rule: ctrl(3), quiet: true, spans: full[:5]},
		{phase: "past-the-last-collective", rule: ctrl(4), quiet: true},
	} {
		t.Run(tc.phase, func(t *testing.T) {
			cfg := faultCfg(3)
			cfg.SpillWrites = true
			inj := faultFabric(t, cfg, false, comm.FaultPlan{Seed: 14, Rules: []comm.FaultRule{tc.rule}})
			defer inj.Close()
			cfg.Fabric = inj
			c := scheduleCluster(t, g, cfg, true)
			aux, _ := c.AddPropF64("aux")
			dst, _ := c.AddPropI64("dst")
			job := func(source *Frontier) error {
				c.FillI64(dst, 0)
				_, err := c.RunJob(JobSpec{Name: tc.phase, Iter: IterOutEdges, Task: &pushOneTask{counter: dst}, Source: source,
					ReadProps: []PropID{aux}, WriteProps: []WriteSpec{{Prop: dst, Op: reduce.Sum}}})
				return err
			}
			var source *Frontier
			if tc.quiet {
				source = c.NewFrontier("empty")
			}
			err := job(source)
			spans := mainSpans(c.cfg.Obs, c.jobSeq, 1)
			if tc.spans == nil {
				if err != nil || !slices.Equal(spans, full) {
					t.Fatalf("err=%v, spans %v: the job has more collectives than the schedule", err, spans)
				}
				return
			}
			if !errors.Is(err, ErrJobAborted) {
				t.Fatalf("error %v does not wrap ErrJobAborted", err)
			}
			if n := len(spans); n == 0 || spans[n-1] != "job" || !slices.Equal(spans[:n-1], tc.spans) && (tc.or == nil || !slices.Equal(spans[:n-1], tc.or)) {
				t.Errorf("machine 1 completed %v before the failure, want %v (or %v) and the job span", spans, tc.spans, tc.or)
			}
			for _, m := range c.machines {
				if m.curJob.Load() != nil {
					t.Errorf("machine %d still has a current job after the abort", m.id)
				}
				m.spill.mu.Lock()
				if sp := m.spill; sp.active || sp.file != nil || len(sp.mem) != 0 || sp.memBytes != 0 {
					t.Errorf("machine %d spill not reset: active=%v file=%v frames=%d bytes=%d", m.id, sp.active, sp.file != nil, len(sp.mem), sp.memBytes)
				}
				m.spill.mu.Unlock()
			}
			settleQuiescent(t, c)
			inj.ClearRules()
			if err := job(nil); err != nil {
				t.Fatalf("rerun after the fault cleared: %v", err)
			}
			if got := c.GatherI64(dst); !slices.Equal(got, want) {
				t.Error("rerun after the fault cleared differs from the reference")
			}
		})
	}
}
