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
	"repro/internal/partition"
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
		names[i] = s.Kind.String()
		if s.Kind == obs.SpanBarrier {
			names[i] = fmt.Sprintf("barrier(%d)", s.Arg)
		}
	}
	return names
}

// drainCollectivesAfterFirst is the arg of machine's write_drain span for job:
// how many collectives the drain ran after its first round (the barrier(1)
// span) — 1 when the job activated through remote writes, else 0.
func drainCollectivesAfterFirst(t *testing.T, reg *obs.Registry, job uint64, machine int) uint32 {
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
// machine, five spans for every job: a load comes with its remote set, so no
// job builds one.
var jobSchedule = []string{"barrier(0)", "task_phase", "barrier(1)", "write_drain", "job"}

// scheduleCluster boots cfg's machines with a registry over g, loaded with the
// replica cap ghosts.
func scheduleCluster(t *testing.T, g *graph.Graph, cfg Config, ghosts *partition.GhostSet) *Cluster {
	t.Helper()
	cfg.Obs = obs.NewRegistry()
	return bootGhosts(t, g, cfg, ghosts)
}

// TestRunJobSchedule pins the job protocol: whatever a machine's local state
// (a mirrored-read and accumulated-write job, an empty local frontier, a write
// backlog that overflows to a file, no replicas at all, remote writes that
// activate), its main goroutine records exactly barrier(0), task_phase,
// barrier(1), write_drain, job — five spans, in the first job on a load as in a
// rerun or a job over the other iterator — and the collective count is what
// the spec says: the start barrier and the first drain round, and the frontier
// lanes once more for a job whose remote writes activate — 2 or 3, never a
// count that depends on timing. The tail-roles rows give one property every
// role its column's tail has, at p = 2 and 3, one and two workers, both
// fabrics: each run mirrors it, and before every rerun a push reduces into it,
// worker 0's accumulator in the tail the last run's replicas filled; every
// job is exact.
func TestRunJobSchedule(t *testing.T) {
	g := testGraph(t)
	inDeg := refInDegree(g)
	fromZero := make([]int64, g.NumNodes()) // in-degree counting node 0's out-edges only
	for _, v := range g.Out.Neighbors(0) {
		fromZero[v]++
	}
	outDeg := make([]int64, g.NumNodes())
	for u := range outDeg {
		outDeg[u] = g.OutDegree(graph.NodeID(u))
	}
	type row struct {
		name   string
		cfg    func(*Config)
		tcp    bool                // over the TCP fabric
		ghosts *partition.GhostSet // the load's replica cap
		spec   func(c *Cluster, spec *JobSpec)
		// activating: the push activates into a built frontier, so a job that
		// sends a remote write runs a third collective.
		activating bool
		// roles: the job pushes each neighbour's word of a property it reads
		// (pushReadTask), and a push reduces into that property before every
		// rerun; want is then scaled by the property's words.
		roles bool
		want  []int64
	}
	rows := []row{
		{name: "ghosted-read-write", want: inDeg,
			spec: func(c *Cluster, spec *JobSpec) {
				a, _ := c.AddPropF64("a")
				b, _ := c.AddPropI64("b")
				spec.ReadProps = []PropID{a, b} // mirrored; dst accumulates
			}},
		{name: "empty-local-frontier", want: fromZero,
			spec: func(c *Cluster, spec *JobSpec) {
				spec.Source = c.NewFrontier("src")
				spec.Source.Add(0) // machines 1 and 2 own no member: they skip dispatch; machine 0's list is sparse
			}},
		{name: "spill-writes", want: inDeg, // the backlog overflows to a file
			cfg: func(cfg *Config) { cfg.SpillWrites, cfg.ResidentBudgetBytes, cfg.SpillDir = true, 512, t.TempDir() }},
		{name: "ghost-free", want: inDeg, ghosts: noGhosts,
			spec: func(c *Cluster, spec *JobSpec) {
				a, _ := c.AddPropF64("a")
				spec.ReadProps = []PropID{a} // read through neighbors, but no replica to refresh
			}},
		{name: "ghost-free-empty-frontier", want: make([]int64, g.NumNodes()), ghosts: noGhosts,
			spec: func(c *Cluster, spec *JobSpec) { spec.Source = c.NewFrontier("none") }},
		{name: "activating", want: inDeg, activating: true,
			spec: func(c *Cluster, spec *JobSpec) {
				spec.Build = []*Frontier{c.NewFrontier("written")}
				spec.WriteProps[0].ActivateInto = 1
			}},
	}
	for _, p := range []int{2, 3} {
		for _, workers := range []int{1, 2} {
			for _, tcp := range []bool{false, true} {
				rows = append(rows, row{name: fmt.Sprintf("tail-roles/p=%d/workers=%d/tcp=%v", p, workers, tcp),
					cfg: func(cfg *Config) { cfg.NumMachines, cfg.Workers = p, workers }, tcp: tcp, roles: true, want: inDeg})
			}
		}
	}
	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(3)
			if tc.cfg != nil {
				tc.cfg(&cfg)
			}
			if tc.tcp {
				f := innerFabric(t, cfg, true)
				t.Cleanup(func() { f.Close() }) //nolint:errcheck // after the cluster's Shutdown
				cfg.Fabric = f
			}
			c := scheduleCluster(t, g, cfg, tc.ghosts)
			dst, _ := c.AddPropI64("dst")
			spec := JobSpec{Name: tc.name, Iter: IterOutEdges, Task: &pushOneTask{counter: dst},
				WriteProps: []WriteSpec{{Prop: dst, Op: reduce.Sum}}}
			if tc.spec != nil {
				tc.spec(c, &spec)
			}
			var a PropID
			if tc.roles {
				a, _ = c.AddPropI64("a")
				c.FillI64(a, 1)
				spec.Task, spec.ReadProps = &pushReadTask{read: a, counter: dst}, []PropID{a}
			}
			want := uint32(2)
			if tc.activating {
				want = 3
			}
			run := func(spec JobSpec, result []int64) {
				t.Helper()
				if tc.roles {
					if spec.Name != tc.name {
						reduceInDegrees(t, c, a, inDeg)
					}
					result = slices.Clone(result)
					for v, w := range c.GatherI64(a) {
						result[v] *= w
					}
				}
				c.FillI64(dst, 0)
				st, err := c.RunJob(spec)
				if err != nil {
					t.Fatal(err)
				}
				got := c.GatherI64(dst)
				if !slices.Equal(got, result) {
					t.Errorf("%s: job result differs from the reference", spec.Name)
				}
				if tc.activating {
					var written int64
					for _, v := range got {
						if v != 0 {
							written++
						}
					}
					if st.Frontiers[0].Count != written {
						t.Errorf("%s: built a frontier of %d, want the %d nodes written", spec.Name, st.Frontiers[0].Count, written)
					}
				}
				for m := range c.machines {
					if got, want := mainSpans(c.cfg.Obs, c.sections, m), jobSchedule; !slices.Equal(got, want) {
						t.Errorf("%s: machine %d recorded %v, want %v", spec.Name, m, got, want)
					}
					if got := 2 + drainCollectivesAfterFirst(t, c.cfg.Obs, c.sections, m); got != want {
						t.Errorf("%s: machine %d's write_drain span counts %d collectives, want %d", spec.Name, m, got, want)
					}
					if got := c.machines[m].col.Seq(); got != want { // the job's section's round
						t.Errorf("%s: machine %d ran %d collectives, want %d", spec.Name, m, got, want)
					}
				}
			}
			run(spec, tc.want)
			if rep := c.cfg.Obs.LastReport(); (tc.name == "ghosted-read-write" || tc.roles) &&
				(rep.Counters["mirror_words"] == 0 || rep.Counters["accumulated_writes"] == 0) {
				t.Errorf("the job neither mirrored its reads nor accumulated its writes: %v", rep.Counters)
			}
			spec.Name += "/rerun"
			run(spec, tc.want)
			// The in-edge rows reference other addresses, numbered with the
			// out-edges' at load. Transposed, the push counts out-degrees.
			spec.Name, spec.Iter, spec.Source = tc.name+"/in-edges", IterInEdges, nil
			run(spec, outDeg)
			spec.Name += "/rerun"
			run(spec, outDeg)
		})
	}
}

// pushReadTask pushes each neighbour's own word of read into its counter,
// through the view where it holds the ref and on demand, the ref in Aux,
// where it does not: counter[v] gains read[v] once per row that names v.
type pushReadTask struct{ read, counter PropID }

func (k *pushReadTask) RunRows(c *Ctx, rows *Cursor) {
	read, counter := c.I64(k.read), c.Writer(k.counter, reduce.Sum)
	for rows.Next() {
		for _, ref := range rows.Row().Refs {
			if v, ok := read.At(ref); ok {
				counter.WriteI64(ref, v)
			} else {
				c.Aux = uint64(ref)
				c.ReadRef(ref, k.read)
			}
		}
	}
}

func (k *pushReadTask) ReadDone(c *Ctx, word uint64) {
	c.Writer(k.counter, reduce.Sum).Write(int64(c.Aux), word)
}

// reduceInDegrees adds every node's in-degree into p by an out-edge push —
// an accumulated one, so worker 0 folds its replicas into p's column tail —
// and checks the result exact.
func reduceInDegrees(t *testing.T, c *Cluster, p PropID, inDeg []int64) {
	t.Helper()
	want := c.GatherI64(p)
	for v, d := range inDeg {
		want[v] += d
	}
	if _, err := c.RunJob(JobSpec{Name: "reduce-in-degrees", Iter: IterOutEdges, Task: &pushOneTask{counter: p},
		WriteProps: []WriteSpec{{Prop: p, Op: reduce.Sum}}}); err != nil {
		t.Fatal(err)
	}
	if c.cfg.Obs.LastReport().Counters["accumulated_writes"] == 0 {
		t.Error("the push into the read property accumulated nothing")
	}
	if !slices.Equal(c.GatherI64(p), want) {
		t.Error("the push into the read property differs from the reference")
	}
}

// TestDrainLanesLayout pins the termination vector to drainLanes' table, with
// no conditional rows: 3·|Build| + 3·P lanes for every job, the frontier block
// first, then the three per-machine blocks (owed, first and last worker end),
// disjoint and in the table's order.
func TestDrainLanesLayout(t *testing.T) {
	for _, p := range []int{1, 3} {
		m := &Machine{cfg: &Config{NumMachines: p}}
		for builds := 0; builds <= 2; builds++ {
			l := m.newDrainLanes(&jobRuntime{jobPlan: jobPlan{builds: make([]*machineFrontier, builds)}})
			if want := 3*builds + 3*p; len(l.vals) != want {
				t.Errorf("p=%d, %d builds: %d lanes, want %d", p, builds, len(l.vals), want)
			}
			if l.ends != 3*builds {
				t.Errorf("p=%d, %d builds: the frontier block has %d lanes", p, builds, l.ends)
			}
			clear(l.vals)
			for k, block := range [][]int64{l.owed(), l.endMin(), l.endMax()} {
				if len(block) != p {
					t.Fatalf("p=%d: per-machine block %d has %d lanes", p, k, len(block))
				}
				block[p-1] = int64(k + 1)
			}
			at := 3 * builds
			if l.vals[at+p-1] != 1 || l.vals[at+2*p-1] != 2 || l.vals[at+3*p-1] != 3 {
				t.Errorf("p=%d, %d builds: per-machine blocks out of order: %v", p, builds, l.vals)
			}
		}
	}
}

// TestFaultRunJobPhases fails each phase of the schedule in turn and requires
// the same residue-free outcome from all of them: ErrJobAborted, no current
// job, the write backlog reset, every buffer home, and an exact rerun on the same
// cluster. A collective is one control frame from machine 1 to machine 0, so
// failing that stream's k-th frame fails the job's k-th collective, and the
// spans machine 1 completed before it say which phase that was — which pins
// the order of the collectives too. The first drain round is the barrier(1)
// span; the drain runs a third collective, over the frontier lanes, exactly
// when the job activates and sent a remote write, so the later-round row's
// job activates, and a job over an empty frontier has two collectives.
func TestFaultRunJobPhases(t *testing.T) {
	g := testGraph(t)
	want := refInDegree(g)
	ctrl := func(k int) comm.FaultRule {
		return comm.FaultRule{Src: 1, Dst: 0, Type: int(comm.MsgCtrl), Kind: comm.FaultFail, After: k, Limit: 1}
	}
	for _, tc := range []struct {
		phase      string
		rule       comm.FaultRule
		quiet      bool // iterate an empty frontier: no writes, one drain round
		activating bool // the push activates into a built frontier: a third collective
		spans      int  // how much of the schedule machine 1 completes before the failure; 0 = the job succeeds
	}{
		{phase: "barrier-start", rule: ctrl(0), spans: 1}, // a failed barrier still records its span
		{phase: "taskPhase", rule: comm.FaultRule{Src: 1, Dst: comm.AnyMachine, Type: int(comm.MsgWriteReq), Kind: comm.FaultFail, Limit: 1}, spans: 2},
		{phase: "drainWrites-first-round", rule: ctrl(1), spans: 3}, // the end barrier: its span is recorded, write_drain is not
		{phase: "drainWrites-later-round", rule: ctrl(2), activating: true, spans: 3},
		{phase: "past-the-last-collective", rule: ctrl(2), quiet: true},
	} {
		t.Run(tc.phase, func(t *testing.T) {
			cfg := faultCfg(3)
			cfg.SpillWrites, cfg.ResidentBudgetBytes, cfg.SpillDir = true, 512, t.TempDir() // the backlog overflows to a file
			inj := faultFabric(t, cfg, false, comm.FaultPlan{Seed: 14, Rules: []comm.FaultRule{tc.rule}})
			defer inj.Close()
			cfg.Fabric = inj
			c := scheduleCluster(t, g, cfg, nil)
			aux, _ := c.AddPropF64("aux")
			dst, _ := c.AddPropI64("dst")
			job := func(source *Frontier) error {
				c.FillI64(dst, 0)
				spec := JobSpec{Name: tc.phase, Iter: IterOutEdges, Task: &pushOneTask{counter: dst}, Source: source,
					ReadProps: []PropID{aux}, WriteProps: []WriteSpec{{Prop: dst, Op: reduce.Sum}}}
				if tc.activating {
					spec.Build, spec.WriteProps[0].ActivateInto = []*Frontier{c.NewFrontier("written")}, 1
				}
				_, err := c.RunJob(spec)
				return err
			}
			var source *Frontier
			if tc.quiet {
				source = c.NewFrontier("empty")
			}
			// The job mirrors aux and accumulates dst (on demand when it
			// activates), the first on its load: its remote set came with the load.
			full := jobSchedule
			err := job(source)
			spans := mainSpans(c.cfg.Obs, c.sections, 1)
			if tc.spans == 0 {
				if err != nil || !slices.Equal(spans, full) {
					t.Fatalf("err=%v, spans %v: the job has more collectives than the schedule", err, spans)
				}
				if more := drainCollectivesAfterFirst(t, c.cfg.Obs, c.sections, 1); more != 0 {
					t.Fatalf("the job survived a failed third collective yet its drain ran %d after the first", more)
				}
				return
			}
			if !errors.Is(err, ErrJobAborted) {
				t.Fatalf("error %v does not wrap ErrJobAborted", err)
			}
			if want := append(full[:tc.spans:tc.spans], "job"); !slices.Equal(spans, want) {
				t.Errorf("machine 1 completed %v before the failure, want %v", spans, want)
			}
			for _, m := range c.machines {
				if m.curJob.Load() != nil {
					t.Errorf("machine %d still has a current job after the abort", m.id)
				}
				m.spill.mu.Lock()
				if sp := m.spill; sp.job != 0 || sp.file != nil || sp.frames != 0 || len(sp.recs) != 0 {
					t.Errorf("machine %d backlog not reset: armed for job %d, file=%v frames=%d bytes=%d", m.id, sp.job, sp.file != nil, sp.frames, len(sp.recs))
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
