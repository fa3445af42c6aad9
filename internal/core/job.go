package core

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/comm"
	"repro/internal/reduce"
)

// IterKind selects a job's built-in iterator (paper §4.1.2: "PGX.D provides
// two iterators for implementing neighborhood iterating algorithms: the node
// iterator and the edge iterator (with incoming and outgoing variants)").
type IterKind uint8

const (
	// IterNodes runs a NodeTask over the owned nodes.
	IterNodes IterKind = iota
	// IterOutEdges runs a RowTask over each owned node's out-edge row;
	// all edges of one node are handled by the same worker.
	IterOutEdges
	// IterInEdges runs a RowTask over each owned node's in-edge row — the
	// pull-friendly orientation.
	IterInEdges
	// IterBothEdges runs a RowTask over each owned node's out-edge row and
	// then its in-edge row in one region — the undirected view. Algorithms that
	// touch both orientations per step (WCC, k-core, MIS) use it to halve
	// their barrier and prefetch count.
	IterBothEdges
)

// String implements fmt.Stringer.
func (k IterKind) String() string {
	switch k {
	case IterNodes:
		return "nodes"
	case IterOutEdges:
		return "out-edges"
	case IterInEdges:
		return "in-edges"
	case IterBothEdges:
		return "both-edges"
	default:
		return fmt.Sprintf("IterKind(%d)", uint8(k))
	}
}

// Task is the paper's RTC user context (§4.1.2): what every kernel has, in
// either of its two forms — NodeTask on the node iterator, RowTask on the edge
// iterators. Either form is a loop: the worker calls it once per claimed chunk
// with its Cursor, and the kernel steps the cursor to the chunk's end — the
// paper's run-to-complete task, a loop the compiler sees whole (Fig 5a). A
// callback must complete without blocking ("the invocation of the run() method
// completes no matter what").
// If a callback issued a remote read, ReadDone is the continuation, invoked by
// the same worker when the value arrives — so task-local state needs no
// locks. All cross-invocation state must live in properties or in Ctx.Aux,
// exactly as the paper requires ("all the information which is needed after
// continuation should be explicitly stored").
type Task interface {
	ReadDone(c *Ctx, val uint64)
}

// NodeTask is the kernel form the worker dispatches on IterNodes: RunNodes is
// called once per chunk and loops `for nodes.Next()`, each step visiting one
// owned node (or frontier member) with Ctx.Node set and Ctx.Aux zeroed.
type NodeTask interface {
	Task
	RunNodes(c *Ctx, nodes *Cursor)
}

// runTask is the per-node kernel form the cursor replaced: Run once per node.
// The node iterator still accepts it, calling Run per step of its cursor, for
// one caller this engine does not build: the regression benchmark's harness
// (benchmark/micro.go) times an empty job over such a kernel, and that
// harness changes only with the benchmark. New kernels are NodeTasks.
type runTask interface {
	Task
	Run(c *Ctx)
}

// Row is one node's adjacency in one orientation, as Cursor.Row returns it.
// Refs[i] is the i-th neighbor's ref (an owned node's local index, a replica
// of a remote one, or a packed remote ref: store.go); Weights, nil on
// unweighted graphs, runs parallel to Refs. Both alias engine storage (the
// CSR or a decoded store block) and are valid only until the cursor's next
// step.
type Row struct {
	Refs    []int64
	Weights []float64
}

// Weight returns the i-th edge's weight (0 on unweighted graphs).
func (r Row) Weight(i int) float64 {
	if r.Weights == nil {
		return 0
	}
	return r.Weights[i]
}

// RowTask is the kernel form the worker dispatches on the edge iterators:
// RunRows is called once per chunk and loops `for rows.Next()` over the
// chunk's rows — one per node and orientation (two under IterBothEdges, out
// row first) — running its own loop over each row's edges. The contract:
//
//   - Whatever does not change from row to row is resolved once, before the
//     loop: the typed views (Ctx.F64/Ctx.I64) and the Writers the kernel uses
//     are the job's and hold for the whole chunk.
//   - Cursor.Next sets Ctx.Node and zeroes Ctx.Aux at the node's first row;
//     both belong to the kernel from then on. A kernel that passes a remote
//     ref to Ctx.ReadRef gets Node and Aux back in ReadDone, so per-edge
//     continuation state (an edge weight, say) goes into Aux just before
//     that ReadRef.
//   - A neighbor is read through the property's typed view when the view
//     holds it — every owned node, live, and in a job that mirrors the
//     property every replica its rows reference, as of the job's prefetch —
//     with one indexed load and no ReadDone; At reports whether it does. Any
//     other ref goes through Ctx.ReadRef, which buffers toward the owner.
//   - A push reduces by the row: Ctx.Writer(p, op).WriteRow(row.Refs, word)
//     puts one word into every neighbor, local and remote, in row order, with
//     op the operator the job declares for p; Writer.Write and its typed forms
//     take one ref, for a value that differs per edge.
//   - Ctx.ReadRef, Ctx.CallRMI and a WriteRow or Write that buffers a remote
//     ref toward its owner — in the middle of a row's loop — are
//     re-entrancy points: when the request pool is exhausted the worker runs
//     queued continuations — possibly ReadDone for this very node — before
//     they return, with Node and Aux restored after. A row kernel therefore
//     keeps its accumulator in a local, never caches own-node property
//     values across such a call, and folds the accumulator into the property
//     with one read-modify-write after the row's loop (the pull pattern's
//     register accumulation: one own-node store per row instead of one per
//     edge).
//   - Leaving a row early is a continue of the cursor loop; leaving the loop
//     skips the chunk's remaining rows.
type RowTask interface {
	Task
	RunRows(c *Ctx, rows *Cursor)
}

// RMITask is implemented additionally by tasks that invoke Ctx.CallRMI;
// RMIDone is the continuation receiving the response payload.
type RMITask interface {
	Task
	RMIDone(c *Ctx, payload []byte)
}

// NoReads is a mixin for push-only tasks: its ReadDone panics, catching
// kernels that issue reads they never declared handling for.
type NoReads struct{}

// ReadDone implements Task for kernels that never issue remote reads.
func (NoReads) ReadDone(c *Ctx, val uint64) {
	panic("core: ReadDone invoked on a task that declared NoReads")
}

// WriteSpec declares one property a job reduces into, with its operator —
// the information replica upkeep needs ("for each parallel region,
// the program needs to define what properties are used in the region as
// well as how they are used").
type WriteSpec struct {
	Prop PropID
	Op   reduce.Op
	// ActivateInto, when positive, activates the destination node into the
	// job's Build[ActivateInto-1] frontier whenever a reduce-write through
	// this spec changes the stored word (1-based so the zero value means no
	// activation). This is receiver-side frontier generation: a push
	// superstep's improved nodes become the next frontier with no separate
	// adopt pass. A remote write activates at its owner in the drain's
	// replay, before the termination allreduce carries the frontier stats.
	// Writes to such a property never accumulate: the per-worker fold was
	// measured and did not pay (EXPERIMENTS.md, "Activation with
	// accumulation ...: measured, not done").
	ActivateInto int
}

// JobSpec describes one parallel region.
type JobSpec struct {
	// Name appears in stats and error messages.
	Name string
	// Iter selects the built-in iterator driving Task.
	Iter IterKind
	// Task is the kernel: a NodeTask on IterNodes, a RowTask on the edge
	// iterators. One instance is shared by all workers on a machine;
	// per-invocation state must live in Ctx or properties.
	Task Task
	// ReadProps lists properties read through neighbors; an eligible job
	// (remoteset.go) mirrors them before its first row — it fetches the
	// replicas its rows reference into the columns' tails — and its neighbor
	// reads of them see the owned words live and the replicas as of then
	// (F64View). A remote read of any other property fails the job at its
	// owner, and a property not listed may be stored with plain writes
	// (Ctx.SetF64).
	ReadProps []PropID
	// WriteProps lists properties reduced into through neighbors; an
	// eligible job folds its remote reductions in per-worker accumulators
	// that start at the operator's bottom and ship to the owners when the
	// worker runs dry — worker 0's in the column's tail, which no read of the
	// job sees: a property is not both read and written. A local reduction
	// lands at once, so a later row's view of the owned word reads it. A
	// kernel that reduces a listed property with another operator than the
	// listed one fails the job (Ctx.Writer).
	WriteProps []WriteSpec
	// Source, when non-nil, restricts the iteration to the frontier's
	// members: each machine iterates only its local frontier (sparse vertex
	// list or bitmap-filtered chunks), and machines whose local frontier is
	// empty skip worker dispatch entirely. Nil iterates all owned nodes.
	Source *Frontier
	// Build lists frontiers the job populates: Ctx.Activate(slot) marks the
	// current node as a member of Build[slot]'s next membership. Each listed
	// frontier is rebuilt from scratch (a frontier may appear in both Source
	// and Build — the old membership drives iteration, the new one replaces
	// it after the task phase), and its cluster-wide FrontierStats come back
	// in JobStats.Frontiers, carried by the termination-detection allreduce
	// at no extra collective cost.
	Build []*Frontier
}

// JobStats reports one job execution.
type JobStats struct {
	// Duration is the wall time of the parallel region including
	// termination detection.
	Duration time.Duration
	// Traffic is the cluster-wide transport delta during the job.
	Traffic comm.Snapshot
	// Breakdown decomposes Duration as in Figure 6c.
	Breakdown Breakdown
	// Frontiers holds the cluster-wide stats of each spec.Build frontier
	// (same order), as of the end of the job. The slice is engine scratch the
	// cluster's next RunJob overwrites: copy out what must outlive it.
	Frontiers []FrontierStats
}

// Breakdown splits a job's wall time into the paper's Figure 6c components:
// FullyParallel "accounts for the time when all workers are busy", InterMachine
// "for the time when at least one machine is idle", and IntraMachine for
// "when some workers are waiting for others in the same machine". The three
// parts plus Sync (termination detection) sum to the job duration.
type Breakdown struct {
	FullyParallel time.Duration
	IntraMachine  time.Duration
	InterMachine  time.Duration
	Sync          time.Duration
}

// Add accumulates o into b, for aggregating per-iteration breakdowns.
func (b *Breakdown) Add(o Breakdown) {
	b.FullyParallel += o.FullyParallel
	b.IntraMachine += o.IntraMachine
	b.InterMachine += o.InterMachine
	b.Sync += o.Sync
}

// validate checks a spec against the registered properties.
func (spec *JobSpec) validate(props []propMeta) error {
	if spec.Task == nil {
		return fmt.Errorf("core: job %q has no task", spec.Name)
	}
	if spec.Iter > IterBothEdges {
		return fmt.Errorf("core: job %q has unknown iterator %d", spec.Name, spec.Iter)
	}
	_, nodes := spec.Task.(NodeTask)
	_, run := spec.Task.(runTask)
	if spec.Iter == IterNodes && !nodes && !run {
		return fmt.Errorf("core: job %q runs a %T on the node iterator, which has no RunNodes (NodeTask)", spec.Name, spec.Task)
	}
	if _, ok := spec.Task.(RowTask); spec.Iter != IterNodes && !ok {
		return fmt.Errorf("core: job %q runs a %T on the %v iterator, which has no RunRows (RowTask)", spec.Name, spec.Task, spec.Iter)
	}
	for _, p := range spec.ReadProps {
		if int(p) >= len(props) || props[p].kind == kindDropped {
			return fmt.Errorf("core: job %q reads unregistered or dropped property %d", spec.Name, p)
		}
	}
	for _, w := range spec.WriteProps {
		if int(w.Prop) >= len(props) || props[w.Prop].kind == kindDropped {
			return fmt.Errorf("core: job %q writes unregistered or dropped property %d", spec.Name, w.Prop)
		}
		if !w.Op.Valid() || w.Op == reduce.Overwrite {
			return fmt.Errorf("core: job %q writes property %d with unsupported op %v (accumulators need a commutative reduction)", spec.Name, w.Prop, w.Op)
		}
		if slices.Contains(spec.ReadProps, w.Prop) {
			// The paper leaves read+write of one property non-deterministic
			// and tells users to make temporary copies; this engine rejects
			// it outright so the hazard cannot be hit silently.
			return fmt.Errorf("core: job %q both reads and writes property %d; use a temporary copy", spec.Name, w.Prop)
		}
		if w.ActivateInto < 0 || w.ActivateInto > len(spec.Build) {
			return fmt.Errorf("core: job %q activates property %d into build slot %d of %d", spec.Name, w.Prop, w.ActivateInto, len(spec.Build))
		}
	}
	return nil
}
