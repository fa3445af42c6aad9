// Package algorithms implements the paper's evaluation suite (Table 2) on
// the PGX.D engine: exact PageRank in both pull and push form, approximate
// PageRank with delta propagation, weakly connected components, single-source
// shortest paths (Bellman-Ford), hop distance (BFS), eigenvector centrality,
// and the maximum k-core number. Each algorithm is written as the paper
// writes them — a driver of sequential regions interleaved with parallel
// jobs — and each returns Metrics suitable for the benchmark harness.
package algorithms

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/graph"
)

// Metrics aggregates the execution of one algorithm run.
type Metrics struct {
	// Iterations is the number of algorithm-level iterations executed.
	Iterations int
	// Jobs is the number of parallel regions run.
	Jobs int
	// Total is the end-to-end wall time of the algorithm body (excluding
	// graph loading and result gathering).
	Total time.Duration
	// JobTime is the summed duration of all parallel regions.
	JobTime time.Duration
	// Breakdown aggregates the per-job Figure 6c decomposition.
	Breakdown core.Breakdown
	// Traffic aggregates the transport deltas of all jobs.
	Traffic comm.Snapshot
	// PushSteps / PullSteps count traversal supersteps by direction (only
	// the direction-optimizing traversals populate them).
	PushSteps int
	PullSteps int
	// PropCols is the peak number of property columns the run had registered
	// at once — what Spec.Cols declares to admission.
	PropCols int
}

// PerIteration returns the average wall time per iteration, the number the
// paper's Table 3 reports for PageRank and eigenvector centrality.
func (m Metrics) PerIteration() time.Duration {
	if m.Iterations == 0 {
		return 0
	}
	return m.Total / time.Duration(m.Iterations)
}

// track folds one job's stats into the metrics.
func (m *Metrics) track(st core.JobStats) {
	m.Jobs++
	m.JobTime += st.Duration
	m.Breakdown.Add(st.Breakdown)
	m.Traffic = m.Traffic.Add(st.Traffic)
}

// nowFn indirects time.Now so tests can stub algorithm timing.
var nowFn = time.Now

// kernelHook, when a test sets it, substitutes every job's kernel just before
// the job runs — how TestRowDispatchMatchesPerEdge drives each algorithm
// through per-edge copies of its row kernels.
var kernelHook func(core.Task) core.Task

// checkSources rejects a source outside [0, NumNodes) before an algorithm
// registers anything, so a bad request fails as an error, not a panic in a
// property write.
func checkSources(c *core.Cluster, sources ...graph.NodeID) error {
	for _, s := range sources {
		if int(s) >= c.NumNodes() {
			return fmt.Errorf("algorithms: source %d out of range [0, %d)", s, c.NumNodes())
		}
	}
	return nil
}

// runner wraps a cluster with metrics tracking and deferred error handling
// so algorithm bodies read like the paper's pseudocode instead of error
// plumbing.
type runner struct {
	c     *core.Cluster
	met   Metrics
	err   error
	props []core.PropID
}

// dropProps releases every property the run registered — scratch and result
// columns alike, since results are gathered before returning. Deferred at
// the top of each algorithm so success, abort and a failed registration all
// return the ids and columns to the cluster. Released last-in-first-out, so
// the cluster's free list hands the next run the same ids in the same order.
func (r *runner) dropProps() {
	slices.Reverse(r.props)
	r.c.DropProps(r.props...)
}

func (r *runner) run(spec core.JobSpec) {
	r.runStats(spec)
}

// runStats runs one job and returns its stats (zero value after an error) —
// for callers that read JobStats.Frontiers.
func (r *runner) runStats(spec core.JobSpec) core.JobStats {
	if r.err != nil {
		return core.JobStats{}
	}
	if kernelHook != nil {
		spec.Task = kernelHook(spec.Task)
	}
	st, err := r.c.RunJob(spec)
	if err != nil {
		r.err = err
		return core.JobStats{}
	}
	r.met.track(st)
	return st
}

func (r *runner) propF64(name string) core.PropID {
	if r.err != nil {
		return 0
	}
	return r.keep(r.c.AddPropF64(name))
}

func (r *runner) propI64(name string) core.PropID {
	if r.err != nil {
		return 0
	}
	return r.keep(r.c.AddPropI64(name))
}

// keep records a freshly registered property for dropProps, or the error.
func (r *runner) keep(p core.PropID, err error) core.PropID {
	if err != nil {
		r.err = err
		return 0
	}
	r.props = append(r.props, p)
	r.met.PropCols = max(r.met.PropCols, len(r.props))
	return p
}
