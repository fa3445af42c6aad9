package core

import (
	"errors"
	"fmt"
)

// ErrJobCanceled marks jobs that failed because the cluster was canceled
// from outside the engine — a serving-layer deadline, an explicit client
// cancel, or server shutdown — rather than by a transport fault. It always
// appears wrapped inside ErrJobAborted (cancellation rides the same
// job-scoped abort latch and recovery path as wire faults), so callers test
// errors.Is(err, ErrJobCanceled) to distinguish "told to stop" from "broke".
var ErrJobCanceled = errors.New("core: job canceled")

// Cancel marks the cluster canceled: the in-flight job (if any) aborts via
// the job-scoped abort latch exactly as on a transport fault — workers
// unwind, buffers recover, the flight recorder dumps — and every subsequent
// RunJob fails fast with ErrJobCanceled until Uncancel. cause, when non-nil,
// is attached to the error chain (e.g. a deadline description). Idempotent:
// the first cause wins. Safe to call from any goroutine, including timers.
//
// This is the serving layer's hook for per-request deadlines and client
// cancellation: a multi-superstep algorithm is a sequence of RunJob calls,
// so firing the latch kills the current superstep and the fail-fast check
// stops the driver loop from launching the next one.
func (c *Cluster) Cancel(cause error) {
	err := error(ErrJobCanceled)
	if cause != nil {
		err = fmt.Errorf("%w: %w", ErrJobCanceled, cause)
	}
	if !c.canceled.CompareAndSwap(nil, &err) {
		return
	}
	// The latch is set before any machine's current job is looked up, and a
	// machine reads the latch after installing its job (Machine.publish): a
	// job this loop misses aborts itself as it publishes.
	for _, m := range c.machines {
		m.abortCurrent(err)
	}
}

// Uncancel clears a previous Cancel so the cluster accepts jobs again — the
// serving layer calls it when recycling an engine into its pool after a
// canceled or deadline-exceeded run.
func (c *Cluster) Uncancel() { c.canceled.Store(nil) }

// CancelCause returns the sticky cancellation error installed by Cancel, or
// nil while the cluster is accepting jobs.
func (c *Cluster) CancelCause() error {
	if cause := c.canceled.Load(); cause != nil {
		return *cause
	}
	return nil
}
