// Package reduce defines the reduction operators PGX.D applies to property
// writes (paper §3.3/§4.2: write-props are declared with a reduction
// operator; private copies — the engine's per-worker accumulators — start at
// the operator's bottom value and partial results are reduced back to the
// owner). It provides plain and atomic application for float64 and int64
// payloads; the atomic forms are the reference CAS loops ("the copier applies
// them directly with atomic instructions") the micro-benchmarks time — the
// engine's own live in core's write path, instantiated per operator.
package reduce

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Op identifies a reduction operator.
type Op uint8

const (
	// Sum adds values; bottom is 0.
	Sum Op = iota
	// Min keeps the smaller value; bottom is +Inf / MaxInt64.
	Min
	// Max keeps the larger value; bottom is -Inf / MinInt64.
	Max
	// Or is logical/bitwise OR on integer payloads; bottom is 0.
	Or
	// And is logical/bitwise AND on integer payloads; bottom is all-ones.
	And
	// Overwrite replaces the value unconditionally (last write wins).
	// It has no meaningful bottom, so a job cannot declare it (JobSpec.validate):
	// an OVERWRITE is never accumulated.
	Overwrite
)

// String implements fmt.Stringer.
func (op Op) String() string {
	switch op {
	case Sum:
		return "SUM"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	case Or:
		return "OR"
	case And:
		return "AND"
	case Overwrite:
		return "OVERWRITE"
	default:
		return fmt.Sprintf("Op(%d)", uint8(op))
	}
}

// Valid reports whether op is a known operator.
func (op Op) Valid() bool { return op <= Overwrite }

// ApplyF64 returns op(a, b) for float64 values. The additive case is split
// off so that it inlines into the per-edge reduction loops.
func ApplyF64(op Op, a, b float64) float64 {
	if op == Sum {
		return a + b
	}
	return applyF64(op, a, b)
}

func applyF64(op Op, a, b float64) float64 {
	switch op {
	case Sum:
		return a + b
	case Min:
		if b < a {
			return b
		}
		return a
	case Max:
		if b > a {
			return b
		}
		return a
	case Or:
		if a != 0 || b != 0 {
			return 1
		}
		return 0
	case And:
		if a != 0 && b != 0 {
			return 1
		}
		return 0
	case Overwrite:
		return b
	default:
		panic("reduce: unknown op " + op.String())
	}
}

// ApplyI64 returns op(a, b) for int64 values; SUM and MIN inline like
// ApplyF64's SUM.
func ApplyI64(op Op, a, b int64) int64 {
	switch op {
	case Sum:
		return a + b
	case Min:
		return min(a, b)
	}
	return applyI64(op, a, b)
}

func applyI64(op Op, a, b int64) int64 {
	switch op {
	case Sum:
		return a + b
	case Min:
		if b < a {
			return b
		}
		return a
	case Max:
		if b > a {
			return b
		}
		return a
	case Or:
		return a | b
	case And:
		return a & b
	case Overwrite:
		return b
	default:
		panic("reduce: unknown op " + op.String())
	}
}

// BottomF64 returns op's identity element for float64: the value a worker's
// accumulator slots are initialized to before a parallel region (the paper's
// "the bottom value is set to each ghost copy at the beginning — e.g. 0 for
// additive reduction").
func BottomF64(op Op) float64 {
	switch op {
	case Sum, Or:
		return 0
	case Min:
		return math.Inf(1)
	case Max:
		return math.Inf(-1)
	case And:
		return 1
	case Overwrite:
		return 0
	default:
		panic("reduce: unknown op " + op.String())
	}
}

// BottomI64 returns op's identity element for int64.
func BottomI64(op Op) int64 {
	switch op {
	case Sum, Or:
		return 0
	case Min:
		return math.MaxInt64
	case Max:
		return math.MinInt64
	case And:
		return -1
	case Overwrite:
		return 0
	default:
		panic("reduce: unknown op " + op.String())
	}
}

// AtomicApplyF64 applies op(val) to the float64 stored at bits, using a
// compare-and-swap loop. Min/Max exit early without a write when the stored
// value already dominates, which keeps cache lines shared under contention.
func AtomicApplyF64(bits *atomic.Uint64, op Op, val float64) {
	for {
		old := bits.Load()
		cur := math.Float64frombits(old)
		next := ApplyF64(op, cur, val)
		if next == cur && op != Overwrite {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// AtomicApplyI64 applies op(val) to the int64 at addr with a CAS loop.
func AtomicApplyI64(addr *atomic.Int64, op Op, val int64) {
	if op == Sum {
		addr.Add(val)
		return
	}
	for {
		cur := addr.Load()
		next := ApplyI64(op, cur, val)
		if next == cur && op != Overwrite {
			return
		}
		if addr.CompareAndSwap(cur, next) {
			return
		}
	}
}
