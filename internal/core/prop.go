package core

import (
	"fmt"
	"math"
	"sync/atomic"
	"unsafe"

	"repro/internal/reduce"
	"repro/internal/store"
)

// PropID names a registered node property cluster-wide. Properties are
// column-oriented O(N) arrays partitioned like the vertices (paper §3.3).
type PropID uint16

// PropKind is a property's element type. The engine moves all values as
// 8-byte words on the wire; the kind selects interpretation and reduction
// arithmetic.
type PropKind uint8

const (
	// KindF64 is a float64-valued property.
	KindF64 PropKind = iota
	// KindI64 is an int64-valued property (bools are 0/1 int64s).
	KindI64
	// kindDropped marks a dropped id (Cluster.DropProps) until it is reused.
	kindDropped PropKind = 0xff
)

// String implements fmt.Stringer.
func (k PropKind) String() string {
	switch k {
	case KindF64:
		return "f64"
	case KindI64:
		return "i64"
	default:
		return fmt.Sprintf("PropKind(%d)", uint8(k))
	}
}

// propMeta is the cluster-wide registration record for a property.
type propMeta struct {
	name string
	kind PropKind
}

// column is one machine's storage for one property: one 8-byte word per owned
// node, and behind them one word per slot of the load's remote set — §3.3's
// ghost values next to the owned ones, [owned words | replicas], laid out when
// the property is registered. vals is the owned words alone; the tail is what
// the job makes of it: in a job that reads the property remotely and resolves
// the reads per address, the replicas' values (the mirror, mirror.go), and in a
// job that accumulates its reductions into the property, worker 0's
// accumulator (accum.go) — so that a read or a plain reduction reaches an owned
// neighbour and a replica with one indexed access. No job has both: JobSpec
// refuses a property it both reads and writes.
// During a job an owned word is touched by this machine's workers — a node's
// own worker stores it, any worker may reduce into it as a neighbor — by its
// copiers, which read only the job's ReadProps (serveReads refuses the rest),
// and, once the workers joined, by the drain's replay of the other machines'
// writes (spill.go) on the main goroutine. So whether an access needs an atomic
// is a per-job fact, which Machine.newJobRuntime resolves from the worker count
// and the job's declarations into the two flags below; where neither holds, a
// store is atomic and a reduction a compare-and-swap loop (write.go). Loads are
// atomic throughout. acc holds the per-worker accumulators of a dense push's
// remote reductions; they are plain slices since each is single-owner, and
// they go when the column does.
type column struct {
	kind PropKind
	vals []atomic.Uint64 // numLocal; its capacity reaches over the tail, one word per remote-set slot
	acc  []accum         // [workers]: worker 0's slots are the tail, the others' lazily allocated

	// owned: no goroutine but a node's own worker touches the node's word this
	// job, so an own-node store (Ctx.SetF64/SetI64) is plain. single: one worker
	// is the column's only task-phase goroutine, so a local reduction is a plain
	// load–merge–store too. view is what a neighbour read of the property loads
	// (Ctx.F64/I64, ReadRef): vals, or in a job that mirrors the property vals
	// with its tail, [owned words | replicas] (mirror.go). Written by
	// newJobRuntime and mirrorJob, read by the workers.
	owned, single bool
	view          []atomic.Uint64

	// freeFn is non-nil when vals is backed by anonymous mmap instead of the
	// Go heap (out-of-core runs with a resident budget): the O(N) column then
	// counts against the kernel's page accounting, not the GC heap, and its
	// pages return to the kernel the moment the column is released rather
	// than at the next GC cycle. The backing is deliberately NOT part of the
	// store's residency window — DONTNEED on anonymous memory zeroes, and
	// property values, unlike topology, cannot be refetched from the file.
	freeFn func() error
}

// newColumn allocates one machine's column: numLocal owned words and a tail of
// tail words, worker 0's accumulator slots. With offHeap set the array goes to
// anonymous mmap (falling back to the heap if the map fails); release must be
// called before dropping the last reference.
func newColumn(kind PropKind, numLocal, tail, workers int, offHeap bool) *column {
	c := &column{kind: kind, acc: make([]accum, workers)}
	size := numLocal + tail
	if offHeap && size > 0 {
		if buf, freeFn, err := store.AnonAlloc(8 * int64(size)); err == nil {
			c.vals = unsafe.Slice((*atomic.Uint64)(unsafe.Pointer(&buf[0])), size)
			c.freeFn = freeFn
		}
	}
	if c.vals == nil {
		c.vals = make([]atomic.Uint64, size)
	}
	c.acc[0].slots = plainWords(c.vals[numLocal:])
	c.vals, c.view = c.vals[:numLocal], c.vals[:numLocal]
	return c
}

// recycle readies a dropped heap column for another property of its load:
// every word, owned and tail, zeroed, and no accumulator bottomed for any job.
func (c *column) recycle(kind PropKind) {
	clear(plainWords(c.vals[:cap(c.vals)]))
	c.kind, c.view, c.owned, c.single = kind, c.vals, false, false
	for w := range c.acc {
		c.acc[w].job = 0
	}
}

// release returns an off-heap column's pages to the kernel. Nil-safe and
// idempotent; heap-backed columns are left to the GC. The column must not be
// accessed afterwards.
func (c *column) release() {
	if c == nil || c.freeFn == nil {
		return
	}
	f := c.freeFn
	c.freeFn = nil
	c.vals, c.view = nil, nil
	f() //nolint:errcheck
}

// --- raw word access -------------------------------------------------------

func (c *column) load(i int) uint64 { return c.vals[i].Load() }

// getF64/getI64 interpret slot i.
func (c *column) getF64(i int) float64 { return math.Float64frombits(c.vals[i].Load()) }
func (c *column) getI64(i int) int64   { return int64(c.vals[i].Load()) }

func (c *column) setF64(i int, v float64) { c.vals[i].Store(math.Float64bits(v)) }
func (c *column) setI64(i int, v int64)   { c.vals[i].Store(uint64(v)) }

// plainWord is the word behind an atomic one (atomic.Uint64 is that word
// alone), for the goroutine that owns it this job.
func plainWord(s *atomic.Uint64) *uint64 { return (*uint64)(unsafe.Pointer(s)) }

// plainWords is plainWord over a slice: for a bulk copy no goroutine races.
func plainWords(s []atomic.Uint64) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(s))), len(s))
}

// put is an own-node store (Ctx.SetF64/SetI64): plain when the column is owned.
func (c *column) put(i int, w uint64) {
	if c.owned {
		*plainWord(&c.vals[i]) = w
		return
	}
	c.vals[i].Store(w)
}

// bottomWord returns op's identity element encoded for this column's kind.
func (c *column) bottomWord(op reduce.Op) uint64 {
	switch c.kind {
	case KindF64:
		return math.Float64bits(reduce.BottomF64(op))
	default:
		return uint64(reduce.BottomI64(op))
	}
}

// mergeWords reduces b into a and returns the result, using kind arithmetic:
// the reduction of the operators the write path has no loop of their own for
// (write.go's opAny).
func (c *column) mergeWords(op reduce.Op, a, b uint64) uint64 {
	switch c.kind {
	case KindF64:
		return math.Float64bits(reduce.ApplyF64(op, math.Float64frombits(a), math.Float64frombits(b)))
	default:
		return uint64(reduce.ApplyI64(op, int64(a), int64(b)))
	}
}

// ensureAcc readies worker w's accumulator for job over a remote set of size
// slots: one word per slot, each op's identity. Worker 0 bottoms the column's
// tail (newColumn).
func (c *column) ensureAcc(w int, op reduce.Op, job uint64, size int) {
	a := &c.acc[w]
	a.job = job
	if cap(a.slots) < size {
		a.slots = make([]uint64, size)
	}
	a.slots = a.slots[:size]
	bottom := c.bottomWord(op)
	for i := range a.slots {
		a.slots[i] = bottom
	}
}
