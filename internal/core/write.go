package core

import (
	"fmt"
	"math"
	"unsafe"

	"repro/internal/reduce"
)

// The write path — the paper's write_remote<OP> — on both of its ends: a
// worker reducing a row's value into the row's neighbors and the drain
// replaying a run of records an owner was sent (Machine.applyWrites). Both resolve what
// does not depend on the target once, in a Writer, and then run one loop
// instantiated for the (operator, kind) pair, so that an edge costs its
// reduction and no dispatch.

// num is the value type of a property kind: KindI64's and KindF64's.
type num interface{ int64 | float64 }

// fromWord and toWord reinterpret a column's 8-byte word as the kind's value
// and back (a register move, like math.Float64frombits).
func fromWord[T num](w uint64) T { return *(*T)(unsafe.Pointer(&w)) }
func toWord[T num](v T) uint64   { return *(*uint64)(unsafe.Pointer(&v)) }

// An operator as a type argument. Go has no constant type parameters, so the
// operator rides in an array length: every length is a shape of its own, the
// compiler instantiates writeRow per (operator, kind) pair and folds the
// comparisons of len(o) away in each — the paper's template argument. opAny is
// every operator but SUM, MIN and MAX: its instances compute a reduction
// through column.mergeWords, by the handle's operator.
type (
	opAny [0]struct{}
	opSum [1 + reduce.Sum]struct{}
	opMin [1 + reduce.Min]struct{}
	opMax [1 + reduce.Max]struct{}
)

type opType interface{ opAny | opSum | opMin | opMax }

// merge returns O(a, b) in the kind's arithmetic, for an O that is not opAny.
func merge[O opType, T num](a, b T) T {
	var o O
	switch len(o) {
	case len(opSum{}):
		return a + b
	case len(opMin{}):
		if b < a {
			return b
		}
	case len(opMax{}):
		if b > a {
			return b
		}
	}
	return a
}

// Writer is a write handle for one (property, operator) pair with everything
// that does not depend on the target resolved up front: the column, this
// worker's accumulator over the job's remote set, and where an activating
// spec's targets collect. Obtain one with Ctx.Writer; it is valid for the
// current job only. The drain's replay fills one in per run of records
// (applyWrites): only col, op, act and plain, since every target of a run is
// local.
type Writer struct {
	col   *column
	op    reduce.Op
	plain bool      // no other goroutine touches a local target's word: no CAS (column.single)
	act   *[]uint32 // local indices whose word a reduction changed (WriteSpec.ActivateInto); nil without
	w     *worker
	acc   []uint64 // this worker's accumulator slots for prop, nil when not accumulated
	prop  PropID
	job   uint64 // the job it is resolved for (ids start at 1: a zero Writer is no job's)
}

// Writer returns the write handle for reducing into property p with op. The
// worker resolves it on a job's first request and keeps it, one per property,
// so asking again — per row, or per edge through WriteRef — is two compares.
// A job reduces a property with one operator: the one it declares for p when
// it declares p, and otherwise the first a worker asks for.
func (c *Ctx) Writer(p PropID, op reduce.Op) *Writer {
	wr := &c.w.wrs[p]
	if wr.job != c.w.job.id.Load() || wr.op != op {
		c.w.resolveWriter(wr, p, op)
	}
	return wr
}

// resolveWriter makes wr the handle for (p, op) in the current job, or fails
// the job over a second operator: a declared property's accumulators were
// bottomed with the declared one and ship under it, and a handle a kernel
// still holds must not change its operator.
func (w *worker) resolveWriter(wr *Writer, p PropID, op reduce.Op) {
	jr, col := w.job, w.cols[p]
	was := op
	if wr.job == jr.id.Load() {
		was = wr.op
	}
	for _, ws := range jr.spec.WriteProps {
		if ws.Prop == p {
			was = ws.Op
		}
	}
	if was != op {
		w.fail(fmt.Errorf("core: job %q reduces property %d with %v and with %v; a job reduces a property with one operator", jr.spec.Name, p, op, was))
	}
	*wr = Writer{col: col, op: op, plain: col.single, w: w, prop: p, job: jr.id.Load()}
	if act := jr.activate; act != nil && act[p] >= 0 {
		wr.act = &jr.builds[act[p]].shards[w.id]
	}
	if a := &col.acc[w.id]; jr.accumulate && a.job == jr.id.Load() { // bottomed for this job: it accumulates p
		wr.acc = a.slots
	}
}

// WriteRow reduces the raw word into the handle's property on every node of
// refs, in order. A local target applies immediately (relaxed consistency) —
// a plain load–merge–store when the machine's one worker is the column's only
// task-phase goroutine, else a compare-and-swap loop — and,
// under an activating spec, joins this worker's build shard when its word
// changed; a replica folds into the worker's accumulator slot when the job
// accumulates (accum.go), and any other remote target is buffered into the
// per-worker request message toward its owner — which makes it a re-entrancy
// point (see RowTask). Either way it lands at the owner in the job's drain
// (spill.go): no kernel of this job sees it there.
func (wr *Writer) WriteRow(refs []int64, word uint64) { wr.reduce(refs, word, nil) }

// Write is WriteRow for the single node ref, for a word that differs per edge.
func (wr *Writer) Write(ref int64, word uint64) {
	one := [1]int64{ref}
	wr.reduce(one[:], word, nil)
}

// WriteF64 reduces v into the handle's float64 property on ref.
func (wr *Writer) WriteF64(ref int64, v float64) { wr.Write(ref, math.Float64bits(v)) }

// WriteI64 reduces v into the handle's int64 property on ref.
func (wr *Writer) WriteI64(ref int64, v int64) { wr.Write(ref, uint64(v)) }

// reduce picks the loop of the handle's (operator, kind) pair: once per row or
// run, which is all the dispatch a reduction pays.
func (wr *Writer) reduce(refs []int64, word uint64, words []uint64) {
	f64 := wr.col.kind == KindF64
	switch {
	case wr.op == reduce.Sum && f64:
		writeRow[opSum, float64](wr, refs, word, words)
	case wr.op == reduce.Sum:
		writeRow[opSum, int64](wr, refs, word, words)
	case wr.op == reduce.Min && f64:
		writeRow[opMin, float64](wr, refs, word, words)
	case wr.op == reduce.Min:
		writeRow[opMin, int64](wr, refs, word, words)
	case wr.op == reduce.Max && f64:
		writeRow[opMax, float64](wr, refs, word, words)
	case wr.op == reduce.Max:
		writeRow[opMax, int64](wr, refs, word, words)
	default:
		writeRow[opAny, int64](wr, refs, word, words)
	}
}

// writeRow is the loop: it reduces word — or, when words is not nil, words[i],
// the replay's form — into refs[i]. What it needs of the handle is loaded once,
// ahead of the first ref.
func writeRow[O opType, T num](wr *Writer, refs []int64, word uint64, words []uint64) {
	var o O
	w, acc, vals, act, plain, x := wr.w, wr.acc, wr.col.vals, wr.act, wr.plain, fromWord[T](word)
	n := int64(len(vals)) // numLocal: ref - n is a replica's slot
	for i, ref := range refs {
		if words != nil {
			word = words[i]
			x = fromWord[T](word)
		}
		if uint64(ref) < uint64(n) {
			// The local reduction is a load–merge–store. When the handle is plain
			// the word is this goroutine's alone and so is the store; otherwise
			// the machine's workers reduce into one column concurrently and the
			// store is a compare-and-swap. A lost CAS retries, so a word counts as
			// unchanged — not activating — only when the reduction was a no-op
			// against the value that won.
			for s := &vals[ref]; ; {
				old, next := s.Load(), uint64(0)
				if len(o) == len(opAny{}) {
					next = wr.col.mergeWords(wr.op, old, word)
				} else {
					next = toWord(merge[O](fromWord[T](old), x))
				}
				if next == old {
					break
				}
				if plain {
					*plainWord(s) = next
				} else if !s.CompareAndSwap(old, next) {
					continue
				}
				if act != nil {
					*act = append(*act, uint32(ref))
				}
				break
			}
			continue
		}
		if acc != nil && ref >= 0 { // a replica
			if s := &acc[ref-n]; len(o) == len(opAny{}) {
				*s = wr.col.mergeWords(wr.op, *s, word)
			} else {
				*s = toWord(merge[O](fromWord[T](*s), x))
			}
			w.folded++
			continue
		}
		mach, off := w.m.store.owner(ref)
		w.bufferWrite(mach, wr.prop, wr.op, off, word)
	}
}
