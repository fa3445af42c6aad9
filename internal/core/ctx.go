package core

import (
	"math"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/reduce"
)

// Ctx is the execution context handed to Task callbacks. One Ctx exists per
// worker and is reused across invocations; a task must never retain it.
//
// Node is the local node index throughout. In RunRow the kernel walks the row
// itself (typed views, a Writer, ReadRef for remote refs). In a per-edge Run
// the neighbor accessors target the current edge's other endpoint and
// EdgeWeight is the current edge's weight. During ReadDone/RMIDone, only
// Node, Aux, and the local property accessors are valid — continuations that
// need the neighbor must stash its ref in Aux before reading, mirroring the
// paper's rule that continuation state lives in the task object's explicit
// fields.
type Ctx struct {
	w *worker

	// Node is the current local node index.
	Node uint32
	// Aux is task-defined continuation state, preserved across the
	// Run/RunRow → ReadDone boundary for the request that carried it. The
	// engine resets it to zero once per node; kernels that use it must set it
	// before issuing the read it describes.
	Aux uint64

	// The per-edge cursor of a Task.Run kernel: current neighbor ref, its
	// index in the row, the row's weights, and the SkipNode flag. Written
	// only by the perEdge adapter (and SkipNode); they live in Ctx so the
	// wholesale save/restore at re-entrancy points (drainResponsesSafe,
	// acquireReq) protects them from interleaved continuations.
	nbr     int64
	edge    int
	weights []float64
	skip    bool
}

// F64Word converts a raw 8-byte value (as delivered to ReadDone) to float64.
func F64Word(v uint64) float64 { return math.Float64frombits(v) }

// I64Word converts a raw 8-byte value to int64.
func I64Word(v uint64) int64 { return int64(v) }

// WordF64 converts a float64 to the raw 8-byte wire form.
func WordF64(v float64) uint64 { return math.Float64bits(v) }

// WordI64 converts an int64 to the raw 8-byte wire form.
func WordI64(v int64) uint64 { return uint64(v) }

// Machine returns the executing machine's id.
func (c *Ctx) Machine() int { return c.w.m.id }

// NumMachines returns the cluster size.
func (c *Ctx) NumMachines() int { return c.w.m.cfg.NumMachines }

// NodeGlobal returns the current node's global id.
func (c *Ctx) NodeGlobal() graph.NodeID {
	return c.w.m.store.globalOf(c.Node)
}

// OutDegree returns the current node's full out-degree.
func (c *Ctx) OutDegree() int64 {
	return int64(c.w.m.store.outDeg[c.Node])
}

// InDegree returns the current node's full in-degree.
func (c *Ctx) InDegree() int64 {
	return int64(c.w.m.store.inDeg[c.Node])
}

// NbrRef returns the current edge's neighbor reference. Valid only in a
// per-edge Run. The ref stays valid for the lifetime of the loaded graph and
// may be stored (e.g. in Aux) and used later with ReadRef/WriteRef.
func (c *Ctx) NbrRef() int64 { return c.nbr }

// NbrIsRemote reports whether the current neighbor lives on another machine.
func (c *Ctx) NbrIsRemote() bool { return !c.w.m.store.owns(c.nbr) }

// RefGlobal resolves any node ref — local, replica or packed — back to its
// global node id.
func (c *Ctx) RefGlobal(ref int64) graph.NodeID {
	st := c.w.m.store
	if st.owns(ref) {
		return st.globalOf(uint32(ref))
	}
	mach, off := st.owner(ref)
	return st.layout.GlobalOf(mach, off)
}

// SplitRemoteRef returns the owner machine and its local offset of a ref that
// names another machine's node (NbrIsRemote true) — the hook kernels use to
// address RMI calls at a neighbor's owner ("moving computation instead of
// data").
func (c *Ctx) SplitRemoteRef(ref int64) (machine int, offset uint32) { return c.w.m.store.owner(ref) }

// EdgeWeight returns the current edge's weight (0 for unweighted graphs).
// Valid only in a per-edge Run.
func (c *Ctx) EdgeWeight() float64 {
	if c.weights == nil {
		return 0
	}
	return c.weights[c.edge]
}

// --- local property access (own node) --------------------------------------

// GetF64 reads property p of the current node.
func (c *Ctx) GetF64(p PropID) float64 {
	return c.w.cols[p].getF64(int(c.Node))
}

// SetF64 writes property p of the current node. All callbacks for one node
// run on one worker, so an own-node update needs no reduction (the pull
// pattern's advantage), and the store is a plain one whenever no other
// goroutine can touch the word during the job: p is not among the job's
// ReadProps, and either the machine has one worker or the job does not reduce
// into p (WriteProps). Otherwise it is an atomic exchange.
func (c *Ctx) SetF64(p PropID, v float64) {
	c.w.cols[p].put(int(c.Node), math.Float64bits(v))
}

// GetI64 reads integer property p of the current node.
func (c *Ctx) GetI64(p PropID) int64 {
	return c.w.cols[p].getI64(int(c.Node))
}

// SetI64 writes integer property p of the current node; see SetF64.
func (c *Ctx) SetI64(p PropID, v int64) {
	c.w.cols[p].put(int(c.Node), uint64(v))
}

// --- neighbor access --------------------------------------------------------

// NbrWriteF64 reduces v into property p of the current neighbor with op —
// the paper's write_remote<OP>. A local target applies immediately (relaxed
// consistency); a remote one folds into the worker's accumulator or is
// buffered into the per-worker request message toward the owner, and is
// visible there from the job's drain on (Writer.WriteRow).
func (c *Ctx) NbrWriteF64(p PropID, op reduce.Op, v float64) {
	c.WriteRef(c.nbr, p, op, math.Float64bits(v))
}

// NbrWriteI64 reduces v into integer property p of the current neighbor.
func (c *Ctx) NbrWriteI64(p PropID, op reduce.Op, v int64) {
	c.WriteRef(c.nbr, p, op, uint64(v))
}

// NbrRead requests property p of the current neighbor — the paper's
// read_remote. If the neighbor is local or mirrored (mirror.go), ReadDone is
// invoked synchronously before NbrRead returns; otherwise the request is
// buffered and ReadDone runs later on this same worker with Node and Aux
// restored.
func (c *Ctx) NbrRead(p PropID) {
	c.ReadRef(c.nbr, p)
}

// WriteRef reduces the raw word into property p of the node identified by
// ref: Writer.Write on the worker's handle for p — the per-edge form of
// Writer.WriteRow.
func (c *Ctx) WriteRef(ref int64, p PropID, op reduce.Op, word uint64) {
	c.Writer(p, op).Write(ref, word)
}

// F64View is a typed read view over one float64 property, valid for the
// current job. It holds every node this machine owns and, in a job that
// mirrors the property (JobSpec.ReadProps), every replica the job's rows
// reference: At answers both with one indexed load behind one unsigned bound
// check, and reports false for any other ref, which the kernel then hands to
// Ctx.ReadRef. In a mirrored job the view reads the words as of the job's
// prefetch, owned and replicated alike — §3.3's rule for a ghost; elsewhere it
// reads the live word, which under the engine's relaxed consistency is the
// value ReadDone would have been handed.
type F64View struct{ vals []atomic.Uint64 }

// At returns the property value of node ref, and whether the view holds it.
func (v F64View) At(ref int64) (float64, bool) {
	if uint64(ref) < uint64(len(v.vals)) {
		return math.Float64frombits(v.vals[ref].Load()), true
	}
	return 0, false
}

// I64View is F64View for an int64 property.
type I64View struct{ vals []atomic.Uint64 }

// At returns the property value of node ref, and whether the view holds it.
func (v I64View) At(ref int64) (int64, bool) {
	if uint64(ref) < uint64(len(v.vals)) {
		return int64(v.vals[ref].Load()), true
	}
	return 0, false
}

// F64 returns the read view of float64 property p.
func (c *Ctx) F64(p PropID) F64View { return F64View{c.w.cols[p].view} }

// I64 returns the read view of int64 property p.
func (c *Ctx) I64(p PropID) I64View { return I64View{c.w.cols[p].view} }

// ReadRef requests property p of the node identified by ref; see NbrRead. A
// ref p's view holds is answered from it at once; any other goes to its owner
// — a replica through the remote set's address — whose copier refuses a
// property the job does not declare.
func (c *Ctx) ReadRef(ref int64, p PropID) {
	w := c.w
	if v := w.cols[p].view; uint64(ref) < uint64(len(v)) {
		w.job.spec.Task.ReadDone(c, v[ref].Load())
		return
	}
	mach, off := w.m.store.owner(ref)
	w.bufferRead(mach, p, off, c.Node, c.Aux)
}

// --- frontier interaction ---------------------------------------------------

// Activate marks the current node as a member of the job's Build[slot]
// frontier. Idempotent per node (duplicates are merged when the frontier is
// finalized); valid in Run and in continuations, where Node is restored.
func (c *Ctx) Activate(slot int) {
	b := c.w.job.builds[slot]
	b.shards[c.w.id] = append(b.shards[c.w.id], c.Node)
}

// SkipNode ends the current node's remaining per-edge Run invocations (both
// orientations under IterBothEdges) once the current Run returns. Pull
// kernels use it to stop scanning in-neighbors once the value they were
// looking for arrived — effective when neighbors are local or mirrored
// (their ReadDone runs synchronously); buffered remote reads resolve
// after the loop has moved on, so they cannot trigger an early exit. A row
// kernel just returns instead; no-op there and on node iterators.
func (c *Ctx) SkipNode() { c.skip = true }

// CallRMI invokes registered method id on machine dst with the given
// payload. The response is delivered to the task's RMIDone on this worker,
// with Node and Aux restored. The payload is copied into the request
// message; it must fit one message buffer.
func (c *Ctx) CallRMI(dst int, method uint32, payload []byte) {
	c.w.bufferRMI(dst, method, payload, c.Node, c.Aux)
}
