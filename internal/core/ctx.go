package core

import (
	"math"
	"sync/atomic"

	"repro/internal/graph"
)

// Ctx is the execution context handed to Task callbacks. One Ctx exists per
// worker and is reused across invocations; a task must never retain it.
//
// Node is the local node index throughout: the node a NodeTask's cursor is at,
// or the node whose row a RowTask walks (with typed views, a Writer, ReadRef
// for remote refs). During ReadDone/RMIDone, only Node, Aux, and the local
// property accessors are valid — continuations that need the neighbor must
// stash its ref in Aux before reading, mirroring the paper's rule that
// continuation state lives in the task object's explicit fields.
type Ctx struct {
	w *worker

	// Node is the current local node index.
	Node uint32
	// Aux is task-defined continuation state, preserved across the
	// RunNodes/RunRows → ReadDone boundary for the request that carried it.
	// Cursor.Next resets it to zero once per node; kernels that use it must
	// set it before issuing the read it describes.
	Aux uint64
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

// IsRemote reports whether ref names a node another machine owns (a replica
// or a packed remote ref).
func (c *Ctx) IsRemote(ref int64) bool { return !c.w.m.store.owns(ref) }

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
// names another machine's node (IsRemote true) — the hook kernels use to
// address RMI calls at a neighbor's owner ("moving computation instead of
// data").
func (c *Ctx) SplitRemoteRef(ref int64) (machine int, offset uint32) { return c.w.m.store.owner(ref) }

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

// ReadRef requests property p of the node identified by ref — the paper's
// read_remote. A ref p's view holds (a local or mirrored node: mirror.go) is
// answered at once, ReadDone running before ReadRef returns; any other goes to
// its owner — a replica through the remote set's address — whose copier
// refuses a property the job does not declare, and ReadDone runs later on
// this same worker with Node and Aux restored.
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
// finalized); valid in RunNodes, RunRows and continuations, where Node is restored.
func (c *Ctx) Activate(slot int) {
	b := c.w.job.builds[slot]
	b.shards[c.w.id] = append(b.shards[c.w.id], c.Node)
}

// CallRMI invokes registered method id on machine dst with the given
// payload. The response is delivered to the task's RMIDone on this worker,
// with Node and Aux restored. The payload is copied into the request
// message; it must fit one message buffer.
func (c *Ctx) CallRMI(dst int, method uint32, payload []byte) {
	c.w.bufferRMI(dst, method, payload, c.Node, c.Aux)
}
