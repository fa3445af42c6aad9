// Package gas implements the paper's "GL" comparator: a synchronous
// Gather-Apply-Scatter engine in the style of distributed GraphLab (Low et
// al., VLDB'12), the system PGX.D is benchmarked against in §5.
//
// The engine is an honest simplified GraphLab: vertex-balanced partitioning,
// mirror tables synchronized at superstep boundaries (with dirty tracking),
// per-edge vid→lvid hash lookups during gather, per-vertex program dispatch
// through an interface, byte-level (de)marshalling of mirror updates and
// signals, and node-range (not edge-balanced) intra-machine parallelism.
// These are exactly the overhead classes the paper attributes to
// conventional frameworks — per-vertex scheduling, message (de)marshalling,
// and push-only/mirror-based data movement — without any deliberate
// pessimization.
package gas

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/partition"
)

// Direction selects which edges a phase touches.
type Direction uint8

const (
	// None touches no edges.
	None Direction = iota
	// In touches incoming edges.
	In
	// Out touches outgoing edges.
	Out
	// Both touches both orientations.
	Both
)

// Program is one vertex program. Vertex data is a single float64 (integer
// algorithms store bit-converted values), matching the scalar state of every
// algorithm the paper ran on GraphLab.
type Program interface {
	// GatherDir selects the edges gathered over.
	GatherDir() Direction
	// InitAcc returns the gather accumulator's identity.
	InitAcc() float64
	// Gather returns one edge's contribution given the neighbor's data and
	// the edge weight.
	Gather(nbrData, weight float64) float64
	// Combine merges two accumulator values.
	Combine(a, b float64) float64
	// Apply consumes the gathered accumulator and returns the new vertex
	// data plus whether to signal neighbors.
	Apply(old, acc float64) (newData float64, signal bool)
	// ScatterDir selects which neighbors are signaled when Apply says so.
	ScatterDir() Direction
}

// VertexApplier is an optional Program extension for programs whose apply
// needs the vertex identity (GraphLab's apply receives the vertex handle);
// when implemented, ApplyAt replaces Apply.
type VertexApplier interface {
	ApplyAt(v graph.NodeID, old, acc float64) (newData float64, signal bool)
}

// Stats reports one Run.
type Stats struct {
	Supersteps int
	Duration   time.Duration
	// BytesSent counts marshalled mirror-update and signal bytes.
	BytesSent int64
}

// Engine is a booted GAS cluster over one graph.
type Engine struct {
	p       int
	threads int
	layout  partition.Layout
	g       *graph.Graph
	ms      []*machine
}

// machine is one simulated GAS process.
type machine struct {
	id     int
	lo, hi graph.NodeID
	n      int
	data   []uint64 // vertex data bits, stable during a superstep (snapshot reads)
	outDeg []int32
	active []bool
	// nxtActive uses int32 cells set atomically: local signals land here
	// concurrently from many gather threads.
	nxtActive []int32
	dirty     []bool

	// mirror table: remote vid → mirror index, GraphLab's lvid lookup.
	mirrorIdx  map[graph.NodeID]int32
	mirrorData []uint64

	// subsOut[d] lists local offsets whose data machine d needs because a
	// local out-edge points into d; subsIn likewise for in-edges.
	subsOut [][]uint32
	subsIn  [][]uint32

	// outboxes for the current phase, indexed by destination machine.
	outbox [][]byte
}

// New partitions g over p machines with threads-per-machine parallel apply.
func New(g *graph.Graph, p, threads int) (*Engine, error) {
	if p < 1 || threads < 1 {
		return nil, fmt.Errorf("gas: p=%d threads=%d must be >= 1", p, threads)
	}
	layout, err := partition.Compute(g, p, partition.VertexBalanced)
	if err != nil {
		return nil, err
	}
	e := &Engine{p: p, threads: threads, layout: layout, g: g, ms: make([]*machine, p)}
	for i := 0; i < p; i++ {
		e.ms[i] = e.buildMachine(i)
	}
	return e, nil
}

func (e *Engine) buildMachine(id int) *machine {
	lo, hi := e.layout.Range(id)
	n := int(hi - lo)
	m := &machine{
		id: id, lo: lo, hi: hi, n: n,
		data:      make([]uint64, n),
		outDeg:    make([]int32, n),
		active:    make([]bool, n),
		nxtActive: make([]int32, n),
		dirty:     make([]bool, n),
		mirrorIdx: make(map[graph.NodeID]int32),
		subsOut:   make([][]uint32, e.p),
		subsIn:    make([][]uint32, e.p),
		outbox:    make([][]byte, e.p),
	}
	subOutSeen := make([]map[uint32]bool, e.p)
	subInSeen := make([]map[uint32]bool, e.p)
	for d := 0; d < e.p; d++ {
		subOutSeen[d] = make(map[uint32]bool)
		subInSeen[d] = make(map[uint32]bool)
	}
	addMirror := func(v graph.NodeID) {
		if v >= lo && v < hi {
			return
		}
		if _, ok := m.mirrorIdx[v]; !ok {
			m.mirrorIdx[v] = int32(len(m.mirrorData))
			m.mirrorData = append(m.mirrorData, 0)
		}
	}
	for u := lo; u < hi; u++ {
		off := uint32(u - lo)
		m.outDeg[off] = int32(e.g.OutDegree(u))
		for _, v := range e.g.Out.Neighbors(u) {
			addMirror(v)
			d := e.layout.Owner(v)
			if d != id && !subOutSeen[d][off] {
				subOutSeen[d][off] = true
				m.subsOut[d] = append(m.subsOut[d], off)
			}
		}
		for _, v := range e.g.In.Neighbors(u) {
			addMirror(v)
			d := e.layout.Owner(v)
			if d != id && !subInSeen[d][off] {
				subInSeen[d][off] = true
				m.subsIn[d] = append(m.subsIn[d], off)
			}
		}
	}
	return m
}

// NumMachines returns the cluster size.
func (e *Engine) NumMachines() int { return e.p }

// SetData initializes every vertex's data from fn(global id).
func (e *Engine) SetData(fn func(v graph.NodeID) float64) {
	for _, m := range e.ms {
		for off := 0; off < m.n; off++ {
			m.data[off] = math.Float64bits(fn(m.lo + graph.NodeID(off)))
			m.dirty[off] = true // force initial mirror sync
		}
	}
}

// ActivateAll marks every vertex active for the first superstep.
func (e *Engine) ActivateAll() {
	for _, m := range e.ms {
		for i := range m.active {
			m.active[i] = true
		}
	}
}

// Activate marks one vertex active.
func (e *Engine) Activate(v graph.NodeID) {
	o := e.layout.Owner(v)
	e.ms[o].active[v-e.ms[o].lo] = true
}

// Data gathers the full vertex-data array.
func (e *Engine) Data() []float64 {
	out := make([]float64, e.g.NumNodes())
	for _, m := range e.ms {
		for off := 0; off < m.n; off++ {
			out[int(m.lo)+off] = math.Float64frombits(m.data[off])
		}
	}
	return out
}

// parallel fans fn out over the machines (one goroutine each), the engine's
// simulation of separate processes.
func (e *Engine) parallel(fn func(m *machine)) {
	var wg sync.WaitGroup
	for _, m := range e.ms {
		wg.Add(1)
		go func(m *machine) {
			defer wg.Done()
			fn(m)
		}(m)
	}
	wg.Wait()
}

// Run executes supersteps of prog until no vertex is active or maxSteps is
// reached. Vertices must have been activated beforehand.
func (e *Engine) Run(prog Program, maxSteps int) Stats {
	var st Stats
	start := time.Now()
	var bytesSent atomic.Int64
	for step := 0; step < maxSteps; step++ {
		// Phase 1: mirror sync — marshal dirty subscribed vertex data as
		// (vid, bits) pairs per destination.
		e.parallel(func(m *machine) {
			gatherDir := prog.GatherDir()
			for d := 0; d < e.p; d++ {
				if d == m.id {
					continue
				}
				var buf []byte
				appendEntry := func(off uint32) {
					if !m.dirty[off] {
						return
					}
					var rec [12]byte
					binary.LittleEndian.PutUint32(rec[0:4], uint32(m.lo)+off)
					binary.LittleEndian.PutUint64(rec[4:12], m.data[off])
					buf = append(buf, rec[:]...)
				}
				// A vertex gathered over in-edges needs its in-neighbors'
				// data: ship along out-subscriptions, and vice versa.
				if gatherDir == In || gatherDir == Both {
					for _, off := range m.subsOut[d] {
						appendEntry(off)
					}
				}
				if gatherDir == Out || gatherDir == Both {
					for _, off := range m.subsIn[d] {
						appendEntry(off)
					}
				}
				m.outbox[d] = buf
				bytesSent.Add(int64(len(buf)))
			}
		})
		// Phase 2: deliver mirror updates (demarshal with vid→lvid lookups).
		e.parallel(func(m *machine) {
			for s := 0; s < e.p; s++ {
				if s == m.id {
					continue
				}
				buf := e.ms[s].outbox[m.id]
				for i := 0; i+12 <= len(buf); i += 12 {
					vid := graph.NodeID(binary.LittleEndian.Uint32(buf[i : i+4]))
					bits := binary.LittleEndian.Uint64(buf[i+4 : i+12])
					if idx, ok := m.mirrorIdx[vid]; ok {
						m.mirrorData[idx] = bits
					}
				}
			}
		})
		// Phase 3: gather + apply over active vertices, node-range threading.
		var anyActive atomic.Int64
		e.parallel(func(m *machine) {
			for i := range m.dirty {
				m.dirty[i] = false
			}
			m.gatherApply(e, prog, &bytesSent)
		})
		// Phase 4: deliver signals and roll activity forward.
		e.parallel(func(m *machine) {
			for s := 0; s < e.p; s++ {
				if s == m.id {
					continue
				}
				buf := e.ms[s].outbox[m.id]
				for i := 0; i+4 <= len(buf); i += 4 {
					vid := graph.NodeID(binary.LittleEndian.Uint32(buf[i : i+4]))
					m.nxtActive[vid-m.lo] = 1
				}
			}
		})
		e.parallel(func(m *machine) {
			found := false
			for i := range m.nxtActive {
				m.active[i] = m.nxtActive[i] != 0
				m.nxtActive[i] = 0
				found = found || m.active[i]
			}
			if found {
				anyActive.Add(1)
			}
		})
		st.Supersteps++
		if anyActive.Load() == 0 {
			break
		}
	}
	st.Duration = time.Since(start)
	st.BytesSent = bytesSent.Load()
	return st
}

// gatherApply runs the gather and apply phases for m's active vertices and
// marshals outgoing signals into m.outbox.
func (m *machine) gatherApply(e *Engine, prog Program, bytesSent *atomic.Int64) {
	gatherDir := prog.GatherDir()
	scatterDir := prog.ScatterDir()
	applier, hasApplier := prog.(VertexApplier)
	threads := e.threads
	if threads > m.n {
		threads = m.n
	}
	if threads < 1 {
		threads = 1
	}
	// Per-thread signal lists per destination plus data change-lists: the
	// sync engine's gather reads the superstep-start snapshot, so applies
	// are staged and committed after all threads join.
	type change struct {
		off  uint32
		bits uint64
	}
	type signals struct {
		perDest [][]uint32
		changes []change
	}
	perThread := make([]signals, threads)
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			sig := &perThread[t]
			sig.perDest = make([][]uint32, e.p)
			lo := t * m.n / threads
			hi := (t + 1) * m.n / threads
			readNbr := func(v graph.NodeID) float64 {
				if v >= m.lo && v < m.hi {
					return math.Float64frombits(m.data[v-m.lo])
				}
				return math.Float64frombits(m.mirrorData[m.mirrorIdx[v]])
			}
			signalNbr := func(v graph.NodeID) {
				if v >= m.lo && v < m.hi {
					atomic.StoreInt32(&m.nxtActive[v-m.lo], 1)
					return
				}
				d := e.layout.Owner(v)
				sig.perDest[d] = append(sig.perDest[d], uint32(v))
			}
			for off := lo; off < hi; off++ {
				if !m.active[off] {
					continue
				}
				u := m.lo + graph.NodeID(off)
				acc := prog.InitAcc()
				if gatherDir == In || gatherDir == Both {
					nbrs := e.g.In.Neighbors(u)
					ws := e.g.In.EdgeWeights(u)
					for i, v := range nbrs {
						w := 0.0
						if ws != nil {
							w = ws[i]
						}
						acc = prog.Combine(acc, prog.Gather(readNbr(v), w))
					}
				}
				if gatherDir == Out || gatherDir == Both {
					nbrs := e.g.Out.Neighbors(u)
					ws := e.g.Out.EdgeWeights(u)
					for i, v := range nbrs {
						w := 0.0
						if ws != nil {
							w = ws[i]
						}
						acc = prog.Combine(acc, prog.Gather(readNbr(v), w))
					}
				}
				old := math.Float64frombits(m.data[off])
				var nd float64
				var signal bool
				if hasApplier {
					nd, signal = applier.ApplyAt(u, old, acc)
				} else {
					nd, signal = prog.Apply(old, acc)
				}
				if nd != old {
					sig.changes = append(sig.changes, change{off: uint32(off), bits: math.Float64bits(nd)})
				}
				if signal {
					if scatterDir == Out || scatterDir == Both {
						for _, v := range e.g.Out.Neighbors(u) {
							signalNbr(v)
						}
					}
					if scatterDir == In || scatterDir == Both {
						for _, v := range e.g.In.Neighbors(u) {
							signalNbr(v)
						}
					}
				}
			}
		}(t)
	}
	wg.Wait()
	// Commit staged applies.
	for t := range perThread {
		for _, ch := range perThread[t].changes {
			m.data[ch.off] = ch.bits
			m.dirty[ch.off] = true
		}
	}
	// Marshal merged signal lists per destination.
	for d := 0; d < e.p; d++ {
		if d == m.id {
			m.outbox[d] = nil
			continue
		}
		var buf []byte
		for t := range perThread {
			for _, vid := range perThread[t].perDest[d] {
				var rec [4]byte
				binary.LittleEndian.PutUint32(rec[:], vid)
				buf = append(buf, rec[:]...)
			}
		}
		m.outbox[d] = buf
		bytesSent.Add(int64(len(buf)))
	}
}
