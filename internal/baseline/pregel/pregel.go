// Package pregel implements the paper's "GX" comparator: a Pregel-style
// bulk-synchronous message-passing engine in the spirit of GraphX's Pregel
// operator (Gonzalez et al., OSDI'14). Vertices compute on received
// messages and emit messages along out-edges; everything is materialized —
// message records are built per edge, marshalled to bytes per destination
// machine, demarshalled, merged through a hash map, and regrouped per vertex
// every superstep. This allocation- and hashing-heavy dataflow is the
// overhead class that makes GraphX the slowest system in the paper's
// Table 3; no deliberate pessimization is added beyond the model itself.
package pregel

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

// Program is one Pregel vertex program over scalar float64 state and
// messages (integers are bit-encoded, as in the gas package).
type Program interface {
	// Compute runs on every vertex that is active or received a message.
	// msg is the combined incoming message (hasMsg reports presence).
	Compute(ctx *Ctx, msg float64, hasMsg bool)
	// Combine merges two messages addressed to the same vertex, the analogue
	// of GraphX's mergeMsg.
	Combine(a, b float64) float64
}

// Ctx is the per-vertex compute context.
type Ctx struct {
	m   *machine
	e   *Engine
	vid graph.NodeID
	off uint32
	// sends accumulates outgoing message records for this machine-thread.
	sink *msgSink
}

// Vertex returns the vertex id being computed.
func (c *Ctx) Vertex() graph.NodeID { return c.vid }

// Data returns the vertex's current value.
func (c *Ctx) Data() float64 { return math.Float64frombits(c.m.data[c.off]) }

// SetData updates the vertex's value.
func (c *Ctx) SetData(v float64) { c.m.data[c.off] = math.Float64bits(v) }

// OutDegree returns the vertex's out-degree.
func (c *Ctx) OutDegree() int64 { return c.e.g.OutDegree(c.vid) }

// Superstep returns the global superstep number, persistent across Run
// calls (driver-stepped algorithms rely on it to identify the seed round).
func (c *Ctx) Superstep() int { return c.e.step }

// SendToOutNbrs sends msg along every out-edge. fn, when non-nil, maps the
// edge weight to the message (for SSSP-style relaxation); otherwise msg is
// sent as-is.
func (c *Ctx) SendToOutNbrs(msg float64, fn func(w float64) float64) {
	nbrs := c.e.g.Out.Neighbors(c.vid)
	ws := c.e.g.Out.EdgeWeights(c.vid)
	for i, v := range nbrs {
		out := msg
		if fn != nil {
			w := 0.0
			if ws != nil {
				w = ws[i]
			}
			out = fn(w)
		}
		c.sink.add(c.e, v, out)
	}
}

// SendToInNbrs sends msg along every in-edge (for undirected algorithms).
func (c *Ctx) SendToInNbrs(msg float64) {
	for _, v := range c.e.g.In.Neighbors(c.vid) {
		c.sink.add(c.e, v, msg)
	}
}

// msgSink buffers outgoing messages per destination machine as raw records.
type msgSink struct {
	prog    Program
	perDest [][]byte
}

func (s *msgSink) add(e *Engine, v graph.NodeID, msg float64) {
	d := e.layout.Owner(v)
	var rec [12]byte
	binary.LittleEndian.PutUint32(rec[0:4], uint32(v))
	binary.LittleEndian.PutUint64(rec[4:12], math.Float64bits(msg))
	s.perDest[d] = append(s.perDest[d], rec[:]...)
}

// Stats reports one Run.
type Stats struct {
	Supersteps int
	Duration   time.Duration
	BytesSent  int64
	Messages   int64
}

// Engine is a booted Pregel cluster over one graph.
type Engine struct {
	p       int
	threads int
	layout  partition.Layout
	g       *graph.Graph
	ms      []*machine
	// step is the global superstep counter, persistent across Run calls so
	// driver-stepped programs (exact PageRank) can tell the seed round from
	// compute rounds.
	step int
}

type machine struct {
	id     int
	lo, hi graph.NodeID
	n      int
	data   []uint64
	active []bool
	// inbox: combined message per local vertex for the next superstep,
	// built by merging records through a hash map (the GraphX shuffle).
	inboxVal []float64
	inboxHas []bool
	outbox   [][][]byte // per source thread, per destination machine
}

// New partitions g over p machines, threads compute goroutines each.
func New(g *graph.Graph, p, threads int) (*Engine, error) {
	if p < 1 || threads < 1 {
		return nil, fmt.Errorf("pregel: p=%d threads=%d must be >= 1", p, threads)
	}
	layout, err := partition.Compute(g, p, partition.VertexBalanced)
	if err != nil {
		return nil, err
	}
	e := &Engine{p: p, threads: threads, layout: layout, g: g, ms: make([]*machine, p)}
	for i := 0; i < p; i++ {
		lo, hi := layout.Range(i)
		n := int(hi - lo)
		e.ms[i] = &machine{
			id: i, lo: lo, hi: hi, n: n,
			data:     make([]uint64, n),
			active:   make([]bool, n),
			inboxVal: make([]float64, n),
			inboxHas: make([]bool, n),
		}
	}
	return e, nil
}

// SetData initializes vertex values from fn.
func (e *Engine) SetData(fn func(v graph.NodeID) float64) {
	for _, m := range e.ms {
		for off := 0; off < m.n; off++ {
			m.data[off] = math.Float64bits(fn(m.lo + graph.NodeID(off)))
		}
	}
}

// ActivateAll marks every vertex for the first superstep.
func (e *Engine) ActivateAll() {
	for _, m := range e.ms {
		for i := range m.active {
			m.active[i] = true
		}
	}
}

// Activate marks one vertex for the first superstep.
func (e *Engine) Activate(v graph.NodeID) {
	o := e.layout.Owner(v)
	e.ms[o].active[v-e.ms[o].lo] = true
}

// Data gathers the full vertex-value array.
func (e *Engine) Data() []float64 {
	out := make([]float64, e.g.NumNodes())
	for _, m := range e.ms {
		for off := 0; off < m.n; off++ {
			out[int(m.lo)+off] = math.Float64frombits(m.data[off])
		}
	}
	return out
}

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

// Run executes supersteps until no vertex computes or maxSteps is reached.
func (e *Engine) Run(prog Program, maxSteps int) Stats {
	var st Stats
	var bytesSent, messages atomic.Int64
	start := time.Now()
	for step := 0; step < maxSteps; step++ {
		var computed atomic.Int64
		// Compute phase: vertices that are active (step 0 seeds) or have a
		// message run Compute, emitting marshalled message records.
		e.parallel(func(m *machine) {
			threads := e.threads
			if threads > m.n {
				threads = m.n
			}
			if threads < 1 {
				threads = 1
			}
			m.outbox = make([][][]byte, threads)
			var wg sync.WaitGroup
			for t := 0; t < threads; t++ {
				wg.Add(1)
				go func(t int) {
					defer wg.Done()
					sink := &msgSink{prog: prog, perDest: make([][]byte, e.p)}
					ctx := &Ctx{m: m, e: e, sink: sink}
					lo := t * m.n / threads
					hi := (t + 1) * m.n / threads
					local := int64(0)
					for off := lo; off < hi; off++ {
						if !m.active[off] && !m.inboxHas[off] {
							continue
						}
						ctx.off = uint32(off)
						ctx.vid = m.lo + graph.NodeID(off)
						prog.Compute(ctx, m.inboxVal[off], m.inboxHas[off])
						local++
					}
					m.outbox[t] = sink.perDest
					computed.Add(local)
				}(t)
			}
			wg.Wait()
			for i := range m.active {
				m.active[i] = false
				m.inboxHas[i] = false
				m.inboxVal[i] = 0
			}
		})
		if computed.Load() == 0 {
			break
		}
		st.Supersteps++
		e.step++
		// Shuffle phase: demarshal every record addressed to this machine,
		// merging through a per-machine hash map first (GraphX's reduce-by-
		// key), then scatter into the per-vertex inbox.
		e.parallel(func(m *machine) {
			merged := make(map[uint32]float64)
			for _, src := range e.ms {
				for _, perDest := range src.outbox {
					if perDest == nil {
						continue
					}
					buf := perDest[m.id]
					bytesSent.Add(int64(len(buf)))
					for i := 0; i+12 <= len(buf); i += 12 {
						vid := binary.LittleEndian.Uint32(buf[i : i+4])
						val := math.Float64frombits(binary.LittleEndian.Uint64(buf[i+4 : i+12]))
						messages.Add(1)
						if old, ok := merged[vid]; ok {
							merged[vid] = prog.Combine(old, val)
						} else {
							merged[vid] = val
						}
					}
				}
			}
			for vid, val := range merged {
				off := graph.NodeID(vid) - m.lo
				m.inboxVal[off] = val
				m.inboxHas[off] = true
			}
		})
	}
	st.Duration = time.Since(start)
	st.BytesSent = bytesSent.Load()
	st.Messages = messages.Load()
	return st
}
