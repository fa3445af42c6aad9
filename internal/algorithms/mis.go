package algorithms

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/reduce"
)

// Maximal independent set via Luby's algorithm, exercising the engine's
// frontier + push machinery with a three-state protocol: each round, every
// undecided vertex draws a deterministic pseudo-random priority and joins
// the set if it beats every undecided neighbor (over the undirected view);
// its neighbors are then excluded. The undecided vertices are a frontier that
// sources every step of a round; the round's joiners and newly excluded
// vertices are built as frontiers and subtracted from it. Terminates in
// O(log n) expected rounds.

// Vertex states in the status property.
const (
	misUndecided int64 = 0
	misInSet     int64 = 1
	misExcluded  int64 = 2
)

// misPriority derives a per-(round, vertex) priority; the vertex id breaks
// ties so priorities are distinct.
func misPriority(seed int64, round int, v graph.NodeID) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(round)*0xbf58476d1ce4e5b9 + uint64(v)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	// Clear the sign bit, then break ties by id.
	return int64((x>>1)<<20) | int64(v&0xfffff)
}

// misDrawKernel assigns this round's priority and bottoms the neighbor max.
type misDrawKernel struct {
	core.NoReads
	pri, nbrPri core.PropID
	seed        int64
	round       int
}

func (k *misDrawKernel) RunNodes(c *core.Ctx, nodes *core.Cursor) {
	for nodes.Next() {
		c.SetI64(k.pri, misPriority(k.seed, k.round, c.NodeGlobal()))
		c.SetI64(k.nbrPri, reduce.BottomI64(reduce.Max))
	}
}

// misPushPriority pushes an undecided vertex's priority to its neighbors.
type misPushPriority struct {
	core.NoReads
	pri, nbrPri core.PropID
}

func (k *misPushPriority) RunRows(c *core.Ctx, rows *core.Cursor) {
	nbrPri := c.Writer(k.nbrPri, reduce.Max)
	for rows.Next() {
		pri, self := c.GetI64(k.pri), int64(c.Node)
		for _, ref := range rows.Row().Refs {
			// Self-loops must not block the vertex from beating "its neighbors".
			if ref != self {
				nbrPri.WriteI64(ref, pri)
			}
		}
	}
}

// misJoinKernel moves local winners into the set and into the joined
// frontier.
type misJoinKernel struct {
	core.NoReads
	pri, nbrPri, status core.PropID
}

func (k *misJoinKernel) RunNodes(c *core.Ctx, nodes *core.Cursor) {
	for nodes.Next() {
		if c.GetI64(k.pri) > c.GetI64(k.nbrPri) {
			c.SetI64(k.status, misInSet)
			c.Activate(0)
		}
	}
}

// misExcludeMark pushes exclusion to neighbors of fresh set members.
type misExcludeMark struct {
	core.NoReads
	excluded core.PropID
}

func (k *misExcludeMark) RunRows(c *core.Ctx, rows *core.Cursor) {
	excluded := c.Writer(k.excluded, reduce.Or)
	for rows.Next() {
		excluded.WriteRow(rows.Row().Refs, 1)
	}
}

// misApplyExclusion excludes a still-undecided vertex that a fresh member
// marked and activates it into the newly-excluded frontier.
type misApplyExclusion struct {
	core.NoReads
	excluded, status core.PropID
}

func (k *misApplyExclusion) RunNodes(c *core.Ctx, nodes *core.Cursor) {
	for nodes.Next() {
		if c.GetI64(k.excluded) != 0 {
			c.SetI64(k.status, misExcluded)
			c.Activate(0)
		}
	}
}

// MIS computes a maximal independent set over the undirected view of the
// loaded graph and returns membership flags (1 = in set). Deterministic in
// seed.
func MIS(c *core.Cluster, seed int64, maxRounds int) ([]bool, Metrics, error) {
	r := &runner{c: c}
	defer r.dropProps()
	status := r.propI64("mis_status")
	pri := r.propI64("mis_pri")
	nbrPri := r.propI64("mis_nbr_pri")
	excluded := r.propI64("mis_excl")
	if r.err != nil {
		return nil, r.met, r.err
	}
	c.FillI64(status, misUndecided)
	c.FillI64(excluded, 0)
	undecided, joined, dropped := c.NewFrontier("mis_undecided"), c.NewFrontier("mis_joined"), c.NewFrontier("mis_dropped")
	undecided.Fill(nil)

	start := nowFn()
	for round := 0; (maxRounds <= 0 || round < maxRounds) && r.err == nil; round++ {
		r.run(core.JobSpec{Name: "mis-draw", Iter: core.IterNodes, Source: undecided,
			Task: &misDrawKernel{pri: pri, nbrPri: nbrPri, seed: seed, round: round}})
		push := &misPushPriority{pri: pri, nbrPri: nbrPri}
		writes := []core.WriteSpec{{Prop: nbrPri, Op: reduce.Max}}
		r.run(core.JobSpec{Name: "mis-push", Iter: core.IterBothEdges, Source: undecided, Task: push, WriteProps: writes})
		r.run(core.JobSpec{Name: "mis-join", Iter: core.IterNodes, Source: undecided,
			Task:  &misJoinKernel{pri: pri, nbrPri: nbrPri, status: status},
			Build: []*core.Frontier{joined}})
		if r.err != nil {
			break
		}
		undecided.Subtract(joined)
		excl := &misExcludeMark{excluded: excluded}
		exclWrites := []core.WriteSpec{{Prop: excluded, Op: reduce.Or}}
		r.run(core.JobSpec{Name: "mis-exclude", Iter: core.IterBothEdges, Source: joined, Task: excl, WriteProps: exclWrites})
		r.run(core.JobSpec{Name: "mis-apply", Iter: core.IterNodes, Source: undecided,
			Task:  &misApplyExclusion{excluded: excluded, status: status},
			Build: []*core.Frontier{dropped}})
		r.met.Iterations++
		if r.err != nil {
			break
		}
		undecided.Subtract(dropped)
		if undecided.Count() == 0 {
			break // every vertex decided
		}
	}
	r.met.Total = nowFn().Sub(start)
	if r.err != nil {
		return nil, r.met, r.err
	}
	states := c.GatherI64(status)
	out := make([]bool, len(states))
	for i, s := range states {
		out[i] = s == misInSet
	}
	return out, r.met, nil
}

// VerifyMIS checks independence (no two adjacent members over the
// undirected view, self-loops ignored) and maximality (every non-member has
// a member neighbor; vertices with no non-self edges must be members).
// Returns "" when valid, else a description.
func VerifyMIS(g *graph.Graph, inSet []bool) string {
	for u := 0; u < g.NumNodes(); u++ {
		hasMemberNbr := false
		hasRealNbr := false
		check := func(v graph.NodeID) string {
			if int(v) == u {
				return ""
			}
			hasRealNbr = true
			if inSet[v] {
				hasMemberNbr = true
				if inSet[u] {
					return fmt.Sprintf("vertices %d and %d are adjacent set members", u, v)
				}
			}
			return ""
		}
		for _, v := range g.Out.Neighbors(graph.NodeID(u)) {
			if msg := check(v); msg != "" {
				return msg
			}
		}
		for _, v := range g.In.Neighbors(graph.NodeID(u)) {
			if msg := check(v); msg != "" {
				return msg
			}
		}
		if !inSet[u] {
			if !hasRealNbr {
				return fmt.Sprintf("vertex %d has no non-self neighbors and must be a member", u)
			}
			if !hasMemberNbr {
				return fmt.Sprintf("vertex %d is outside the set with no member neighbor", u)
			}
		}
	}
	return ""
}
