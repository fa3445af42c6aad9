package core

import (
	"fmt"

	"repro/internal/obs"
)

// Direction is the data-movement orientation of one traversal superstep:
// push scatters updates along out-edges with remote writes, pull gathers
// along in-edges with remote reads.
type Direction uint8

const (
	// DirPush scatters frontier values to neighbors (remote reductions).
	DirPush Direction = iota
	// DirPull has candidate nodes read from their in-neighbors.
	DirPull
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case DirPush:
		return "push"
	case DirPull:
		return "pull"
	default:
		return fmt.Sprintf("Direction(%d)", uint8(d))
	}
}

// DirectionPolicy makes the per-superstep push/pull decision for a
// direction-optimizing traversal (Beamer's classic rule, informed by the
// engine's observed traffic): push while the frontier is sparse, pull once
// the frontier's outgoing edge work rivals the unvisited side's incoming
// edge work, and push again when the frontier collapses near the end.
//
// The static rule is refined by a cost ratio learned from the obs traffic
// matrix: Observe feeds back each superstep's bytes-per-edge, and the ratio
// of push to pull cost (EWMA, clamped to [1/4, 4]) scales the push side of
// the comparison. On fabrics where pushes are cheap (e.g. accumulated
// writes) the policy tolerates denser push frontiers, and vice versa.
//
// A policy is driver-side state for one traversal run; it is not safe for
// concurrent use.
type DirectionPolicy struct {
	// Alpha is the push→pull threshold (switch when scaled frontier edge
	// work exceeds pullEdges/Alpha).
	Alpha float64
	// Beta is the pull→push threshold (switch when the frontier has fewer
	// than totalNodes/Beta members).
	Beta float64
	// Adaptive false pins every Choose to Fixed.
	Adaptive bool
	// Fixed is the direction used when Adaptive is false.
	Fixed Direction

	totalNodes int64
	lastSize   int64 // previous superstep's frontier size (growth detection)
	pullDone   bool  // a pull→push transition happened; stay push (one pull phase)

	// EWMA bytes-per-edge observed in each direction; zero until the first
	// superstep of that direction completes.
	pushCost float64
	pullCost float64

	c    *Cluster
	step int
}

// NewDirectionPolicy builds a policy for the loaded graph with the engine's
// alpha/beta constants (callers whose pull kernel has no early exit overwrite
// Alpha); the direction-pin ablations make it non-adaptive. The cost EWMAs
// seed from the cluster's persisted snapshot (the previous traversal's
// learned costs on this fabric — see Cluster.DirectionCosts), so repeat runs
// start calibrated instead of assuming ratio 1.
func (c *Cluster) NewDirectionPolicy() *DirectionPolicy {
	p := &DirectionPolicy{
		Alpha:      directionAlpha,
		Beta:       directionBeta,
		Adaptive:   !c.cfg.Ablate.Has(AblatePinPush | AblatePinPull),
		Fixed:      DirPush,
		totalNodes: int64(c.numNodes),
		pushCost:   c.dirPushCost,
		pullCost:   c.dirPullCost,
		c:          c,
	}
	if c.cfg.Ablate.Has(AblatePinPull) {
		p.Fixed = DirPull
	}
	return p
}

// costRatio returns pushCost/pullCost clamped to [1/4, 4], defaulting to 1
// until both directions have been observed.
func (p *DirectionPolicy) costRatio() float64 {
	if p.pushCost <= 0 || p.pullCost <= 0 {
		return 1
	}
	r := p.pushCost / p.pullCost
	if r < 0.25 {
		return 0.25
	}
	if r > 4 {
		return 4
	}
	return r
}

// Choose picks the next superstep's direction. cur is the direction of the
// previous superstep, frontierSize/frontierEdges the frontier's member count
// and summed out-degree, and pullEdges the edge work a pull superstep would
// scan (the unvisited set's in-degree sum, or the full edge count when the
// pull side iterates all nodes). The decision is also recorded as a
// direction_decision trace span and frontier-size counters on the obs
// registry, so a traversal's switching pattern is readable from the trace.
func (p *DirectionPolicy) Choose(cur Direction, frontierSize, frontierEdges, pullEdges int64) Direction {
	next := p.Fixed
	if p.Adaptive {
		// Beamer's growth conditions: only go bottom-up while the frontier is
		// still growing (a shrinking frontier is already past the dense
		// phase), and only come back top-down once it is both small and
		// shrinking (small-but-exploding frontiers stay bottom-up). One pull
		// phase per traversal: after the pull→push transition the frontier is
		// in terminal decay, and on high-diameter graphs the α-rule would
		// otherwise keep re-firing as the unvisited side shrinks, paying
		// pull's fixed per-superstep cost (the mirror prefetch) for no scan savings.
		growing := frontierSize > p.lastSize
		next = cur
		switch cur {
		case DirPush:
			if !p.pullDone && growing &&
				float64(frontierEdges)*p.costRatio() > float64(pullEdges)/p.Alpha {
				next = DirPull
			}
		case DirPull:
			if !growing && float64(frontierSize) < float64(p.totalNodes)/p.Beta {
				next = DirPush
				p.pullDone = true
			}
		}
	}
	p.lastSize = frontierSize
	p.record(next, frontierSize, frontierEdges)
	p.step++
	return next
}

// Observe feeds one completed superstep back into the cost model: d is the
// direction it ran, edges the edge work it covered, bytes the data traffic
// it generated (JobStats.Traffic.DataBytesSent — not BytesSent, which counts
// the write drain's allreduce rounds too, and how many of those a job spins
// through is the scheduler's doing, not the graph's). Zero-edge steps are
// ignored.
// Every update is also written back to the cluster's persistent snapshot,
// so the next NewDirectionPolicy on this cluster inherits the learned costs.
func (p *DirectionPolicy) Observe(d Direction, edges, bytes int64) {
	if edges <= 0 || bytes < 0 {
		return
	}
	perEdge := float64(bytes) / float64(edges)
	const decay = 0.5
	switch d {
	case DirPush:
		if p.pushCost == 0 {
			p.pushCost = perEdge
		} else {
			p.pushCost = decay*p.pushCost + (1-decay)*perEdge
		}
	case DirPull:
		if p.pullCost == 0 {
			p.pullCost = perEdge
		} else {
			p.pullCost = decay*p.pullCost + (1-decay)*perEdge
		}
	}
	if p.c != nil {
		p.c.dirPushCost, p.c.dirPullCost = p.pushCost, p.pullCost
	}
}

// DirectionCosts returns the persisted push/pull bytes-per-edge EWMAs the
// cluster carries between traversal runs (0 until a direction has been
// observed).
func (c *Cluster) DirectionCosts() (push, pull float64) {
	return c.dirPushCost, c.dirPullCost
}

// record writes the decision into the obs registry: a direction_decision
// span on machine 0 (Arg packs direction<<62 | step<<48 | frontier size) and
// the frontier-size counters.
func (p *DirectionPolicy) record(d Direction, frontierSize, frontierEdges int64) {
	reg := p.c.cfg.Obs
	if reg == nil {
		return
	}
	arg := uint64(d)<<62 | uint64(p.step&0x3fff)<<48 | uint64(frontierSize)&(1<<48-1)
	t := reg.Clock()
	reg.Span(0, obs.WorkerMain, obs.SpanDirection, p.c.jobSeq, t, arg)
	reg.Add(0, obs.CtrFrontierNodes, frontierSize)
	reg.Add(0, obs.CtrFrontierEdges, frontierEdges)
}
