package algorithms

import (
	"repro/internal/core"
	"repro/internal/obs"
)

// direction is the data-movement orientation of one traversal superstep:
// push scatters updates along out-edges with remote writes, pull gathers
// along in-edges with remote reads.
type direction uint8

const (
	dirPush direction = iota
	dirPull
)

// The push→pull threshold α: pull is chosen once the frontier's edge work
// exceeds pullEdges/α, so α is what a push edge costs in pull edges — push
// and pull break even at α = push ns/edge ÷ pull ns/edge, the push/pull
// column of BenchmarkDirectionStep (`make bench-direction`; rows in
// EXPERIMENTS.md, "Pricing the direction rule").
//
// WCC's and SSSP's pull kernels fold every neighbor in and pay the full scan.
// Their push edge is a MIN reduction that may lower a word and activate its
// node; their pull edge is a read of a local or mirrored word. On RMAT(14,16)
// at Workers 1 and 4, p = 1 and 2 in process, WCC's rows read α ≈ 1.6–2.5 and
// SSSP's 2.7–5.5. Every α from 2 to 4 makes the same decisions on every graph
// probed (DESIGN.md, "Frontiers + adaptive push/pull direction switching");
// 4 sits in the middle of SSSP's rows and a factor of two below α = 8, where
// grid SSSP starts pulling its sparse tail and runs slower.
//
// BFS's pull stops at the first claimed in-neighbor, so its cost per charged
// edge depends on the level: at RMAT's heaviest level the rows read α ≈
// 0.5–1.6. α = 2 (Beamer's shared-memory constant is 14) keeps road-shaped
// graphs all-push while still flipping the dense levels of small-world
// graphs; 4 and 8 make the same RMAT decisions, and 8 starts pulling the tail
// of a grid with shortcuts.
const (
	alphaEarlyExit = 2.0
	alphaFullScan  = 4.0
)

// directionBeta is the pull→push threshold, Beamer's constant: a shrinking
// frontier with fewer than N/β members goes back to push.
const directionBeta = 24.0

// directionPolicy is the per-superstep push/pull rule of one traversal run
// (Beamer's direction-optimizing rule). It is a function of the frontier
// statistics each job already returns and of the previous step's direction;
// it learns nothing and carries nothing across runs. Driver-side state, not
// safe for concurrent use.
type directionPolicy struct {
	alpha float64
	nodes int64         // the graph's node count (the β threshold's N)
	pin   core.Ablation // AblatePinPush/AblatePinPull bits of the config, if any

	cur      direction
	lastSize int64 // previous superstep's frontier size (growth detection)
	pullDone bool  // a pull→push transition happened: one pull phase per run
	step     int
	reg      *obs.Registry
}

// policyFor builds the rule for one traversal on c with the given α.
func policyFor(c *core.Cluster, alpha float64) *directionPolicy {
	cfg := c.Config()
	return &directionPolicy{
		alpha: alpha,
		nodes: int64(c.NumNodes()),
		pin:   cfg.Ablate & (core.AblatePinPush | core.AblatePinPull),
		reg:   cfg.Obs,
	}
}

// choose picks the next superstep's direction from the frontier's member
// count and summed degree (size, edges) and the edge work a pull superstep
// would scan (pullEdges). Push goes to pull only while the frontier is still
// growing; pull comes back to push only once the frontier is both shrinking
// and small. After the pull→push transition the frontier is in terminal
// decay: on high-diameter graphs the α test would otherwise keep re-firing as
// the unvisited side shrinks, paying pull's fixed per-superstep cost (the
// mirror prefetch) for no scan savings. A pin ablation fixes the direction
// (pull wins when both are set). The decision is recorded as a
// direction_decision span and the frontier counters on the obs registry.
func (p *directionPolicy) choose(size, edges, pullEdges int64) direction {
	switch {
	case p.pin.Has(core.AblatePinPull):
		p.cur = dirPull
	case p.pin != 0:
		p.cur = dirPush
	case p.cur == dirPush:
		if !p.pullDone && size > p.lastSize && float64(edges) > float64(pullEdges)/p.alpha {
			p.cur = dirPull
		}
	default:
		if size <= p.lastSize && float64(size) < float64(p.nodes)/directionBeta {
			p.cur = dirPush
			p.pullDone = true
		}
	}
	p.lastSize = size
	p.record(size, edges)
	p.step++
	return p.cur
}

// record writes the decision into the obs registry: a direction_decision
// span on machine 0, labelled with the id of the last completed job — the one
// that produced the frontier, after the first step (Arg packs direction<<62 |
// step<<48 | frontier size) — and the frontier-size counters.
func (p *directionPolicy) record(size, edges int64) {
	if p.reg == nil {
		return
	}
	var job uint64
	if last := p.reg.LastReport(); last != nil {
		job = last.Job
	}
	arg := uint64(p.cur)<<62 | uint64(p.step&0x3fff)<<48 | uint64(size)&(1<<48-1)
	p.reg.Span(0, obs.WorkerMain, obs.SpanDirection, job, p.reg.Clock(), arg)
	p.reg.Add(0, obs.CtrFrontierNodes, size)
	p.reg.Add(0, obs.CtrFrontierEdges, edges)
}

// superstep runs one traversal superstep: policy picks the direction from the
// frontier stats, the step is counted, and the chosen job runs.
func (r *runner) superstep(policy *directionPolicy, size, edges, pullEdges int64, push, pull core.JobSpec) core.JobStats {
	if policy.choose(size, edges, pullEdges) == dirPull {
		r.met.PullSteps++
		return r.runStats(pull)
	}
	r.met.PushSteps++
	return r.runStats(push)
}
