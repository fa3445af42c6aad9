package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
)

// DirectionRow is one cell of the direction-switching ablation: one traversal
// algorithm on one graph under one direction policy.
type DirectionRow struct {
	Graph   string `json:"graph"`   // "TWT'" (RMAT) or "ROAD'" (grid)
	Algo    string `json:"algo"`    // "bfs", "sssp", "wcc", "pr-pull"
	Variant string `json:"variant"` // "fixed-push", "fixed-pull", "adaptive", "dense"

	Seconds    float64 `json:"seconds"` // best of two runs
	Supersteps int     `json:"supersteps"`
	PushSteps  int     `json:"push_steps"`
	PullSteps  int     `json:"pull_steps"`
	TotalBytes int64   `json:"total_bytes"`

	// Identical reports bit-identity of the per-node results versus the
	// fixed-push run of the same (graph, algo) — the heuristic must only
	// change how values move, never the values.
	Identical bool `json:"identical_vs_fixed_push"`

	// SpeedupVsBestFixed is bestFixedSeconds/Seconds, filled on adaptive
	// rows once both fixed variants of the cell have run.
	SpeedupVsBestFixed float64 `json:"speedup_vs_best_fixed,omitempty"`
}

// DirectionReport is the JSON artifact (BENCH_direction.json) of the sweep.
type DirectionReport struct {
	Scale    int            `json:"scale"`
	Machines int            `json:"machines"`
	Rows     []DirectionRow `json:"rows"`
}

// ExpDirection ablates the adaptive push/pull traversal machinery: BFS on a
// skewed RMAT graph and a high-diameter road-like grid under {fixed-push,
// fixed-pull, adaptive} policies plus the engine's dense-filter fallback
// (AblateSparseFrontier, pinned push), and SSSP/WCC under {fixed-push, fixed-pull,
// adaptive} for the bit-identity and regression check. PageRank rows pin the
// frontier machinery's zero cost on non-frontier algorithms.
func ExpDirection(ds *Datasets, scale, machines, prIters int, prog Progress) (*Table, *DirectionReport, error) {
	rep := &DirectionReport{Scale: scale, Machines: machines}
	t := &Table{Title: fmt.Sprintf("Direction switching (%d machines, scale %d)", machines, scale)}
	t.Header = []string{"graph", "algo", "variant", "time", "steps", "push/pull", "bytes", "identical", "speedup"}

	variants := map[string]core.Ablation{
		"fixed-push": core.AblatePinPush,
		"fixed-pull": core.AblatePinPull,
		"adaptive":   0,
		"dense":      core.AblateSparseFrontier | core.AblatePinPush,
	}

	type cell struct {
		graphName, algo string
		variants        []string
	}
	cells := []cell{
		{DSTwitter, "bfs", []string{"fixed-push", "fixed-pull", "adaptive", "dense"}},
		{DSRoad, "bfs", []string{"fixed-push", "fixed-pull", "adaptive", "dense"}},
		{DSTwitter, "sssp", []string{"fixed-push", "fixed-pull", "adaptive"}},
		{DSTwitter, "wcc", []string{"fixed-push", "fixed-pull", "adaptive"}},
		{DSTwitter, "pr-pull", []string{"fixed-push", "adaptive"}},
	}

	for _, cl := range cells {
		var g *graph.Graph
		var err error
		if cl.algo == "sssp" {
			g, err = ds.Weighted(cl.graphName, scale)
		} else {
			g, err = ds.Get(cl.graphName, scale)
		}
		if err != nil {
			return nil, nil, err
		}
		var baseBits []uint64
		var fixedBest float64
		adaptiveIdx := -1
		for _, vname := range cl.variants {
			prog.log("direction: %s %s %s", cl.graphName, cl.algo, vname)
			// Best of two runs, each on a fresh cluster: algorithm props and
			// the policy's learned cost model must start cold every trial.
			var row DirectionRow
			var bits []uint64
			for trial := 0; trial < 2; trial++ {
				cfg := core.DefaultConfig(machines)
				cfg.Ablate = variants[vname]
				vals, met, err := runDirectionCell(g, cfg, cl.algo, prIters)
				if err != nil {
					return nil, nil, fmt.Errorf("direction: %s %s %s: %w", cl.graphName, cl.algo, vname, err)
				}
				if trial == 0 || met.Total.Seconds() < row.Seconds {
					row = DirectionRow{
						Graph:      cl.graphName,
						Algo:       cl.algo,
						Variant:    vname,
						Seconds:    met.Total.Seconds(),
						Supersteps: met.Iterations,
						PushSteps:  met.PushSteps,
						PullSteps:  met.PullSteps,
						TotalBytes: met.Traffic.BytesSent,
					}
				}
				bits = vals
			}
			if baseBits == nil {
				baseBits = bits
				row.Identical = true
			} else {
				row.Identical = equalBits(baseBits, bits)
			}
			if vname == "fixed-push" || vname == "fixed-pull" {
				if fixedBest == 0 || row.Seconds < fixedBest {
					fixedBest = row.Seconds
				}
			}
			if vname == "adaptive" {
				adaptiveIdx = len(rep.Rows)
			}
			rep.Rows = append(rep.Rows, row)
		}
		if adaptiveIdx >= 0 && fixedBest > 0 {
			rep.Rows[adaptiveIdx].SpeedupVsBestFixed = fixedBest / rep.Rows[adaptiveIdx].Seconds
		}
		for i := len(rep.Rows) - len(cl.variants); i < len(rep.Rows); i++ {
			r := rep.Rows[i]
			speedup := ""
			if r.SpeedupVsBestFixed > 0 {
				speedup = fmt.Sprintf("%.2fx", r.SpeedupVsBestFixed)
			}
			t.AddRow(r.Graph, r.Algo, r.Variant, fmtSecs(r.Seconds),
				fmt.Sprintf("%d", r.Supersteps),
				fmt.Sprintf("%d/%d", r.PushSteps, r.PullSteps),
				fmtBytes(r.TotalBytes),
				fmt.Sprintf("%v", r.Identical), speedup)
		}
	}
	t.Notes = append(t.Notes,
		"identical = per-node results bit-identical to the fixed-push run of the same cell",
		"dense = the engine's dense-filter fallback under fixed push: every chunk scanned with a per-node membership-bit test, no empty-machine skip (AblateSparseFrontier)",
		"speedup = best fixed-direction time / adaptive time",
		"pr-pull rows use no frontiers: they pin the frontier machinery's cost on non-traversal algorithms at zero")
	return t, rep, nil
}

// runDirectionCell boots a fresh cluster with cfg, runs one traversal, and
// returns the per-node results as raw bit patterns for exact comparison.
func runDirectionCell(g *graph.Graph, cfg core.Config, algo string, prIters int) ([]uint64, algorithms.Metrics, error) {
	c, err := core.NewCluster(cfg)
	if err != nil {
		return nil, algorithms.Metrics{}, err
	}
	defer c.Shutdown()
	if err := c.Load(g); err != nil {
		return nil, algorithms.Metrics{}, err
	}
	switch algo {
	case "bfs":
		vals, met, err := algorithms.HopDist(c, 0, c.NumNodes())
		return i64Bits(vals), met, err
	case "sssp":
		vals, met, err := algorithms.SSSP(c, 0, c.NumNodes())
		if err != nil {
			return nil, met, err
		}
		out := make([]uint64, len(vals))
		for i, v := range vals {
			out[i] = math.Float64bits(v)
		}
		return out, met, nil
	case "wcc":
		vals, met, err := algorithms.WCC(c, 100000)
		return i64Bits(vals), met, err
	case "pr-pull":
		vals, met, err := algorithms.PageRankPull(c, prIters, 0.85)
		if err != nil {
			return nil, met, err
		}
		out := make([]uint64, len(vals))
		for i, v := range vals {
			out[i] = math.Float64bits(v)
		}
		return out, met, nil
	default:
		return nil, algorithms.Metrics{}, fmt.Errorf("bench: unknown direction algo %q", algo)
	}
}

func i64Bits(vals []int64) []uint64 {
	out := make([]uint64, len(vals))
	for i, v := range vals {
		out[i] = uint64(v)
	}
	return out
}

func equalBits(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// WriteJSON writes the report to path (the BENCH_direction.json artifact).
func (r *DirectionReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
