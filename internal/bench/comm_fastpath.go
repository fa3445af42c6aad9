package bench

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/algorithms"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/graph"
)

// CommFastPathRow is one cell of the communication fast-path ablation:
// PageRank-pull over the TCP fabric with one combination of send mode and
// read combining.
type CommFastPathRow struct {
	Sends         string  `json:"sends"` // "async" or "sync"
	Combining     bool    `json:"combining"`
	Seconds       float64 `json:"seconds"`
	ReadReqBytes  int64   `json:"read_req_bytes"`
	ReadRespBytes int64   `json:"read_resp_bytes"`
	TotalBytes    int64   `json:"total_bytes"`
	DedupHits     int64   `json:"dedup_hits"`
	DedupMisses   int64   `json:"dedup_misses"`
	DedupHitRate  float64 `json:"dedup_hit_rate"`
	MaxAbsDiff    float64 `json:"max_abs_diff_vs_baseline"`
}

// CommFastPathReport is the JSON artifact (BENCH_comm.json) of the sweep.
type CommFastPathReport struct {
	Dataset  string            `json:"dataset"`
	Scale    int               `json:"scale"`
	Machines int               `json:"machines"`
	PRIters  int               `json:"pr_iters"`
	Rows     []CommFastPathRow `json:"rows"`
}

// ExpCommFastPath measures the communication fast path: duplicate remote-
// read elimination and async vectored TCP sends, each switchable, on a
// Zipf-skewed RMAT graph with ghosting disabled so every cross-partition
// neighbor read crosses the wire. The baseline cell (sync sends, no
// combining) is the pre-fast-path engine; results of every cell are checked
// against it numerically.
func ExpCommFastPath(ds *Datasets, scale, machines, prIters int, prog Progress) (*Table, *CommFastPathReport, error) {
	g, err := ds.Get(DSTwitter, scale)
	if err != nil {
		return nil, nil, err
	}
	rep := &CommFastPathReport{Dataset: DSTwitter, Scale: scale, Machines: machines, PRIters: prIters}
	t := &Table{Title: fmt.Sprintf("Communication fast path (PR-pull on TWT', %d machines, TCP)", machines)}
	t.Header = []string{"sends", "combining", "time", "READ_REQ", "READ_RESP", "hit rate", "max |Δ| vs base"}

	var baseline []float64
	for _, sends := range []string{"sync", "async"} {
		for _, combining := range []bool{false, true} {
			prog.log("comm: %s sends, combining %v", sends, combining)
			cfg := core.DefaultConfig(machines)
			cfg.GhostThreshold = core.GhostDisabled
			if !combining {
				cfg.Ablate = core.AblateReadCombining
			}
			cfg.ReqBuffers = 2*cfg.Workers*cfg.NumMachines + 4
			cfg.RespBuffers = 2*cfg.Copiers*cfg.NumMachines + 4
			opts := comm.TCPOptions{}
			if sends == "sync" {
				opts.SendQueueDepth = -1
			}
			fabric, err := comm.NewTCPFabricOpts(machines,
				machines*(cfg.ReqBuffers+cfg.Workers*machines)+64, cfg.BufferSize, opts)
			if err != nil {
				return nil, nil, err
			}
			cfg.Fabric = fabric
			ranks, met, err := runCommCell(g, cfg, prIters)
			fabric.Close()
			if err != nil {
				return nil, nil, err
			}
			maxDiff := 0.0
			if baseline == nil {
				baseline = ranks
			} else {
				for i := range ranks {
					if d := ranks[i] - baseline[i]; d > maxDiff {
						maxDiff = d
					} else if -d > maxDiff {
						maxDiff = -d
					}
				}
			}
			row := CommFastPathRow{
				Sends:         sends,
				Combining:     combining,
				Seconds:       met.Total.Seconds(),
				ReadReqBytes:  met.Traffic.ReadReqBytes,
				ReadRespBytes: met.Traffic.ReadRespBytes,
				TotalBytes:    met.Traffic.BytesSent,
				DedupHits:     met.Traffic.DedupHits,
				DedupMisses:   met.Traffic.DedupMisses,
				DedupHitRate:  met.Traffic.DedupHitRate(),
				MaxAbsDiff:    maxDiff,
			}
			rep.Rows = append(rep.Rows, row)
			t.AddRow(sends, fmt.Sprintf("%v", combining), fmtSecs(row.Seconds),
				fmtBytes(row.ReadReqBytes), fmtBytes(row.ReadRespBytes),
				fmt.Sprintf("%.1f%%", 100*row.DedupHitRate),
				fmt.Sprintf("%.2e", maxDiff))
		}
	}
	t.Notes = append(t.Notes,
		"ghosting disabled: every cross-partition read goes over the wire (worst case for pull)",
		"sync+nocombine is the pre-fast-path engine; ranks of all cells must agree with it")
	return t, rep, nil
}

func runCommCell(g *graph.Graph, cfg core.Config, prIters int) ([]float64, algorithms.Metrics, error) {
	c, err := core.NewCluster(cfg)
	if err != nil {
		return nil, algorithms.Metrics{}, err
	}
	defer c.Shutdown()
	if err := c.Load(g); err != nil {
		return nil, algorithms.Metrics{}, err
	}
	return algorithms.PageRankPull(c, prIters, 0.85)
}

// WriteJSON writes the report to path (the BENCH_comm.json artifact).
func (r *CommFastPathReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
