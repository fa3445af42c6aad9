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

// WireRow is one cell of the wire-compression ablation: one algorithm on one
// fabric with compression on or off.
type WireRow struct {
	Fabric      string `json:"fabric"` // "inproc" or "tcp"
	Algo        string `json:"algo"`   // "pr-pull" or "wcc"
	Compression bool   `json:"compression"`

	Seconds      float64 `json:"seconds"`
	TotalBytes   int64   `json:"total_bytes"`
	DataBytes    int64   `json:"data_bytes"`
	ReadReqBytes int64   `json:"read_req_bytes"`

	// CompressRawBytes / CompressWireBytes are the compression layer's own
	// accounting: fixed-width size vs. actual size of eligible payloads.
	CompressRawBytes  int64   `json:"compress_raw_bytes"`
	CompressWireBytes int64   `json:"compress_wire_bytes"`
	CompressionRatio  float64 `json:"compression_ratio"`

	// WireReduction is 1 - TotalBytes/TotalBytes(uncompressed twin), i.e.
	// the fraction of all wire traffic (headers and responses included)
	// that compression removed. Zero for the uncompressed rows.
	WireReduction float64 `json:"wire_reduction"`

	// MaxAbsDiff is the worst per-node result difference versus the
	// uncompressed run of the same (fabric, algo) — compression must be
	// numerically invisible.
	MaxAbsDiff float64 `json:"max_abs_diff_vs_uncompressed"`
}

// WireReport is the JSON artifact (BENCH_wire.json) of the sweep.
type WireReport struct {
	Dataset  string    `json:"dataset"`
	Scale    int       `json:"scale"`
	Machines int       `json:"machines"`
	PRIters  int       `json:"pr_iters"`
	Rows     []WireRow `json:"rows"`
}

// ExpWire measures the wire compression layer: sorted delta-varint encoding
// of read requests and write batches, against the AblateWireCompression run,
// on both fabrics.
//
// PageRank-pull is the read-request stress (the acceptance workload: every
// referenced remote address crosses the wire once per iteration as an 8-byte
// key that compresses to 1-2 bytes); WCC exercises the int64 write batches. Results
// must match the uncompressed twin bit-for-bit on WCC (integer min
// reductions commute exactly) and within float tolerance on PageRank.
func ExpWire(ds *Datasets, scale, machines, prIters int, prog Progress) (*Table, *WireReport, error) {
	g, err := ds.Get(DSTwitter, scale)
	if err != nil {
		return nil, nil, err
	}
	rep := &WireReport{Dataset: DSTwitter, Scale: scale, Machines: machines, PRIters: prIters}
	t := &Table{Title: fmt.Sprintf("Wire compression (TWT', %d machines)", machines)}
	t.Header = []string{"fabric", "algo", "compressed", "time", "total bytes", "ratio", "reduction", "max |Δ|"}

	type cellKey struct {
		fabric, algo string
	}
	baseBytes := map[cellKey]int64{}
	baseVals := map[cellKey][]float64{}
	for _, fabric := range []string{"inproc", "tcp"} {
		for _, algo := range []string{"pr-pull", "wcc"} {
			for _, compressed := range []bool{false, true} {
				prog.log("wire: %s %s compression=%v", fabric, algo, compressed)
				cfg := core.DefaultConfig(machines)
				if !compressed {
					cfg.Ablate = core.AblateWireCompression
				}
				cfg.ReqBuffers = 2*cfg.Workers*cfg.NumMachines + 4
				cfg.RespBuffers = 2*cfg.Copiers*cfg.NumMachines + 4
				var fab *comm.TCPFabric
				if fabric == "tcp" {
					fab, err = comm.NewTCPFabricOpts(machines,
						machines*(cfg.ReqBuffers+cfg.Workers*machines)+64, cfg.BufferSize, comm.TCPOptions{})
					if err != nil {
						return nil, nil, err
					}
					cfg.Fabric = fab
				}
				vals, met, err := runWireCell(g, cfg, algo, prIters)
				if fab != nil {
					fab.Close()
				}
				if err != nil {
					return nil, nil, err
				}
				key := cellKey{fabric, algo}
				row := WireRow{
					Fabric:            fabric,
					Algo:              algo,
					Compression:       compressed,
					Seconds:           met.Total.Seconds(),
					TotalBytes:        met.Traffic.BytesSent,
					DataBytes:         met.Traffic.DataBytesSent,
					ReadReqBytes:      met.Traffic.ReadReqBytes,
					CompressRawBytes:  met.Traffic.CompressRawBytes,
					CompressWireBytes: met.Traffic.CompressWireBytes,
					CompressionRatio:  met.Traffic.CompressionRatio(),
				}
				if !compressed {
					baseBytes[key] = row.TotalBytes
					baseVals[key] = vals
				} else {
					if b := baseBytes[key]; b > 0 {
						row.WireReduction = 1 - float64(row.TotalBytes)/float64(b)
					}
					for i, v := range vals {
						if d := v - baseVals[key][i]; d > row.MaxAbsDiff {
							row.MaxAbsDiff = d
						} else if -d > row.MaxAbsDiff {
							row.MaxAbsDiff = -d
						}
					}
				}
				rep.Rows = append(rep.Rows, row)
				t.AddRow(fabric, algo, fmt.Sprintf("%v", compressed), fmtSecs(row.Seconds),
					fmtBytes(row.TotalBytes), fmt.Sprintf("%.2f", row.CompressionRatio),
					fmt.Sprintf("%.1f%%", 100*row.WireReduction),
					fmt.Sprintf("%.2e", row.MaxAbsDiff))
			}
		}
	}
	t.Notes = append(t.Notes,
		"pr-pull is the read-request stress (one sorted prefetch per owner), wcc the write batches",
		"reduction = fraction of total wire bytes (headers included) removed vs. the AblateWireCompression twin",
		"in-proc frames pass by reference, so the engine gates compression off there (ratio 1.00): those rows check the gate keeps runtime unchanged")
	return t, rep, nil
}

func runWireCell(g *graph.Graph, cfg core.Config, algo string, prIters int) ([]float64, algorithms.Metrics, error) {
	c, err := core.NewCluster(cfg)
	if err != nil {
		return nil, algorithms.Metrics{}, err
	}
	defer c.Shutdown()
	if err := c.Load(g); err != nil {
		return nil, algorithms.Metrics{}, err
	}
	if algo == "wcc" {
		comps, met, err := algorithms.WCC(c, 100000)
		if err != nil {
			return nil, met, err
		}
		vals := make([]float64, len(comps))
		for i, v := range comps {
			vals[i] = float64(v)
		}
		return vals, met, nil
	}
	return algorithms.PageRankPull(c, prIters, 0.85)
}

// WriteJSON writes the report to path (the BENCH_wire.json artifact).
func (r *WireReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
