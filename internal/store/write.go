package store

import "repro/internal/graph"

// WriteGraph materializes g as a raw (.csr2) store file partitioned for p
// machines under the edge-balanced strategy — the same cut Cluster.Load
// computes, so a cluster loading the file and a cluster loading g in memory
// (with ghosting disabled) own identical vertex ranges and iterate identical
// ref sequences: per-row neighbor order is exactly the in-memory CSR's, so
// kernels consuming either representation reduce in the same order and
// produce bit-identical floats.
func WriteGraph(path string, g *graph.Graph, p int) error {
	return WriteStream(path, graphStream{g}, StreamOptions{Machines: p})
}

// WriteGraphCompressed is WriteGraph in the compressed (.csr3) spelling; per-row
// neighbor order survives the codec round trip exactly.
func WriteGraphCompressed(path string, g *graph.Graph, p int) error {
	return WriteStream(path, graphStream{g}, StreamOptions{Machines: p, Compress: true})
}

// graphStream sweeps a materialized graph's out-CSR as an EdgeStream. Every
// graph's in-CSR is the transpose of its out-CSR in source order — the order
// the writer's in-pass reproduces — so streaming the out edges alone yields
// both of g's orientations.
type graphStream struct{ g *graph.Graph }

func (s graphStream) NumNodes() int  { return s.g.NumNodes() }
func (s graphStream) Weighted() bool { return s.g.Out.Weights != nil }
func (s graphStream) Sweep(emit func(u, v uint32, w float64)) {
	out := &s.g.Out
	for u := 0; u < out.N; u++ {
		for i := out.Rows[u]; i < out.Rows[u+1]; i++ {
			var w float64
			if out.Weights != nil {
				w = out.Weights[i]
			}
			emit(uint32(u), out.Cols[i], w)
		}
	}
}
