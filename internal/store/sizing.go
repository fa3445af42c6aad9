package store

// Sizing is the store's sizing report for a graph: what an in-memory engine
// load of it would pin resident. The server's admission memory gate budgets
// runs against EstimatedResidentMB when the client does not declare its own
// cap.
type Sizing struct {
	// InMemoryBytes estimates the resident set of an in-memory load: the
	// shared graph (both CSR orientations, 4-byte columns), the per-machine
	// pre-resolved 8-byte refs in both orientations, degree/chunk metadata,
	// and the requested algorithm's property columns.
	InMemoryBytes int64
}

// EstimatedResidentMB returns InMemoryBytes in mebibytes, rounded up, never
// below 1.
func (s Sizing) EstimatedResidentMB() int64 {
	mb := (s.InMemoryBytes + (1 << 20) - 1) >> 20
	if mb < 1 {
		mb = 1
	}
	return mb
}

// SizeOf reports the sizing for a graph with n nodes and m directed edges,
// running an algorithm that keeps propCols 8-byte property columns live (use
// 3 — the historical allowance — when the algorithm is unknown). The machine
// count does not move the estimate: every term is per node or per edge.
func SizeOf(n int, m int64, _ int, weighted bool, propCols int) Sizing {
	wf := int64(0)
	if weighted {
		wf = 1
	}
	// Graph: rows 8*(n+1) and 4-byte cols per orientation (+8-byte weights);
	// engine: 8-byte refs per orientation, rebased rows, both-rows, degrees
	// (2*4 bytes), and the algorithm's property columns.
	return Sizing{InMemoryBytes: 2*(8*int64(n+1)+4*m+wf*8*m) + // shared graph
		2*(8*m+wf*8*m) + 3*8*int64(n) + // local stores
		8*int64(n) + int64(propCols)*8*int64(n)} // bothRows + degrees + properties
}
