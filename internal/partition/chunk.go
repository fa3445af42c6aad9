package partition

import (
	"slices"
	"sort"
)

// Chunk is a half-open range [Begin, End) of local node indices handed to a
// worker as one unit of RTC task scheduling (paper §3.2/§3.3: "tasks are
// grouped into chunks, which in return are allocated to worker threads").
type Chunk struct {
	Begin, End uint32
}

// Len returns the number of nodes in the chunk.
func (c Chunk) Len() int { return int(c.End - c.Begin) }

// NodeChunks cuts [0, n) into chunks of at most chunkSize nodes each — the
// naive baseline ("node-based task chunking" in Figure 6c) in which a chunk
// covering a few huge-degree vertices carries far more work than its peers.
func NodeChunks(n int, chunkSize int) []Chunk {
	return AppendNodeChunks(nil, n, chunkSize)
}

// AppendNodeChunks appends NodeChunks(n, chunkSize) to chunks, for a caller
// that reuses one chunk list across calls.
func AppendNodeChunks(chunks []Chunk, n int, chunkSize int) []Chunk {
	if chunkSize < 1 {
		chunkSize = 1
	}
	if n > 0 {
		chunks = slices.Grow(chunks, (n+chunkSize-1)/chunkSize)
	}
	for lo := 0; lo < n; lo += chunkSize {
		hi := lo + chunkSize
		if hi > n {
			hi = n
		}
		chunks = append(chunks, Chunk{Begin: uint32(lo), End: uint32(hi)})
	}
	return chunks
}

// EdgeChunks cuts [0, n) into chunks each covering approximately
// targetEdges edges, using the CSR row-offset array rows (length n+1) of the
// orientation the job iterates. This is the paper's edge chunking: "The Task
// Manager creates chunks by edge count, thereby ensuring that each chunk
// will contain a similar number of edges instead of similar number of
// nodes." A single vertex whose degree exceeds targetEdges becomes its own
// chunk; chunks are never empty.
func EdgeChunks(rows []int64, targetEdges int64) []Chunk {
	return AppendEdgeChunks(nil, rows, targetEdges)
}

// AppendEdgeChunks appends EdgeChunks(rows, targetEdges) to chunks, for a
// caller that reuses one chunk list across calls.
func AppendEdgeChunks(chunks []Chunk, rows []int64, targetEdges int64) []Chunk {
	n := len(rows) - 1
	if n <= 0 {
		return chunks
	}
	if targetEdges < 1 {
		targetEdges = 1
	}
	// Every chunk but an over-degree singleton stays under target, so
	// total/target+1 is about the count: one allocation instead of append's
	// doubling from empty.
	chunks = slices.Grow(chunks, int(min(int64(n), (rows[n]-rows[0])/targetEdges+1)))
	lo := 0
	for lo < n {
		// The first node always joins, so over-degree vertices form singleton
		// chunks. Beyond it, rows is a nondecreasing prefix sum, so "the chunk
		// stays under target" is a monotone predicate and the boundary is a
		// binary search — O(c log n) instead of O(n) per pass, which matters on
		// skewed partitions where one pass emits thousands of tiny chunks next
		// to a handful of giant ones.
		hi := lo + 1 + sort.Search(n-lo-1, func(i int) bool {
			return rows[lo+2+i]-rows[lo] > targetEdges
		})
		chunks = append(chunks, Chunk{Begin: uint32(lo), End: uint32(hi)})
		lo = hi
	}
	return chunks
}

// ChunkEdgeWeight returns the number of edges a chunk covers under rows.
func ChunkEdgeWeight(rows []int64, c Chunk) int64 {
	return rows[c.End] - rows[c.Begin]
}

// MaxChunkEdgeWeight returns the largest edge weight across chunks — the
// quantity edge chunking minimizes relative to node chunking.
func MaxChunkEdgeWeight(rows []int64, chunks []Chunk) int64 {
	var max int64
	for _, c := range chunks {
		if w := ChunkEdgeWeight(rows, c); w > max {
			max = w
		}
	}
	return max
}
