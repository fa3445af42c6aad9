package graph

import (
	"fmt"
	"math/rand"
)

// GenStream is a re-runnable, bounded-memory view of a deterministic
// generator: Sweep replays the 16 fixed shards of generateParallel
// sequentially (same per-shard RNG seeding, same slice order), so every
// sweep emits exactly the edge sequence the in-memory generator would
// materialize — in the same order — while holding only a small scratch
// buffer. This is what lets the out-of-core store writer emit store files
// for graphs that would not fit in memory (store.WriteStream).
type GenStream struct {
	n    int
	m    int
	seed int64
	fill func(rng *rand.Rand, out []Edge)
}

// NumNodes returns the stream's node count.
func (s *GenStream) NumNodes() int { return s.n }

// NumEdges returns the stream's directed edge count.
func (s *GenStream) NumEdges() int { return s.m }

// Weighted reports whether Sweep emits meaningful weights (generator
// streams are unweighted).
func (s *GenStream) Weighted() bool { return false }

// Sweep emits every edge in the generator's deterministic order. Stable
// across calls: shard s always re-seeds rand.NewSource(seed + s*0x9e3779b9),
// exactly as generateParallel does, and shards replay in index order — the
// order the parallel generator's output slice concatenates them.
func (s *GenStream) Sweep(emit func(u, v uint32, w float64)) {
	const fixedShards = 16 // must match generateParallel
	const chunk = 1 << 16
	buf := make([]Edge, chunk)
	for sh := 0; sh < fixedShards; sh++ {
		lo, hi := sliceRange(s.m, fixedShards, sh)
		if lo == hi {
			continue
		}
		rng := rand.New(rand.NewSource(s.seed + int64(sh)*0x9e3779b9))
		for at := lo; at < hi; at += chunk {
			cn := hi - at
			if cn > chunk {
				cn = chunk
			}
			out := buf[:cn]
			s.fill(rng, out)
			for _, e := range out {
				emit(uint32(e.Src), uint32(e.Dst), e.Weight)
			}
		}
	}
}

// RMATStream returns the streaming equivalent of RMAT: same parameters,
// same seed, same edges in the same order.
func RMATStream(scale int, edgeFactor int, p RMATParams, seed int64) (*GenStream, error) {
	if scale < 1 || scale > 30 {
		return nil, fmt.Errorf("graph: RMAT scale %d out of range [1,30]", scale)
	}
	if edgeFactor < 1 {
		return nil, fmt.Errorf("graph: RMAT edge factor %d must be >= 1", edgeFactor)
	}
	if p.A <= 0 || p.B < 0 || p.C < 0 || p.A+p.B+p.C >= 1 {
		return nil, fmt.Errorf("graph: invalid RMAT params %+v", p)
	}
	n := 1 << scale
	return &GenStream{n: n, m: n * edgeFactor, seed: seed, fill: func(rng *rand.Rand, out []Edge) {
		for i := range out {
			src, dst := rmatEdge(scale, p, rng)
			out[i] = Edge{Src: src, Dst: dst}
		}
	}}, nil
}

// UniformStream returns the streaming equivalent of Uniform.
func UniformStream(n, m int, seed int64) (*GenStream, error) {
	if n <= 0 {
		return nil, ErrEmptyGraph
	}
	return &GenStream{n: n, m: m, seed: seed, fill: func(rng *rand.Rand, out []Edge) {
		for i := range out {
			out[i] = Edge{Src: NodeID(rng.Intn(n)), Dst: NodeID(rng.Intn(n))}
		}
	}}, nil
}
