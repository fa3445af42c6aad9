package graph

import (
	"math/rand"
	"runtime"
	"sync"
)

// GenStream is a deterministic generator: its constructor (RMATStream,
// UniformStream) checks the arguments, and its fill draws the edges. Graph
// materializes it by filling fixedShards shards in parallel; Sweep replays the
// same shards sequentially (same per-shard RNG seeding, same slice order), so
// every sweep emits exactly the edge sequence Graph builds from — in the same
// order — while holding only a small scratch buffer. This is what lets the
// out-of-core store writer emit store files for graphs that would not fit in
// memory (store.WriteStream).
type GenStream struct {
	n    int
	m    int
	seed int64
	fill func(rng *rand.Rand, out []Edge)
}

// fixedShards is the generators' shard count. It never depends on
// GOMAXPROCS, so a (seed, size) pair names one edge sequence on every machine.
const fixedShards = 16

// shardRNG seeds shard s of a generator with the given seed.
func shardRNG(seed int64, s int) *rand.Rand {
	return rand.New(rand.NewSource(seed + int64(s)*0x9e3779b9))
}

// NumNodes returns the stream's node count.
func (s *GenStream) NumNodes() int { return s.n }

// NumEdges returns the stream's directed edge count.
func (s *GenStream) NumEdges() int { return s.m }

// Weighted reports whether Sweep emits meaningful weights (generator
// streams are unweighted).
func (s *GenStream) Weighted() bool { return false }

// Graph materializes the stream in memory.
func (s *GenStream) Graph() (*Graph, error) {
	return FromEdges(s.n, generateParallel(s.m, s.seed, s.fill), false)
}

// Sweep emits every edge in the generator's deterministic order. Stable
// across calls: shards replay in index order — the order generateParallel's
// output slice concatenates them.
func (s *GenStream) Sweep(emit func(u, v uint32, w float64)) {
	const chunk = 1 << 16
	buf := make([]Edge, chunk)
	for sh := 0; sh < fixedShards; sh++ {
		lo, hi := sliceRange(s.m, fixedShards, sh)
		if lo == hi {
			continue
		}
		rng := shardRNG(s.seed, sh)
		for at := lo; at < hi; at += chunk {
			out := buf[:min(hi-at, chunk)]
			s.fill(rng, out)
			for _, e := range out {
				emit(uint32(e.Src), uint32(e.Dst), e.Weight)
			}
		}
	}
}

// generateParallel fills m edges using fn on per-shard deterministic RNGs,
// GOMAXPROCS shards at a time.
func generateParallel(m int, seed int64, fn func(rng *rand.Rand, out []Edge)) []Edge {
	edges := make([]Edge, m)
	var wg sync.WaitGroup
	sem := make(chan struct{}, min(runtime.GOMAXPROCS(0), fixedShards))
	for s := 0; s < fixedShards; s++ {
		lo, hi := sliceRange(m, fixedShards, s)
		if lo == hi {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(s, lo, hi int) {
			defer wg.Done()
			defer func() { <-sem }()
			fn(shardRNG(seed, s), edges[lo:hi])
		}(s, lo, hi)
	}
	wg.Wait()
	return edges
}
