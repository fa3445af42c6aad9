package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/store"
)

// u64PairSorter is the flush path's previous sort — sort.Sort over the key
// column with the tag column carried through Swap — kept as the reference
// BenchmarkFlushSort measures sortPairs against.
type u64PairSorter struct{ keys, tags []uint64 }

func (s *u64PairSorter) Len() int           { return len(s.keys) }
func (s *u64PairSorter) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *u64PairSorter) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.tags[i], s.tags[j] = s.tags[j], s.tags[i]
}

// TestSortPairsMatchesStable: sortPairs orders (key, tag) pairs exactly as
// sort.Stable does — duplicates keep their arrival order, which is what lets
// a write batch with combining ablated apply same-address records in the
// order they were issued — across the insertion-sort/radix boundary, with
// keys that vary in one byte, in every byte, and not at all.
func TestSortPairsMatchesStable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := map[string]func() uint64{
		"read-keys":  func() uint64 { return 3<<48 | uint64(rng.Intn(40000)) },
		"write-keys": func() uint64 { return uint64(1+rng.Intn(2))<<48 | uint64(rng.Intn(3))<<40 | uint64(rng.Intn(70000)) },
		"duplicates": func() uint64 { return 5<<48 | uint64(rng.Intn(17)) },
		"all-equal":  func() uint64 { return 9<<48 | 1234 },
		"full-width": func() uint64 { return rng.Uint64() },
	}
	var w worker
	for name, gen := range shapes {
		for _, n := range []int{0, 1, 2, 17, radixMinRecords - 1, radixMinRecords, radixMinRecords + 1, 1000, 4094} {
			keys, tags := make([]uint64, n), make([]uint64, n)
			for i := range keys {
				keys[i], tags[i] = gen(), uint64(i)
			}
			want := &u64PairSorter{append([]uint64(nil), keys...), append([]uint64(nil), tags...)}
			sort.Stable(want)
			w.sortPairs(keys, tags)
			for i := range keys {
				if keys[i] != want.keys[i] || tags[i] != want.tags[i] {
					t.Fatalf("%s n=%d: pair %d = (%#x, %d), sort.Stable has (%#x, %d)", name, n, i, keys[i], tags[i], want.keys[i], want.tags[i])
				}
			}
		}
	}
}

// readBatchKeys returns n distinct read-record keys that machine 0's workers
// buffer toward machine 1 during an in-edge pull of prop on g cut in two —
// the flush path's real input: prop<<48 | offset in adjacency (encounter)
// order. It starts halfway into the partition: CSR rows are sorted, so the
// hub rows at the front would yield one long already-sorted run, which the
// flush path never sorts at all.
func readBatchKeys(tb testing.TB, g *graph.Graph, prop PropID, n int) []uint64 {
	tb.Helper()
	cfg := DefaultConfig(2)
	cfg.GhostThreshold = GhostDisabled
	c := bootCluster(tb, g, cfg)
	seen := make(map[uint64]bool, n)
	keys := make([]uint64, 0, n)
	refs := c.machines[0].store.views[store.OrientIn].refs
	for _, ref := range refs[len(refs)/2:] {
		if ref >= 0 {
			continue
		}
		_, off := unpackRemote(ref)
		k := uint64(prop)<<48 | uint64(off)
		if !seen[k] {
			seen[k] = true
			if keys = append(keys, k); len(keys) == n {
				return keys
			}
		}
	}
	tb.Fatalf("graph has only %d distinct remote in-neighbors, need %d", len(keys), n)
	return nil
}

// BenchmarkFlushSort measures the flush path's sort on real read batches — a
// full default 32 KiB buffer (4094 records) and a 32 K-record batch (a
// 256 KiB buffer) — as sortPairs does it and as the sort.Sort it replaced
// did. Each iteration re-copies the unsorted batch; the copy is in both.
func BenchmarkFlushSort(b *testing.B) {
	g, err := graph.RMAT(17, 16, graph.TwitterLike(), 20151115)
	if err != nil {
		b.Fatal(err)
	}
	all := readBatchKeys(b, g, 3, 32<<10)
	for _, n := range []int{(32<<10 - comm.HeaderSize) / readRecSize, 32 << 10} {
		batch := all[:n]
		keys, tags := make([]uint64, n), make([]uint64, n)
		reset := func() {
			copy(keys, batch)
			for i := range tags {
				tags[i] = uint64(i)
			}
		}
		b.Run(fmt.Sprintf("radix/n=%d", n), func(b *testing.B) {
			var w worker
			for i := 0; i < b.N; i++ {
				reset()
				w.sortPairs(keys, tags)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/record")
		})
		b.Run(fmt.Sprintf("sort.Sort/n=%d", n), func(b *testing.B) {
			s := &u64PairSorter{keys, tags}
			for i := 0; i < b.N; i++ {
				reset()
				sort.Sort(s)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/record")
		})
	}
}

// TestDedupTable: get/put/clear behave like the map they replaced through
// growth, overwrites, thousands of generations and a generation-counter
// wrap.
func TestDedupTable(t *testing.T) {
	var tab dedupTable
	if _, ok := tab.get(42); ok {
		t.Fatal("zero table reports a hit")
	}
	tab.clear()
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 3000; round++ {
		if round == 1500 {
			tab.gen = ^uint32(0) - 2 // the next clears wrap the counter
		}
		ref := make(map[uint64]uint32)
		n := rng.Intn(600)
		for i := 0; i < n; i++ {
			k := uint64(rng.Intn(4))<<48 | uint64(rng.Intn(900))
			if v, ok := tab.get(k); ok != (ref[k] != 0) || (ok && v != ref[k]) {
				t.Fatalf("round %d: get(%#x) = %d,%v, map has %d", round, k, v, ok, ref[k])
			}
			v := uint32(i + 1)
			tab.put(k, v)
			ref[k] = v
		}
		if tab.n != len(ref) {
			t.Fatalf("round %d: %d live entries, map has %d", round, tab.n, len(ref))
		}
		for k, v := range ref {
			if got, ok := tab.get(k); !ok || got != v {
				t.Fatalf("round %d: get(%#x) = %d,%v, want %d", round, k, got, ok, v)
			}
		}
		tab.clear()
		for k := range ref {
			if _, ok := tab.get(k); ok {
				t.Fatalf("round %d: %#x survived clear", round, k)
			}
		}
	}
	if len(tab.slots) > 4096 {
		t.Errorf("table grew to %d slots for at most 600 live entries", len(tab.slots))
	}
}

// BenchmarkDedupTable measures one read-combining window — look up every
// record of a real 4094-record batch twice (a miss then a hit, the shape of
// a 50 % dedup ratio), insert the misses, clear — on the open-addressed table
// and on the map[uint64]uint32 it replaced.
func BenchmarkDedupTable(b *testing.B) {
	g, err := graph.RMAT(14, 16, graph.TwitterLike(), 20151115)
	if err != nil {
		b.Fatal(err)
	}
	n := (32<<10 - comm.HeaderSize) / readRecSize
	keys := readBatchKeys(b, g, 3, n)
	var sink uint32
	b.Run("table", func(b *testing.B) {
		var tab dedupTable
		for i := 0; i < b.N; i++ {
			for slot, k := range keys {
				if _, ok := tab.get(k); !ok {
					tab.put(k, uint32(slot))
				}
				v, _ := tab.get(k)
				sink += v
			}
			tab.clear()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/record")
	})
	b.Run("map", func(b *testing.B) {
		m := make(map[uint64]uint32, 256)
		for i := 0; i < b.N; i++ {
			for slot, k := range keys {
				if _, ok := m[k]; !ok {
					m[k] = uint32(slot)
				}
				sink += m[k]
			}
			clear(m)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/record")
	})
	_ = sink
}

// TestStaleReadFrameDropped: a read request whose epoch stamp is not the
// serving machine's current job — here a torn compressed frame, the shape a
// truncate fault leaves behind — is dropped before any decode, counted, and
// fails nothing; with the right epoch the same bytes are a decode error.
func TestStaleReadFrameDropped(t *testing.T) {
	cfg := DefaultConfig(2)
	reg := obs.NewRegistry()
	cfg.Obs = reg
	c := bootCluster(t, testGraph(t), cfg)
	if _, err := c.AddPropF64("p"); err != nil {
		t.Fatal(err)
	}
	m := c.machines[0]
	torn := func(epoch uint64) *comm.Buffer {
		buf := m.reqPool.Acquire()
		buf.Reset(comm.Header{Type: comm.MsgReadReq, Src: 1, Count: 40, Flags: comm.FlagCompressed, Aux: epoch<<32 | 7})
		buf.AppendBytes([]byte{0x80, 0x80, 0x80})
		return buf
	}
	current := &jobRuntime{id: 1<<32 | 5, abortCh: make(chan struct{})}
	dec := new(wireDec)
	for _, tc := range []struct {
		name  string
		jr    *jobRuntime
		epoch uint64
	}{{"between jobs", nil, 5}, {"earlier job", current, 4}} {
		before := reg.LifetimeCounters()["stale_read_frames"]
		if err := m.serveRequest(torn(tc.epoch), dec, tc.jr); err != nil {
			t.Errorf("%s: stale frame was served: %v", tc.name, err)
		}
		if got := reg.LifetimeCounters()["stale_read_frames"] - before; got != 1 {
			t.Errorf("%s: stale_read_frames advanced by %d, want 1", tc.name, got)
		}
	}
	// The epoch is the job id's low half, so job 1<<32|5 matches stamp 5.
	if err := m.serveRequest(torn(5), dec, current); err == nil {
		t.Error("torn frame of the current job decoded without error")
	}
	if !c.PoolsQuiescent() {
		t.Error("a served or dropped frame did not return to its pool")
	}
}
