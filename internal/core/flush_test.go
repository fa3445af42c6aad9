package core

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/codec"
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
// a write batch apply same-address records in the order they were issued — across the insertion-sort/radix boundary, with
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
	c := bootCluster(tb, g, DefaultConfig(2))
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

// readKeys renders read-record keys in the fixed-width spelling, or — with
// compressed set, for keys that ascend — as the delta-varint column.
func readKeys(compressed bool, keys ...uint64) []byte {
	if compressed {
		return codec.AppendDeltaU64s(nil, keys)
	}
	var out []byte
	for _, k := range keys {
		out = binary.LittleEndian.AppendUint64(out, k)
	}
	return out
}

// FuzzServeReads feeds arbitrary bytes to the copier's read-request path in
// both spellings, under the current job's epoch or a stale one. A frame is
// answered — one word per record, in a response no larger than a frame — or it
// is an error, or it is dropped as stale and counted: never a panic, which
// would take every machine of the process down with the copier, and never an
// answer to a frame that also failed.
func FuzzServeReads(f *testing.F) {
	cfg := DefaultConfig(2)
	reg := obs.NewRegistry()
	cfg.Obs = reg
	c := bootCluster(f, testGraph(f), cfg)
	p, _ := c.AddPropF64("p")
	q, _ := c.AddPropI64("q")
	c.DropProps(q) // a registered id with no column behind it
	m, answers := c.machines[0], c.machines[1].workers[0].respCh
	n := uint64(len(m.cols[p].vals))
	key := func(prop PropID, off uint64) uint64 { return uint64(prop)<<48 | off }
	f.Add(readKeys(false, key(p, 3), key(p, 0), key(p, n-1)), uint32(3), false, false)
	f.Add(readKeys(true, key(p, 0), key(p, 3), key(p, n-1)), uint32(3), true, false)
	f.Add(readKeys(false, key(p, 1)), uint32(2), false, false)          // short payload
	f.Add([]byte{0x80, 0x80, 0x80}, uint32(40), true, false)            // torn varint
	f.Add(readKeys(true, key(p, 1), key(p, 2)), uint32(1), true, false) // trailing bytes
	f.Add(readKeys(false, key(99, 1)), uint32(1), false, false)         // unknown property
	f.Add(readKeys(false, key(q, 1)), uint32(1), false, false)          // dropped property
	f.Add(readKeys(true, key(p, n)), uint32(1), true, false)            // offset past the column
	f.Add(readKeys(false, key(p, 1)), uint32(1), false, true)           // stale epoch
	current := &jobRuntime{id: 1<<32 | 5, abortCh: make(chan struct{})}
	dec := new(wireDec)
	f.Fuzz(func(t *testing.T, payload []byte, count uint32, compressed, stale bool) {
		buf := m.reqPool.Acquire()
		if len(payload) > buf.Room() {
			payload = payload[:buf.Room()] // a frame is no larger than its buffer
		}
		h := comm.Header{Type: comm.MsgReadReq, Src: 1, Count: count & comm.MaxCount, Aux: 5<<32 | 7}
		if compressed {
			h.Flags = comm.FlagCompressed
		}
		if stale {
			h.Aux = 4<<32 | 7
		}
		buf.Reset(h)
		buf.AppendBytes(payload)
		dropped := reg.LifetimeCounters()["stale_read_frames"]
		err := m.serveRequest(buf, dec, current)
		dropped = reg.LifetimeCounters()["stale_read_frames"] - dropped
		switch {
		case stale:
			if err != nil || dropped != 1 {
				t.Fatalf("stale frame: err=%v, %d frames counted as dropped", err, dropped)
			}
		case err == nil:
			var resp *comm.Buffer
			select {
			case resp = <-answers:
			case <-time.After(10 * time.Second):
				t.Fatalf("request %+v was neither refused nor answered", h)
			}
			rh := resp.Header()
			if rh.Type != comm.MsgReadResp || rh.Count != h.Count || rh.Aux != h.Aux || len(resp.Payload()) != 8*int(h.Count) || len(resp.Data) > cfg.BufferSize {
				t.Fatalf("answer %+v with %d payload bytes to request %+v", rh, len(resp.Payload()), h)
			}
			resp.Release()
		}
		if m.respPool.Outstanding() != 0 || m.reqPool.Outstanding() != 0 || len(answers) != 0 {
			t.Fatalf("err=%v: %d response and %d request buffers out, %d answers queued", err, m.respPool.Outstanding(), m.reqPool.Outstanding(), len(answers))
		}
	})
}
