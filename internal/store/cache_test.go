package store

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/graph"
)

// checkPool asserts the cache's bookkeeping against a walk of every block: the
// running pinned count, UsedBytes, the FIFO holding exactly the blocks with an
// extent, no two extents overlapping, and decoded = evicted + used.
func checkPool(t testing.TB, dc *DecodeCache) DecodeCacheStats {
	t.Helper()
	st := dc.Stats()
	dc.mu.Lock()
	defer dc.mu.Unlock()
	var pinned, used int64
	var placed []*blockState
	for mach := range dc.blocks {
		for orient := range dc.blocks[mach] {
			for b := range dc.blocks[mach][orient] {
				bs := &dc.blocks[mach][orient][b]
				if bs.pins > 0 {
					pinned++
				}
				used += 8 * int64(len(bs.refs))
				if bs.hi > 0 {
					placed = append(placed, bs)
				}
			}
		}
	}
	if st.PinnedBlocks != pinned {
		t.Fatalf("running pinned count %d, a walk of the blocks counts %d", st.PinnedBlocks, pinned)
	}
	if st.UsedBytes != used {
		t.Fatalf("UsedBytes %d, the blocks hold %d", st.UsedBytes, used)
	}
	if st.DecodedBytes != st.EvictedBytes+st.UsedBytes {
		t.Fatalf("decoded %d != evicted %d + used %d", st.DecodedBytes, st.EvictedBytes, st.UsedBytes)
	}
	if len(placed) != len(dc.fifo) {
		t.Fatalf("%d blocks hold an extent, the FIFO lists %d", len(placed), len(dc.fifo))
	}
	slices.SortFunc(placed, func(a, b *blockState) int { return int(a.lo - b.lo) })
	for i, bs := range placed {
		if bs.hi > int64(len(dc.pool)) || i > 0 && bs.lo < placed[i-1].hi {
			t.Fatalf("extent [%d, %d) overlaps its neighbour or the pool's end %d", bs.lo, bs.hi, len(dc.pool))
		}
	}
	return st
}

// largestBlock locates the file's largest edge block and its decoded size.
func largestBlock(sf *File) (mach, orient, block int, bytes int64) {
	for m := range sf.secs {
		for or := range sf.secs[m] {
			o := &sf.secs[m][or]
			for b := 0; b+1 < len(o.firstRow); b++ {
				if n := 8 * o.blockEdges(b); n > bytes {
					mach, orient, block, bytes = m, or, b, n
				}
			}
		}
	}
	return
}

// loadWithPool returns a load over sf whose decode pool is exactly budget bytes
// (the whole file when negative): EnsureDecodeCache takes the budget as given,
// where NewLoad alone would raise it to the largest block.
func loadWithPool(t testing.TB, sf *File, budget int64) *Load {
	t.Helper()
	if _, err := sf.EnsureDecodeCache(budget); err != nil {
		t.Fatal(err)
	}
	ld, err := sf.NewLoad(0, budget)
	if err != nil {
		t.Fatal(err)
	}
	return ld
}

func maxBlockBytes(sf *File) int64 {
	_, _, _, bytes := largestBlock(sf)
	return bytes
}

// TestDecodeCacheEviction drives a multi-block section through a one-block
// budget: every re-pin after eviction must re-decode to the same bits, stats
// must track hits/misses/evictions, and pins must block eviction.
func TestDecodeCacheEviction(t *testing.T) {
	g, err := graph.Uniform(512, 80000, 9)
	if err != nil {
		t.Fatal(err)
	}
	raw, comp := writeOpen(t, g, 2, WriteGraph), writeOpen(t, g, 2, WriteGraphCompressed)
	ld := loadWithPool(t, comp, maxBlockBytes(comp)) // exactly one block
	dc := ld.dc
	if again, err := comp.EnsureDecodeCache(1 << 30); err != nil || again != dc {
		t.Fatal("EnsureDecodeCache is not a singleton")
	}
	if _, err := raw.EnsureDecodeCache(0); err == nil {
		t.Fatal("EnsureDecodeCache accepted a raw file")
	}

	sec := raw.Section(0)
	rows := comp.Section(0).OutRows
	numLocal := int64(len(rows)) - 1
	o := &comp.secs[0][OrientOut]
	if nb := len(o.firstRow) - 1; nb < 3 {
		t.Fatalf("test graph yields %d blocks, want >= 3 for eviction churn", nb)
	}
	// check pins rows [lo, hi) the way the benchmark does, all their blocks at
	// once, and reads them through a cursor while the token is held.
	check := func(lo, hi int64) {
		tok, err := dc.Pin(0, OrientOut, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		defer tok.Release()
		cur := ld.Cursor(0, OrientOut)
		defer cur.Release()
		for u := lo; u < hi; u++ {
			refs, err := cur.Row(u)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(refs, sec.OutRefs[rows[u]:rows[u+1]]) {
				t.Fatalf("row %d = %v, want %v", u, refs, sec.OutRefs[rows[u]:rows[u+1]])
			}
		}
		checkPool(t, dc) // pins held, some of them overlapping
	}
	// Two passes over row windows: the second pass re-decodes what the
	// budget evicted during the first.
	step := numLocal / 8
	for pass := 0; pass < 2; pass++ {
		for lo := int64(0); lo < numLocal; lo += step {
			hi := lo + step
			if hi > numLocal {
				hi = numLocal
			}
			check(lo, hi)
		}
	}
	st := checkPool(t, dc)
	if st.Misses == 0 || st.EvictedBytes == 0 || st.Hits == 0 {
		t.Fatalf("no eviction churn: %+v", st)
	}
	if st.DecodedBytes <= st.EvictedBytes-st.UsedBytes {
		t.Fatalf("implausible accounting: %+v", st)
	}
	if st.PinnedBlocks != 0 {
		t.Fatalf("%d blocks pinned after release", st.PinnedBlocks)
	}
	if st.UsedBytes > maxBlockBytes(comp) {
		t.Fatalf("%d bytes held with nothing pinned, the pool is %d", st.UsedBytes, maxBlockBytes(comp))
	}

	// A held pin survives budget pressure: pin block 0's rows, churn the
	// rest, and the pinned range must still read back correctly.
	tok, err := dc.Pin(0, OrientOut, 0, o.firstRow[1])
	if err != nil {
		t.Fatal(err)
	}
	held := ld.Cursor(0, OrientOut)
	first, err := held.Row(0)
	if err != nil || len(first) == 0 {
		t.Fatalf("row 0: %v, %v", first, err)
	}
	for lo := o.firstRow[1]; lo < numLocal; lo += step {
		hi := lo + step
		if hi > numLocal {
			hi = numLocal
		}
		check(lo, hi)
	}
	if !slices.Equal(first, sec.OutRefs[:rows[1]]) {
		t.Fatalf("pinned row 0 lost: %v, want %v", first, sec.OutRefs[:rows[1]])
	}
	held.Release()
	hits := dc.Stats().Hits
	check(0, o.firstRow[1]) // still decoded: the token alone kept it
	if got := dc.Stats().Hits - hits; got != 2 {
		t.Fatalf("reading the pinned block again took %d hits, want 2 (Pin and the cursor)", got)
	}
	tok.Release()
	tok.Release() // idempotent
	held.Release()
	if st := checkPool(t, dc); st.PinnedBlocks != 0 {
		t.Fatalf("%d blocks pinned after idempotent release", st.PinnedBlocks)
	}
}

// TestDecodePoolRandomPins holds up to seven pins on seeded random blocks of
// every section over pools of half a block to four and a half, and after every
// pin and unpin checks the pool's bookkeeping and every held block's refs
// against the raw file: no placement, failed lap or eviction writes over a
// pinned extent or leaves two blocks on one.
func TestDecodePoolRandomPins(t *testing.T) {
	g, err := graph.RMAT(12, 16, graph.TwitterLike(), 5)
	if err != nil {
		t.Fatal(err)
	}
	raw := writeOpen(t, g, 2, WriteGraph)
	type pin struct {
		bs         *blockState
		refs, want []int64
	}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		comp := writeOpen(t, g, 2, WriteGraphCompressed)
		budget := maxBlockBytes(comp)/2 + rng.Int63n(4*maxBlockBytes(comp))
		dc := loadWithPool(t, comp, budget).dc
		var held []pin
		for step := 0; step < 1500; step++ {
			if len(held) > 0 && (rng.Intn(2) == 0 || len(held) == 7) {
				i := rng.Intn(len(held))
				dc.unpin(held[i].bs)
				held = slices.Delete(held, i, i+1)
			} else {
				mach, orient := rng.Intn(2), rng.Intn(2)
				o, ro := &comp.secs[mach][orient], &raw.secs[mach][orient]
				b := rng.Intn(len(o.firstRow) - 1)
				refs, err := dc.pin(mach, orient, b, nil)
				if err != nil {
					t.Fatal(err)
				}
				held = append(held, pin{&dc.blocks[mach][orient][b], refs, ro.refs[o.rows[o.firstRow[b]]:o.rows[o.firstRow[b+1]]]})
			}
			checkPool(t, dc)
			for _, p := range held {
				if !slices.Equal(p.refs, p.want) {
					t.Fatalf("seed %d step %d: a pinned block's refs changed under it", seed, step)
				}
			}
		}
		for _, p := range held {
			dc.unpin(p.bs)
		}
		if st := checkPool(t, dc); st.PinnedBlocks != 0 || st.UsedBytes > budget {
			t.Fatalf("seed %d: %+v with nothing pinned, pool %d", seed, st, budget)
		}
	}
}

// sectionRows reads every row of (mach, orient) through cur in the given node
// order and compares it with the raw file's.
func sectionRows(t testing.TB, cur *Cursor, raw *File, mach, orient int, order []int64) {
	t.Helper()
	o := &raw.secs[mach][orient]
	for _, u := range order {
		refs, err := cur.Row(u)
		if err != nil {
			t.Error(err)
			return
		}
		if !slices.Equal(refs, o.refs[o.rows[u]:o.rows[u+1]]) {
			t.Errorf("machine %d orient %d row %d = %v, want %v", mach, orient, u, refs, o.refs[o.rows[u]:o.rows[u+1]])
			return
		}
	}
}

// TestCursorMatchesRawFile: every row of every section read through a Cursor
// equals the raw file's, in order, whatever the pool holds — nothing (every
// block one-off), one block, a quarter of the file, all of it — on an
// ascending scan and on seeded random seeks, and with two goroutines' cursors
// over one section at once.
func TestCursorMatchesRawFile(t *testing.T) {
	g, err := graph.RMAT(12, 16, graph.TwitterLike(), 5)
	if err != nil {
		t.Fatal(err)
	}
	raw := writeOpen(t, g, 2, WriteGraph)
	probe := writeOpen(t, g, 2, WriteGraphCompressed)
	block, total := maxBlockBytes(probe), 16*g.NumEdges()
	for _, budget := range []int64{block / 2, block, total / 4, -1} {
		comp := writeOpen(t, g, 2, WriteGraphCompressed)
		ld := loadWithPool(t, comp, budget)
		rng := rand.New(rand.NewSource(budget))
		for mach := 0; mach < 2; mach++ {
			for orient := 0; orient < 2; orient++ {
				n := int64(len(comp.secs[mach][orient].rows)) - 1
				scan := make([]int64, n)
				for u := range scan {
					scan[u] = int64(u)
				}
				seeks := make([]int64, 2000)
				for i := range seeks {
					seeks[i] = rng.Int63n(n)
				}
				cur := ld.Cursor(mach, orient)
				sectionRows(t, &cur, raw, mach, orient, scan)
				sectionRows(t, &cur, raw, mach, orient, seeks)
				if st := checkPool(t, ld.dc); st.PinnedBlocks != 1 {
					t.Fatalf("budget %d: a live cursor holds %d blocks, want 1", budget, st.PinnedBlocks)
				}
				cur.Release()
				// Two goroutines, one scanning and one seeking, over the section.
				var wg sync.WaitGroup
				for _, order := range [][]int64{scan, seeks} {
					wg.Add(1)
					go func() {
						defer wg.Done()
						cur := ld.Cursor(mach, orient)
						defer cur.Release()
						sectionRows(t, &cur, raw, mach, orient, order)
					}()
				}
				wg.Wait()
				if t.Failed() {
					t.Fatalf("budget %d: rows differ", budget)
				}
			}
		}
		if st := checkPool(t, ld.dc); st.PinnedBlocks != 0 {
			t.Fatalf("budget %d: %d blocks pinned after release", budget, st.PinnedBlocks)
		} else if budget < 0 && (st.EvictedBytes != 0 || st.UsedBytes != total) {
			t.Fatalf("a pool holding the whole file evicted or lost something: %+v", st)
		}
	}
}

// TestDecodePoolStaysResidentAndBounded: the pool is never advised — a pass
// through a pool a quarter of the file re-decodes without one madvise on it —
// what the cache holds never exceeds the budget plus one block per live
// cursor, a pool that holds the file serves a second pass from hits alone, and
// a block the pool cannot place (too large, or every extent pinned) decodes
// one-off and is gone with its pin.
func TestDecodePoolStaysResidentAndBounded(t *testing.T) {
	g, err := graph.RMAT(12, 16, graph.TwitterLike(), 5)
	if err != nil {
		t.Fatal(err)
	}
	total := 16 * g.NumEdges()
	pass := func(t *testing.T, ld *Load, each func()) {
		t.Helper()
		for mach := 0; mach < 2; mach++ {
			for orient := 0; orient < 2; orient++ {
				cur := ld.Cursor(mach, orient)
				for u := int64(0); u+1 < int64(len(ld.sf.secs[mach][orient].rows)); u++ {
					if _, err := cur.Row(u); err != nil {
						t.Fatal(err)
					}
					if each != nil {
						each()
					}
				}
				cur.Release()
			}
		}
	}

	t.Run("quarter", func(t *testing.T) {
		comp := writeOpen(t, g, 2, WriteGraphCompressed)
		ld := loadWithPool(t, comp, total/4)
		dc, block := ld.dc, maxBlockBytes(comp)
		pass(t, ld, nil)
		lo := uintptr(unsafe.Pointer(&dc.pool[0]))
		hi := lo + 8*uintptr(len(dc.pool))
		advised, real := 0, advise
		advise = func(b []byte, advice int) {
			if len(b) > 0 && uintptr(unsafe.Pointer(&b[0])) >= lo && uintptr(unsafe.Pointer(&b[0])) < hi {
				advised++
			}
			real(b, advice)
		}
		defer func() { advise = real }()
		before := dc.Stats()
		pass(t, ld, func() {
			if st := dc.Stats(); st.UsedBytes > total/4+block {
				t.Fatalf("cache holds %d bytes, budget %d + one cursor's block %d", st.UsedBytes, total/4, block)
			}
		})
		if st := checkPool(t, dc); advised != 0 || st.Misses == before.Misses || st.EvictedBytes == before.EvictedBytes {
			t.Fatalf("second pass: %d advise calls on the pool (want 0), stats %+v after %+v", advised, st, before)
		}
	})

	t.Run("whole", func(t *testing.T) {
		comp := writeOpen(t, g, 2, WriteGraphCompressed)
		ld := loadWithPool(t, comp, 2*total) // clamped to the decoded size
		if got := 8 * int64(len(ld.dc.pool)); got != total {
			t.Fatalf("pool of %d bytes, want the decoded size %d", got, total)
		}
		pass(t, ld, nil)
		before := ld.dc.Stats()
		pass(t, ld, nil)
		st := checkPool(t, ld.dc)
		if st.Misses != before.Misses || st.Hits == before.Hits || st.EvictedBytes != 0 || st.UsedBytes != total {
			t.Fatalf("second pass through a pool holding the file: %+v after %+v", st, before)
		}
	})

	t.Run("every extent pinned", func(t *testing.T) {
		comp := writeOpen(t, g, 2, WriteGraphCompressed)
		mach, orient, big, block := largestBlock(comp)
		ld := loadWithPool(t, comp, block)
		dc, o := ld.dc, &comp.secs[mach][orient]
		// The largest block fills the pool; pinned, it leaves no extent.
		tok, err := dc.Pin(mach, orient, o.firstRow[big], o.firstRow[big]+1)
		if err != nil {
			t.Fatal(err)
		}
		other := (big + 1) % (len(o.firstRow) - 1)
		cur := ld.Cursor(mach, orient)
		if _, err := cur.Row(o.firstRow[other]); err != nil {
			t.Fatal(err)
		}
		bs := &dc.blocks[mach][orient][other]
		if st := checkPool(t, dc); other == big || bs.hi != 0 || bs.refs == nil || st.UsedBytes != block+8*int64(len(bs.refs)) {
			t.Fatalf("block %d decoded beside a fully pinned pool holds extent [%d, %d), cache %+v", other, bs.lo, bs.hi, st)
		}
		cur.Release()
		tok.Release()
		if st := checkPool(t, dc); bs.refs != nil || st.UsedBytes != block {
			t.Fatalf("the one-off buffer outlived its pin: %+v", st)
		}
	})

	// A lap that finds no gap steps past every pinned extent; the extents it
	// stepped past must still be the ones the next placement runs over.
	t.Run("failed lap keeps the ring", func(t *testing.T) {
		raw, comp := writeOpen(t, g, 2, WriteGraph), writeOpen(t, g, 2, WriteGraphCompressed)
		o := &comp.secs[0][OrientOut]
		if nb := len(o.firstRow) - 1; nb < 4 {
			t.Fatalf("section of %d blocks, want >= 4", nb)
		}
		three := 8 * (o.rows[o.firstRow[3]] - o.rows[0])
		ld := loadWithPool(t, comp, three) // blocks 0, 1 and 2 fill it
		dc := ld.dc
		tok, err := dc.Pin(0, OrientOut, 0, o.firstRow[3])
		if err != nil {
			t.Fatal(err)
		}
		held := ld.Cursor(0, OrientOut) // a second pin on block 0
		first, err := held.Row(0)
		if err != nil || len(first) == 0 {
			t.Fatalf("row 0: %v, %v", first, err)
		}
		cur := ld.Cursor(0, OrientOut)
		if _, err := cur.Row(o.firstRow[3]); err != nil {
			t.Fatal(err)
		}
		if bs := &dc.blocks[0][OrientOut][3]; bs.hi != 0 || bs.refs == nil {
			t.Fatalf("block 3 beside three pinned extents holds extent [%d, %d)", bs.lo, bs.hi)
		}
		cur.Release()
		tok.Release()
		checkPool(t, dc)
		// Block 0 is still pinned, 1 and 2 are not: everything else decodes
		// through their extents, twice over, and block 0 is never written.
		for pass := 0; pass < 2; pass++ {
			for mach := 0; mach < 2; mach++ {
				for orient := 0; orient < 2; orient++ {
					scan := make([]int64, len(comp.secs[mach][orient].rows)-1)
					for u := range scan {
						scan[u] = int64(u)
					}
					cur := ld.Cursor(mach, orient)
					sectionRows(t, &cur, raw, mach, orient, scan)
					cur.Release()
					checkPool(t, dc)
				}
			}
			if ro := &raw.secs[0][OrientOut]; t.Failed() || pass == 0 && !slices.Equal(first, ro.refs[:ro.rows[1]]) {
				t.Fatalf("pass %d: rows differ, or the pinned row 0 was decoded over", pass)
			}
			held.Release() // the second pass runs over block 0 too
		}
		if st := checkPool(t, dc); st.PinnedBlocks != 0 || st.UsedBytes > three {
			t.Fatalf("after release: %+v, pool %d", st, three)
		}
	})

	t.Run("larger than the pool", func(t *testing.T) {
		comp := writeOpen(t, g, 2, WriteGraphCompressed)
		ld := loadWithPool(t, comp, 8) // no block with two edges fits
		if small, err := writeOpen(t, g, 2, WriteGraphCompressed).NewLoad(0, 8); err != nil || 8*int64(len(small.dc.pool)) != maxBlockBytes(comp) {
			t.Fatalf("a load's own pool is not raised to the largest block: %v", err)
		}
		pass(t, ld, func() {
			if st := ld.dc.Stats(); st.PinnedBlocks > 1 || st.UsedBytes > 8+maxBlockBytes(comp) {
				t.Fatalf("one cursor over a pool too small for any block holds %+v", st)
			}
		})
		if st := checkPool(t, ld.dc); st.UsedBytes > 8 || st.Misses == 0 || st.EvictedBytes < total-8 {
			t.Fatalf("after release: %+v", st)
		}
	})
}
