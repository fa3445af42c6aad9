package store

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

// DefaultDecodeCacheBytes is the decode-cache budget used when a compressed
// file is loaded without an explicit Config.DecodeCacheBytes.
const DefaultDecodeCacheBytes int64 = 64 << 20

// AnonAlloc reserves size bytes of anonymous memory outside the Go heap
// (mmap MAP_ANON where available, a heap slice elsewhere) and returns the
// buffer plus its release function. Pages materialize on first touch and an
// madvise(DONTNEED) returns them to the kernel without unmapping — which is
// how the engine keeps big transient arrays (the decode pool, property
// columns of out-of-core runs) out of both the Go GC's and the residency
// window's way.
func AnonAlloc(size int64) ([]byte, func() error, error) { return anonAlloc(size) }

// DecodeCache inflates a compressed file's edge blocks on demand into one pool
// of anonymous memory, min(budget, the file's decoded size) bytes that stay
// resident once touched: no page of it is ever advised away, so its resident
// size is its budget and a warm decode costs no fault and no syscall. A block
// decodes into an extent handed out by a bump pointer that wraps around the
// pool, evicting the unpinned blocks it runs over and stepping past pinned
// ones — FIFO, which on a cyclic scan loses nothing to LRU — so a pool that
// holds the whole file never evicts. A block no extent can take (larger than
// the pool, or no gap between pinned extents) decodes into a one-off buffer
// dropped at its last unpin. Readers go through a Cursor, which pins the one
// block it stands in.
//
// The cache is a singleton per File (EnsureDecodeCache), shared by every
// cluster loaded over the same file, so hot blocks decode once and are
// reused across supersteps and across same-graph pool jobs.
//
// Locking: mu guards pins, extents, the FIFO and the accounting; each block's
// own mutex serializes its decode outside mu, so a decode never stalls
// unrelated pins. A block is pinned before it is placed, so the extent being
// decoded into is never run over.
type DecodeCache struct {
	sf     *File
	pool   []int64
	freeFn func() error
	blocks [][2][]blockState

	mu     sync.Mutex
	bump   int64         // pool offset the next extent starts at
	fifo   []*blockState // blocks holding an extent, in ring order from bump
	used   int64         // bytes of decoded blocks, pooled and one-off
	pinned int64         // blocks with pins > 0

	hits, misses, decodedBytes, evictedBytes atomic.Int64
}

// DecodeCacheStats is a point-in-time counter snapshot. DecodedBytes ==
// EvictedBytes + UsedBytes at any quiescent point.
type DecodeCacheStats struct {
	Hits         int64
	Misses       int64
	DecodedBytes int64
	EvictedBytes int64
	UsedBytes    int64
	PinnedBlocks int64
}

// blockState tracks one edge block's residency.
type blockState struct {
	mu     sync.Mutex // serializes the decode itself
	pins   int32
	lo, hi int64   // its extent pool[lo:hi]; hi == 0 without one
	refs   []int64 // decoded refs — the extent, or a one-off buffer — nil until decoded
}

// EnsureDecodeCache returns the file's decode cache, creating it with the
// given budget on first call (later budgets are ignored — the cache is
// shared); a budget <= 0 or beyond the file's decoded size holds the whole
// file. Only compressed files carry one.
func (sf *File) EnsureDecodeCache(budgetBytes int64) (*DecodeCache, error) {
	if !sf.Compressed() {
		return nil, fmt.Errorf("store: %s is not a compressed file", sf.path)
	}
	sf.cacheMu.Lock()
	defer sf.cacheMu.Unlock()
	if sf.cache != nil {
		return sf.cache, nil
	}
	dc := &DecodeCache{sf: sf, blocks: make([][2][]blockState, sf.hdr.p)}
	for mach := range dc.blocks {
		for orient := range dc.blocks[mach] {
			dc.blocks[mach][orient] = make([]blockState, len(sf.secs[mach][orient].firstRow)-1)
		}
	}
	if total := 16 * int64(sf.hdr.numEdges); budgetBytes <= 0 || budgetBytes > total {
		budgetBytes = total
	}
	buf, freeFn, err := anonAlloc(budgetBytes &^ 7)
	if err != nil {
		return nil, fmt.Errorf("store: decode pool of %d bytes: %w", budgetBytes, err)
	}
	dc.freeFn = freeFn
	if len(buf) > 0 {
		dc.pool = unsafe.Slice((*int64)(unsafe.Pointer(&buf[0])), len(buf)/8)
	}
	sf.cache = dc
	return dc, nil
}

// pin pins block b of (mach, orient), decoding it first when it is not
// resident, and returns its refs — valid until the matching unpin. The
// compressed bytes a miss reads enter res, the caller's residency window (nil
// for none). On error nothing stays pinned.
func (dc *DecodeCache) pin(mach, orient, b int, res *residency) ([]int64, error) {
	o, bs := &dc.sf.secs[mach][orient], &dc.blocks[mach][orient][b]
	dc.mu.Lock()
	if bs.pins++; bs.pins == 1 {
		dc.pinned++
	}
	refs := bs.refs
	dc.mu.Unlock()
	if refs != nil {
		dc.hits.Add(1)
		return refs, nil
	}

	bs.mu.Lock()
	defer bs.mu.Unlock()
	n := o.blockEdges(b)
	var dst []int64
	dc.mu.Lock()
	if refs = bs.refs; refs == nil {
		dst = dc.place(bs, n)
	}
	dc.mu.Unlock()
	if refs != nil { // another pinner decoded it while we waited
		dc.hits.Add(1)
		return refs, nil
	}
	if dst == nil {
		dst = make([]int64, n)
	}
	touch(res, o.comp, o.offs[b], o.offs[b+1])
	if err := o.decodeBlock(b, dst); err != nil {
		dc.unpin(bs)
		return nil, fmt.Errorf("store: machine %d orient %d: %w", mach, orient, err)
	}
	dc.mu.Lock()
	bs.refs = dst
	dc.used += 8 * n
	dc.mu.Unlock()
	dc.misses.Add(1)
	dc.decodedBytes.Add(8 * n)
	return dst, nil
}

// place gives bs an extent of n refs at the bump pointer and returns it, or nil
// when the block exceeds the pool or a lap finds no gap of n between pinned
// extents. Caller holds dc.mu.
func (dc *DecodeCache) place(bs *blockState, n int64) []int64 {
	if bs.hi > 0 { // the extent of a decode that failed
		return dc.pool[bs.lo:bs.hi]
	}
	size, pos := int64(len(dc.pool)), dc.bump
	for lap := int64(0); n <= size && lap <= size; {
		// Run over [pos, end). The FIFO's head is the next extent at or after
		// pos, unless none is left before the pool's end: its lo is then below.
		end := min(pos+n, size)
		var pinned *blockState
		for pinned == nil && len(dc.fifo) > 0 && dc.fifo[0].lo >= pos && dc.fifo[0].lo < end {
			h := dc.fifo[0]
			dc.fifo = dc.fifo[1:]
			if h.pins > 0 {
				pinned = h
				dc.fifo = append(dc.fifo, h) // behind the pointer now, still placed
				continue
			}
			if h.refs != nil {
				dc.used -= 8 * (h.hi - h.lo)
				dc.evictedBytes.Add(8 * (h.hi - h.lo))
			}
			h.lo, h.hi, h.refs = 0, 0, nil
		}
		switch {
		case pinned != nil:
			lap, pos = lap+pinned.hi-pos, pinned.hi
		case end-pos < n: // the pool's tail is too short: wrap
			lap, pos = lap+size-pos, 0
		default:
			bs.lo, bs.hi, dc.bump = pos, end, end
			dc.fifo = append(dc.fifo, bs)
			return dc.pool[pos:end]
		}
	}
	dc.bump = pos // the lap rotated the FIFO this far: its head is the next extent from here
	return nil
}

// unpin drops one pin of bs; the last one takes a one-off buffer with it.
func (dc *DecodeCache) unpin(bs *blockState) {
	dc.mu.Lock()
	if bs.pins--; bs.pins == 0 {
		dc.pinned--
		if bs.hi == 0 && bs.refs != nil {
			dc.used -= 8 * int64(len(bs.refs))
			dc.evictedBytes.Add(8 * int64(len(bs.refs)))
			bs.refs = nil
		}
	}
	dc.mu.Unlock()
}

// PinToken is a claim on the decoded blocks covering a row range. The zero
// value is a valid no-op. Release is idempotent.
type PinToken struct {
	dc     *DecodeCache
	blocks []blockState
}

// Pin ensures every block covering rows [rowLo, rowHi) of (mach, orient) is
// decoded and pinned against eviction, all at once — blocks the pool cannot
// hold beside each other take one-off buffers — and returns the token that
// releases them. On error nothing stays pinned.
func (dc *DecodeCache) Pin(mach, orient int, rowLo, rowHi int64) (PinToken, error) {
	blo, bhi := dc.sf.secs[mach][orient].blockRange(rowLo, rowHi)
	for b := blo; b < bhi; b++ {
		if _, err := dc.pin(mach, orient, b, nil); err != nil {
			(&PinToken{dc: dc, blocks: dc.blocks[mach][orient][blo:b]}).Release()
			return PinToken{}, err
		}
	}
	return PinToken{dc: dc, blocks: dc.blocks[mach][orient][blo:bhi]}, nil
}

// Release drops the token's pins. Safe on the zero token; a second call on
// the same token is a no-op.
func (t *PinToken) Release() {
	if t.dc == nil {
		return
	}
	for i := range t.blocks {
		t.dc.unpin(&t.blocks[i])
	}
	t.dc = nil
}

// Cursor reads the rows of one (machine, orientation) section of a compressed
// load, holding a pin on the one block its last row lies in: a slice Row
// returned is valid until the cursor's next Row or Release. A cursor belongs
// to one goroutine; any number may read a section at once.
type Cursor struct {
	dc           *DecodeCache
	res          *residency
	o            *orientSec
	mach, orient int

	b      int     // the pinned block
	refs   []int64 // its decoded refs; nil when nothing is pinned
	lo, hi int64   // its rows [lo, hi); empty when nothing is pinned
	base   int64   // o.rows[lo]
}

// Cursor returns a cursor over (mach, orient) of a compressed load.
func (l *Load) Cursor(mach, orient int) Cursor {
	return Cursor{dc: l.dc, res: l.res, o: &l.sf.secs[mach][orient], mach: mach, orient: orient}
}

// Row returns node's refs, moving the cursor's pin to the row's block when it
// is not there already. A row without edges lies in no block and moves nothing.
func (c *Cursor) Row(node int64) ([]int64, error) {
	s, e := c.o.rows[node], c.o.rows[node+1]
	if s == e {
		return nil, nil
	}
	if node < c.lo || node >= c.hi {
		if err := c.seek(node); err != nil {
			return nil, err
		}
	}
	return c.refs[s-c.base : e-c.base], nil
}

// seek moves the pin to the block holding node: the next one on a scan, found
// by binary search otherwise.
func (c *Cursor) seek(node int64) error {
	first, b := c.o.firstRow, c.b+1
	if c.refs == nil || b+1 >= len(first) || node < first[b] || node >= first[b+1] {
		b = sort.Search(len(first)-1, func(i int) bool { return first[i+1] > node })
	}
	c.Release()
	refs, err := c.dc.pin(c.mach, c.orient, b, c.res)
	if err != nil {
		return err
	}
	c.b, c.refs, c.lo, c.hi, c.base = b, refs, first[b], first[b+1], c.o.rows[first[b]]
	return nil
}

// Release drops the cursor's pin. Idempotent, and a no-op on the zero Cursor;
// the cursor stays usable.
func (c *Cursor) Release() {
	if c.refs != nil {
		c.dc.unpin(&c.dc.blocks[c.mach][c.orient][c.b])
		c.refs, c.lo, c.hi = nil, 0, 0
	}
}

// Stats snapshots the cache counters.
func (dc *DecodeCache) Stats() DecodeCacheStats {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	return DecodeCacheStats{
		Hits:         dc.hits.Load(),
		Misses:       dc.misses.Load(),
		DecodedBytes: dc.decodedBytes.Load(),
		EvictedBytes: dc.evictedBytes.Load(),
		UsedBytes:    dc.used,
		PinnedBlocks: dc.pinned,
	}
}

// free unmaps the pool. Called under File.cacheMu from File.Close.
func (dc *DecodeCache) free() {
	dc.freeFn() //nolint:errcheck
	dc.pool = nil
}
