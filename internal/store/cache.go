package store

import (
	"fmt"
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
// how the engine keeps big transient arrays (decode arenas, property
// columns of out-of-core runs) out of both the Go GC's and the residency
// window's way.
func AnonAlloc(size int64) ([]byte, func() error, error) { return anonAlloc(size) }

// DecodeCache inflates a compressed file's edge blocks on demand into
// per-section anonymous arenas, bounded by a byte budget. Each (machine,
// orientation) arena is a full-length []int64 view sized to the section's
// edge count, so the engine indexes decoded refs absolutely — jr.refs[e] —
// exactly as it indexes a raw section's mapping; only the claim/release hooks
// know blocks exist. The address space is reserved up front but pages materialize
// only when a block decodes; eviction returns a cold block's interior pages
// to the kernel (madvise DONTNEED) and marks it for re-decode.
//
// The cache is a singleton per File (EnsureDecodeCache), shared by every
// cluster loaded over the same file, so hot blocks decode once and are
// reused across supersteps and across same-graph pool jobs.
//
// Locking: mu guards all pin/decoded/LRU/accounting state; each block's own
// mutex serializes its decode outside mu, so a large decode never stalls
// unrelated claims. Pinned blocks are never evicted — a claim pins before it
// reads and may push used past the budget transiently.
type DecodeCache struct {
	sf     *File
	budget int64 // <= 0: unbounded

	mu     sync.Mutex
	used   int64
	lru    blockList
	arenas [][2]*arena

	hits, misses, decodedBytes, evictedBytes atomic.Int64
}

// DecodeCacheStats is a point-in-time counter snapshot.
type DecodeCacheStats struct {
	Hits         int64
	Misses       int64
	DecodedBytes int64
	EvictedBytes int64
	UsedBytes    int64
	PinnedBlocks int64
}

// arena is one section-orientation's decode target.
type arena struct {
	mach, orient int
	buf          []byte
	refs         []int64
	freeFn       func() error
	blocks       []blockState
}

// blockState tracks one edge block's residency in its arena.
type blockState struct {
	mu      sync.Mutex // serializes the decode itself
	a       *arena
	lo, hi  int64 // byte range in the arena
	decoded bool
	pins    int32
	prev    *blockState // LRU links, valid while decoded
	next    *blockState
}

func (bs *blockState) bytes() int64 { return bs.hi - bs.lo }

// blockList is an intrusive LRU list; head.next is most recent.
type blockList struct{ head blockState }

func (l *blockList) init() { l.head.prev, l.head.next = &l.head, &l.head }
func (l *blockList) remove(bs *blockState) {
	bs.prev.next, bs.next.prev = bs.next, bs.prev
	bs.prev, bs.next = nil, nil
}
func (l *blockList) pushFront(bs *blockState) {
	bs.prev, bs.next = &l.head, l.head.next
	l.head.next.prev = bs
	l.head.next = bs
}
func (l *blockList) moveToFront(bs *blockState) {
	l.remove(bs)
	l.pushFront(bs)
}

// EnsureDecodeCache returns the file's decode cache, creating it with the
// given budget on first call (later budgets are ignored — the cache is
// shared). Only compressed files carry one.
func (sf *File) EnsureDecodeCache(budgetBytes int64) (*DecodeCache, error) {
	if !sf.Compressed() {
		return nil, fmt.Errorf("store: %s is not a compressed file", sf.path)
	}
	sf.cacheMu.Lock()
	defer sf.cacheMu.Unlock()
	if sf.cache != nil {
		return sf.cache, nil
	}
	dc := &DecodeCache{sf: sf, budget: budgetBytes}
	dc.lru.init()
	dc.arenas = make([][2]*arena, sf.hdr.p)
	for mach := 0; mach < sf.hdr.p; mach++ {
		for orient := 0; orient < 2; orient++ {
			o := &sf.secs[mach][orient]
			edges := o.rows[len(o.rows)-1]
			buf, freeFn, err := anonAlloc(8 * edges)
			if err != nil {
				dc.free()
				return nil, fmt.Errorf("store: decode arena for machine %d: %w", mach, err)
			}
			a := &arena{mach: mach, orient: orient, buf: buf, freeFn: freeFn}
			if edges > 0 {
				a.refs = unsafe.Slice((*int64)(unsafe.Pointer(&buf[0])), edges)
			}
			nb := len(o.firstRow) - 1
			a.blocks = make([]blockState, nb)
			for b := 0; b < nb; b++ {
				bs := &a.blocks[b]
				bs.a = a
				bs.lo = 8 * o.rows[o.firstRow[b]]
				bs.hi = 8 * o.rows[o.firstRow[b+1]]
			}
			dc.arenas[mach][orient] = a
		}
	}
	sf.cache = dc
	return dc, nil
}

// refs returns the full-length decoded-ref arena view for (mach, orient).
// Only ranges covered by a live PinToken hold decoded data; everything else
// reads as garbage (zeros, or a stale eviction residue).
func (dc *DecodeCache) refs(mach, orient int) []int64 {
	return dc.arenas[mach][orient].refs
}

// PinToken is a claim on the decoded blocks covering one chunk's rows. The
// zero value is a valid no-op. Release is idempotent.
type PinToken struct {
	dc       *DecodeCache
	a        *arena
	blo, bhi int
}

// Pin ensures every block covering rows [rowLo, rowHi) of (mach, orient) is
// decoded and pinned against eviction, and returns the token that releases
// them. On error nothing stays pinned.
func (dc *DecodeCache) Pin(mach, orient int, rowLo, rowHi int64) (PinToken, error) {
	blo, bhi := dc.sf.secs[mach][orient].blockRange(rowLo, rowHi)
	if blo == bhi {
		return PinToken{}, nil
	}
	a := dc.arenas[mach][orient]
	for b := blo; b < bhi; b++ {
		if err := dc.pinBlock(a, b); err != nil {
			dc.unpin(a, blo, b)
			return PinToken{}, err
		}
	}
	return PinToken{dc: dc, a: a, blo: blo, bhi: bhi}, nil
}

func (dc *DecodeCache) pinBlock(a *arena, b int) error {
	bs := &a.blocks[b]
	dc.mu.Lock()
	bs.pins++
	if bs.decoded {
		dc.lru.moveToFront(bs)
		dc.mu.Unlock()
		dc.hits.Add(1)
		return nil
	}
	dc.mu.Unlock()

	bs.mu.Lock()
	defer bs.mu.Unlock()
	dc.mu.Lock()
	if bs.decoded { // another claimant decoded it while we waited
		dc.lru.moveToFront(bs)
		dc.mu.Unlock()
		dc.hits.Add(1)
		return nil
	}
	dc.mu.Unlock()

	if err := dc.sf.decodeBlock(&dc.sf.secs[a.mach][a.orient], a.mach, b, a.refs); err != nil {
		dc.mu.Lock()
		bs.pins--
		dc.mu.Unlock()
		return fmt.Errorf("store: machine %d orient %d: %w", a.mach, a.orient, err)
	}
	dc.mu.Lock()
	bs.decoded = true
	dc.used += bs.bytes()
	dc.lru.pushFront(bs)
	dc.evictLocked()
	dc.mu.Unlock()
	dc.misses.Add(1)
	dc.decodedBytes.Add(bs.bytes())
	return nil
}

// evictLocked walks the LRU tail dropping cold unpinned blocks until the
// budget holds (or only pinned blocks remain). Caller holds dc.mu.
func (dc *DecodeCache) evictLocked() {
	if dc.budget <= 0 {
		return
	}
	cand := dc.lru.head.prev
	for dc.used > dc.budget && cand != &dc.lru.head {
		victim := cand
		cand = cand.prev
		if victim.pins > 0 {
			continue
		}
		dc.lru.remove(victim)
		victim.decoded = false
		dc.used -= victim.bytes()
		dc.evictedBytes.Add(victim.bytes())
		// Release only the block's interior pages: a boundary page may carry
		// a neighboring decoded block's bytes, and DONTNEED on an anonymous
		// mapping zeroes. The skipped edge pages are reclaimed when their
		// neighbors evict (or rewritten on re-decode).
		ps := dc.sf.pageSize
		aLo := (victim.lo + ps - 1) &^ (ps - 1)
		aHi := victim.hi &^ (ps - 1)
		if aHi > aLo {
			advise(victim.a.buf[aLo:aHi], advDontNeed)
		}
	}
}

func (dc *DecodeCache) unpin(a *arena, blo, bhi int) {
	dc.mu.Lock()
	for b := blo; b < bhi; b++ {
		a.blocks[b].pins--
	}
	dc.mu.Unlock()
}

// Release drops the token's pins. Safe on the zero token; a second call on
// the same token is a no-op.
func (t *PinToken) Release() {
	if t.dc == nil {
		return
	}
	t.dc.unpin(t.a, t.blo, t.bhi)
	t.dc = nil
}

// Stats snapshots the cache counters.
func (dc *DecodeCache) Stats() DecodeCacheStats {
	st := DecodeCacheStats{
		Hits:         dc.hits.Load(),
		Misses:       dc.misses.Load(),
		DecodedBytes: dc.decodedBytes.Load(),
		EvictedBytes: dc.evictedBytes.Load(),
	}
	dc.mu.Lock()
	st.UsedBytes = dc.used
	for _, pair := range dc.arenas {
		for _, a := range pair {
			if a == nil {
				continue
			}
			for b := range a.blocks {
				if a.blocks[b].pins > 0 {
					st.PinnedBlocks++
				}
			}
		}
	}
	dc.mu.Unlock()
	return st
}

// free unmaps every arena. Called under File.cacheMu from File.Close.
func (dc *DecodeCache) free() {
	for _, pair := range dc.arenas {
		for _, a := range pair {
			if a != nil && a.freeFn != nil {
				a.freeFn() //nolint:errcheck
			}
		}
	}
	dc.arenas = nil
}
