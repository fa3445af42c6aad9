package store

import (
	"sync"
	"unsafe"
)

// residency is a bounded window of resident file pages. A Load touches it as
// workers claim chunks: the claimed chunk's byte ranges are advised WILLNEED
// (prefetch — chunk claim order is sequential per machine, so this is the
// streaming hint), appended to a FIFO ring, and when the ring's page total
// exceeds the budget the oldest ranges are advised DONTNEED. The kernel would
// evict cold pages under real memory pressure anyway; the explicit window
// keeps peak RSS under the configured budget even on an otherwise idle
// machine, which is what the RSS-capped bench asserts.
type residency struct {
	mu       sync.Mutex
	data     []byte // the mapping; touch ignores pointers outside it
	base     uintptr
	budget   int64
	pageSize int64

	used int64
	ring []resSpan

	// Advise accounting (see stats): bytes advised in by touch calls and
	// bytes advised out by budget eviction, page-rounded, lifetime totals.
	touchedBytes int64
	evictedBytes int64
}

// ResidencyStats is a point-in-time snapshot of the window's advise
// counters.
type ResidencyStats struct {
	TouchedBytes int64
	EvictedBytes int64
}

type resSpan struct{ off, length int64 }

// newResidency returns a residency window over this file's mapping with the
// given page budget in bytes. A budget <= 0, or a non-mmap platform, returns
// nil (the page cache alone governs residency).
func (sf *File) newResidency(budgetBytes int64) *residency {
	if budgetBytes <= 0 || !mmapBacked || len(sf.data) == 0 {
		return nil
	}
	return &residency{
		data:     sf.data,
		base:     uintptr(unsafe.Pointer(&sf.data[0])),
		budget:   budgetBytes,
		pageSize: sf.pageSize,
	}
}

// touch marks s[lo:hi] — a view aliasing the mapping — as about to be read.
// Slices not backed by the mapping (a compressed section's heap rows) are
// ignored, as is everything without a window (r nil).
func touch[T int64 | float64 | byte](r *residency, s []T, lo, hi int64) {
	if r == nil || hi <= lo || len(s) == 0 {
		return
	}
	r.touchRange(uintptr(unsafe.Pointer(&s[lo])), (hi-lo)*int64(unsafe.Sizeof(s[0])))
}

// stats snapshots the window's advise counters. Nil-safe.
func (r *residency) stats() ResidencyStats {
	if r == nil {
		return ResidencyStats{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return ResidencyStats{TouchedBytes: r.touchedBytes, EvictedBytes: r.evictedBytes}
}

func (r *residency) touchRange(ptr uintptr, length int64) {
	if ptr < r.base || ptr >= r.base+uintptr(len(r.data)) {
		return
	}
	off := int64(ptr - r.base)
	// Page-align the span; madvise requires an aligned start and the ring
	// accounts whole pages.
	aOff := off &^ (r.pageSize - 1)
	aEnd := (off + length + r.pageSize - 1) &^ (r.pageSize - 1)
	if aEnd > int64(len(r.data)) {
		aEnd = int64(len(r.data))
	}
	if aEnd <= aOff {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	advise(r.data[aOff:aEnd], advWillNeed)
	r.used += aEnd - aOff
	r.touchedBytes += aEnd - aOff
	r.ring = append(r.ring, resSpan{off: aOff, length: aEnd - aOff})
	// Evict oldest spans beyond the budget, always keeping the span just
	// touched. Overlapping spans double-count and double-evict; both err
	// toward a smaller resident set, which is the safe direction.
	for r.used > r.budget && len(r.ring) > 1 {
		old := r.ring[0]
		r.ring = r.ring[1:]
		r.used -= old.length
		r.evictedBytes += old.length
		advise(r.data[old.off:old.off+old.length], advDontNeed)
	}
}
