//go:build linux

package store

import (
	"os"
	"syscall"
)

// mapRO maps the file read-only and shared; residency is then governed by
// the page cache, which is the whole point of the format.
func mapRO(f *os.File, size int64) ([]byte, func() error, error) {
	if size == 0 {
		return nil, func() error { return nil }, nil
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, err
	}
	return data, func() error { return syscall.Munmap(data) }, nil
}

// mapRW maps the file read-write and shared — the streaming writer's scatter
// target. Dirty pages belong to the page cache, so MADV_DONTNEED after a
// bucket unmaps them from this process without losing data.
func mapRW(f *os.File, size int64) ([]byte, func() error, error) {
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, err
	}
	return data, func() error { return syscall.Munmap(data) }, nil
}

// anonAlloc allocates a zeroed, page-aligned region outside the Go heap via
// an anonymous private mapping. The decode pool and off-heap property columns
// live here: the address space is reserved up front but pages materialize
// only when written, and MADV_DONTNEED returns them to the kernel (reading
// the range afterwards yields zeros). The returned free func unmaps; the
// slice must not be used after.
func anonAlloc(size int64) ([]byte, func() error, error) {
	if size <= 0 {
		return nil, func() error { return nil }, nil
	}
	data, err := syscall.Mmap(-1, 0, int(size),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, err
	}
	return data, func() error { return syscall.Munmap(data) }, nil
}

// Advice values for advise.
const (
	advNormal     = syscall.MADV_NORMAL
	advSequential = syscall.MADV_SEQUENTIAL
	advWillNeed   = syscall.MADV_WILLNEED
	advDontNeed   = syscall.MADV_DONTNEED
	// advPopulateWrite is MADV_POPULATE_WRITE (Linux 5.14+, absent from
	// package syscall): prefault a range writable in one call. Older kernels
	// reject it and the pages fault in one by one as before.
	advPopulateWrite = 23
)

// advise applies madvise to b. The caller must pass a page-aligned start
// (whole mappings and adviseRange sub-slices are). Best-effort: advice is a
// hint, failures are ignored. A variable so a test can count the calls.
var advise = func(b []byte, advice int) {
	if len(b) == 0 {
		return
	}
	syscall.Madvise(b, advice) //nolint:errcheck
}

// mmapBacked reports whether this platform serves store files from real
// mappings (true) or a heap copy (false).
const mmapBacked = true
