//go:build !linux

package store

import (
	"io"
	"os"
)

// Non-Linux fallback: read the file into the heap. Correctness is identical;
// the out-of-core residency properties are Linux-only (the only platform
// this engine benches on).

func mapRO(f *os.File, size int64) ([]byte, func() error, error) {
	data := make([]byte, size)
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, nil, err
	}
	return data, func() error { return nil }, nil
}

// mapRW keeps the whole output in memory and flushes it on close.
func mapRW(f *os.File, size int64) ([]byte, func() error, error) {
	data := make([]byte, size)
	return data, func() error {
		_, err := f.WriteAt(data, 0)
		return err
	}, nil
}

// anonAlloc falls back to a heap allocation: no page-granular release, but
// decode-cache bookkeeping (and correctness) is identical.
func anonAlloc(size int64) ([]byte, func() error, error) {
	if size <= 0 {
		return nil, func() error { return nil }, nil
	}
	return make([]byte, size), func() error { return nil }, nil
}

const (
	advNormal        = 0
	advSequential    = 1
	advWillNeed      = 2
	advDontNeed      = 3
	advPopulateWrite = 4
)

var advise = func(b []byte, advice int) {}

const mmapBacked = false
