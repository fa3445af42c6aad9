package store

import (
	"testing"

	"repro/internal/graph"
)

// TestDecodeCacheEviction drives a multi-block section through a one-block
// budget: every re-pin after eviction must re-decode to the same bits, stats
// must track hits/misses/evictions, and pins must block eviction.
func TestDecodeCacheEviction(t *testing.T) {
	g, err := graph.Uniform(512, 80000, 9)
	if err != nil {
		t.Fatal(err)
	}
	raw, comp := writeOpen(t, g, 2, WriteGraph), writeOpen(t, g, 2, WriteGraphCompressed)
	dc, err := comp.EnsureDecodeCache(64 << 10) // 8192 ids: ~one block
	if err != nil {
		t.Fatal(err)
	}
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
	check := func(lo, hi int64) {
		tok, err := dc.Pin(0, OrientOut, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		defer tok.Release()
		refs := dc.refs(0, OrientOut)
		for e := rows[lo]; e < rows[hi]; e++ {
			if refs[e] != sec.OutRefs[e] {
				t.Fatalf("ref %d = %d, want %d", e, refs[e], sec.OutRefs[e])
			}
		}
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
	st := dc.Stats()
	if st.Misses == 0 || st.EvictedBytes == 0 {
		t.Fatalf("no eviction churn: %+v", st)
	}
	if st.DecodedBytes <= st.EvictedBytes-st.UsedBytes {
		t.Fatalf("implausible accounting: %+v", st)
	}
	if st.PinnedBlocks != 0 {
		t.Fatalf("%d blocks pinned after release", st.PinnedBlocks)
	}

	// A held pin survives budget pressure: pin block 0's rows, churn the
	// rest, and the pinned range must still read back correctly.
	tok, err := dc.Pin(0, OrientOut, 0, o.firstRow[1])
	if err != nil {
		t.Fatal(err)
	}
	for lo := o.firstRow[1]; lo < numLocal; lo += step {
		hi := lo + step
		if hi > numLocal {
			hi = numLocal
		}
		check(lo, hi)
	}
	refs := dc.refs(0, OrientOut)
	for e := rows[0]; e < rows[o.firstRow[1]]; e++ {
		if refs[e] != sec.OutRefs[e] {
			t.Fatalf("pinned ref %d lost: %d, want %d", e, refs[e], sec.OutRefs[e])
		}
	}
	tok.Release()
	tok.Release() // idempotent
	if st := dc.Stats(); st.PinnedBlocks != 0 {
		t.Fatalf("%d blocks pinned after idempotent release", st.PinnedBlocks)
	}
}
