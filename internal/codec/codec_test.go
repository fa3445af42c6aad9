package codec

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestUvarintRoundTrip(t *testing.T) {
	cases := []uint64{0, 1, 0x7f, 0x80, 0x3fff, 0x4000, 1 << 20, 1 << 35, 1 << 56, math.MaxUint64}
	for _, v := range cases {
		enc := AppendUvarint(nil, v)
		got, n := Uvarint(enc)
		if n != len(enc) || got != v {
			t.Fatalf("round trip %d: got %d, n=%d want len %d", v, got, n, len(enc))
		}
		// Agreement with the stdlib encoding keeps us canonical.
		std := binary.AppendUvarint(nil, v)
		if !bytes.Equal(enc, std) {
			t.Fatalf("encoding of %d diverges from stdlib: %x vs %x", v, enc, std)
		}
	}
}

func TestUvarintTornInput(t *testing.T) {
	enc := AppendUvarint(nil, math.MaxUint64)
	for cut := 0; cut < len(enc); cut++ {
		if _, n := Uvarint(enc[:cut]); n > 0 {
			t.Fatalf("torn input of %d bytes decoded with n=%d", cut, n)
		}
	}
	if _, n := Uvarint(nil); n != 0 {
		t.Fatalf("empty input: n=%d want 0", n)
	}
}

func TestUvarintOverlongRejected(t *testing.T) {
	// 11 continuation-free bytes never form a canonical uint64.
	over := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}
	if _, n := Uvarint(over); n > 0 {
		t.Fatalf("11-byte varint accepted with n=%d", n)
	}
	// A 10th byte contributing more than bit 63 overflows.
	high := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}
	if _, n := Uvarint(high); n > 0 {
		t.Fatalf("overflowing 10-byte varint accepted with n=%d", n)
	}
}

func TestZigZag(t *testing.T) {
	cases := []int64{0, -1, 1, -2, 2, math.MinInt64, math.MaxInt64, -123456789, 987654321}
	want := []uint64{0, 1, 2, 3, 4}
	for i, v := range cases {
		u := ZigZag(v)
		if i < len(want) && u != want[i] {
			t.Fatalf("ZigZag(%d) = %d, want %d", v, u, want[i])
		}
		if got := UnZigZag(u); got != v {
			t.Fatalf("UnZigZag(ZigZag(%d)) = %d", v, got)
		}
	}
}

func FuzzUvarintRoundTrip(f *testing.F) {
	f.Add(uint64(0))
	f.Add(uint64(0x80))
	f.Add(uint64(math.MaxUint64))
	f.Fuzz(func(t *testing.T, v uint64) {
		enc := AppendUvarint(nil, v)
		got, n := Uvarint(enc)
		if n != len(enc) || got != v {
			t.Fatalf("round trip %d: got %d n=%d len=%d", v, got, n, len(enc))
		}
		sv := int64(v)
		zenc := AppendUvarint(nil, ZigZag(sv))
		u, n := Uvarint(zenc)
		if n != len(zenc) || UnZigZag(u) != sv {
			t.Fatalf("zigzag round trip %d failed", sv)
		}
	})
}

// FuzzUvarintDecode throws arbitrary bytes at the decoder: it must never
// panic, and anything it accepts must re-encode to the same canonical bytes.
func FuzzUvarintDecode(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})
	f.Fuzz(func(t *testing.T, p []byte) {
		v, n := Uvarint(p)
		if n <= 0 {
			return
		}
		if n > len(p) || n > MaxVarintLen {
			t.Fatalf("decoder consumed %d of %d bytes", n, len(p))
		}
		if !bytes.Equal(AppendUvarint(nil, v), p[:n]) {
			t.Fatalf("accepted non-canonical encoding %x for %d", p[:n], v)
		}
	})
}

func TestZigZagDeltaRowRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(64)
		limit := int64(1 + rng.Intn(1<<20))
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63n(limit) // deliberately unsorted
		}
		enc := AppendZigZagDeltaRow(nil, vals)
		got, consumed, ok := DecodeZigZagDeltaRow(enc, n, limit, nil)
		if !ok || consumed != len(enc) {
			t.Fatalf("trial %d: ok=%v consumed=%d len=%d", trial, ok, consumed, len(enc))
		}
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("trial %d: value %d: got %d want %d", trial, i, got[i], vals[i])
			}
		}
	}
}

func TestZigZagDeltaRowRejectsBadInput(t *testing.T) {
	enc := AppendZigZagDeltaRow(nil, []int64{5, 3, 900})
	// Torn at every cut short of the full row.
	for cut := 0; cut < len(enc); cut++ {
		if _, _, ok := DecodeZigZagDeltaRow(enc[:cut], 3, 1000, nil); ok {
			t.Fatalf("torn row of %d bytes accepted", cut)
		}
	}
	// Out-of-range value: the last id (900) exceeds a tighter limit.
	if _, _, ok := DecodeZigZagDeltaRow(enc, 3, 900, nil); ok {
		t.Fatal("row with id >= limit accepted")
	}
	// Negative running value: a gap below zero.
	neg := AppendUvarint(nil, ZigZag(-1))
	if _, _, ok := DecodeZigZagDeltaRow(neg, 1, 1000, nil); ok {
		t.Fatal("row decoding to a negative id accepted")
	}
	// Overlong varint inside the row.
	over := append([]byte{0x80}, AppendUvarint(nil, 0)...)
	if _, _, ok := DecodeZigZagDeltaRow(over, 1, 1000, nil); ok {
		t.Fatal("overlong varint inside a row accepted")
	}
}

// bytewiseZigZagDeltaRow is the byte-at-a-time row decoder DecodeZigZagDeltaRow
// was before it read a word at a time, kept as the oracle the fast path is
// fuzzed against: one Uvarint call per value, nothing else.
func bytewiseZigZagDeltaRow(p []byte, n int, limit int64, out []int64) (vals []int64, consumed int, ok bool) {
	out = out[:0]
	prev := int64(0)
	off := 0
	for i := 0; i < n; i++ {
		d, k := Uvarint(p[off:])
		if k <= 0 {
			return out, off, false
		}
		off += k
		prev += UnZigZag(d)
		if prev < 0 || prev >= limit {
			return out, off, false
		}
		out = append(out, prev)
	}
	return out, off, true
}

// FuzzZigZagDeltaRow drives the store's compressed block row decoder with arbitrary
// payloads, counts, and limits: no panics, no reads past the input, the
// word-at-a-time decoder and the bytewise oracle agree on ok, on the bytes
// consumed and on every value — accepted or decoded before a rejection — and
// anything accepted must re-encode to exactly the bytes consumed (the same
// canonical-form property the store's open-time block validation relies on
// to reject torn, trailing, or overlong block bytes).
func FuzzZigZagDeltaRow(f *testing.F) {
	f.Add([]byte{1, 2, 3}, uint16(3), int64(100))
	f.Add([]byte{}, uint16(1), int64(1))
	f.Add(AppendZigZagDeltaRow(nil, []int64{5, 3, 1 << 18}), uint16(3), int64(1<<19))
	f.Add(AppendZigZagDeltaRow(nil, []int64{0, 0, 7, 2}), uint16(4), int64(8))
	// Inputs 0-9 bytes long straddle the eight bytes the fast path needs.
	for n := 0; n <= 9; n++ {
		f.Add(bytes.Repeat([]byte{0x02}, n), uint16(n), int64(1<<20))
	}
	// A 3-byte varint ending exactly at the buffer end, behind five 1-byte ones.
	f.Add(append(bytes.Repeat([]byte{0x02}, 5), 0x80, 0x80, 0x01), uint16(6), int64(1<<20))
	// Zero-padded 2- and 3-byte varints, and a 4-byte one, each with a full
	// word of input behind it so the fast path is the one that meets it.
	f.Add(append([]byte{0x85, 0x00}, bytes.Repeat([]byte{0x02}, 8)...), uint16(4), int64(1<<20))
	f.Add(append([]byte{0x85, 0x80, 0x00}, bytes.Repeat([]byte{0x02}, 8)...), uint16(4), int64(1<<20))
	f.Add(append([]byte{0x80, 0x80, 0x80, 0x02}, bytes.Repeat([]byte{0x02}, 8)...), uint16(4), int64(1<<30))
	f.Fuzz(func(t *testing.T, p []byte, n16 uint16, limit int64) {
		n := int(n16 % 512)
		vals, consumed, ok := DecodeZigZagDeltaRow(p, n, limit, nil)
		if consumed > len(p) {
			t.Fatalf("consumed %d of %d bytes", consumed, len(p))
		}
		wantVals, wantConsumed, wantOK := bytewiseZigZagDeltaRow(p, n, limit, nil)
		if ok != wantOK || consumed != wantConsumed || !slices.Equal(vals, wantVals) {
			t.Fatalf("decoder (ok=%v consumed=%d vals=%v) disagrees with the bytewise oracle (ok=%v consumed=%d vals=%v)",
				ok, consumed, vals, wantOK, wantConsumed, wantVals)
		}
		if ok {
			if len(vals) != n {
				t.Fatalf("ok decode returned %d of %d values", len(vals), n)
			}
			for _, v := range vals {
				if v < 0 || v >= limit {
					t.Fatalf("accepted out-of-range value %d (limit %d)", v, limit)
				}
			}
			if !bytes.Equal(AppendZigZagDeltaRow(nil, vals), p[:consumed]) {
				t.Fatalf("accepted row does not re-encode canonically")
			}
		}
	})
}
