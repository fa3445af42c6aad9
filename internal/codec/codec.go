// Package codec implements the zero-allocation integer codecs behind the
// compressed store format (internal/store, .csr3): LEB128-style unsigned
// varints, zigzag mapping for signed values, and zigzag-delta rows for CSR
// neighbor lists, whose consecutive ids share high bits and so take one or
// two bytes each instead of 8.
//
// All encoders are append-based (the caller owns and recycles the
// destination slice); all decoders walk the input in place and report torn
// or overlong input with a non-positive length instead of panicking, so a
// corrupt file surfaces as a validation error on the consume side.
package codec

import "encoding/binary"

// MaxVarintLen is the worst-case encoded size of one uint64 varint.
const MaxVarintLen = 10

// AppendUvarint appends v in LEB128 (7 bits per byte, little end first,
// high bit = continuation) and returns the extended slice.
func AppendUvarint(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// Uvarint decodes one varint from the start of p. It returns the value and
// the number of bytes consumed; n == 0 means p was torn mid-varint and
// n < 0 means the encoding is overlong — longer than 64 bits, or padded with
// a zero final byte that AppendUvarint would never emit. Accepting only the
// canonical form means every (value, length) pair is unique, so a validated
// column re-encodes to exactly the bytes received. Callers must treat n <= 0
// as a corrupt frame.
func Uvarint(p []byte) (v uint64, n int) {
	var shift uint
	for i, b := range p {
		if i == MaxVarintLen {
			return 0, -(i + 1) // longer than any canonical uint64
		}
		if b < 0x80 {
			if i == MaxVarintLen-1 && b > 1 {
				return 0, -(i + 1) // 10th byte may only contribute bit 63
			}
			if b == 0 && i > 0 {
				return 0, -(i + 1) // zero padding byte: non-canonical
			}
			return v | uint64(b)<<shift, i + 1
		}
		v |= uint64(b&0x7f) << shift
		shift += 7
	}
	return 0, 0 // ran out of bytes mid-varint
}

// ZigZag maps a signed value to an unsigned one with small magnitudes small:
// 0, -1, 1, -2, 2 ... become 0, 1, 2, 3, 4 ...
func ZigZag(v int64) uint64 {
	return uint64(v<<1) ^ uint64(v>>63)
}

// UnZigZag inverts ZigZag.
func UnZigZag(u uint64) int64 {
	return int64(u>>1) ^ -int64(u&1)
}

// AppendZigZagDeltaRow appends vals as a zigzag-delta row: the first value
// relative to zero, every later one as the signed gap to its predecessor.
// The input need not be sorted — CSR neighbor lists preserve edge insertion
// order, so gaps can be negative — but consecutive neighbors still share high
// bits, which zigzag keeps to one or two bytes.
func AppendZigZagDeltaRow(dst []byte, vals []int64) []byte {
	prev := int64(0)
	for _, v := range vals {
		dst = AppendUvarint(dst, ZigZag(v-prev))
		prev = v
	}
	return dst
}

// DecodeZigZagDeltaRow decodes an n-value zigzag-delta row from the start of
// p into out (reusing its capacity) and returns the values plus the bytes
// consumed. Every decoded value must lie in [0, limit) — node ids in a graph
// of limit nodes — so a corrupt row surfaces here instead of indexing a
// column out of bounds later. Torn, overlong, or out-of-range input returns
// ok == false. While eight bytes of input remain a varint is read with one
// word load and those of up to three bytes — every gap below 2^20 — resolve
// without a loop; longer ones and the input's last seven bytes take Uvarint.
func DecodeZigZagDeltaRow(p []byte, n int, limit int64, out []int64) (vals []int64, consumed int, ok bool) {
	out = out[:0]
	prev := int64(0)
	off := 0
	for i := 0; i < n; i++ {
		var d uint64
		k := 0
		if off+8 <= len(p) {
			w := binary.LittleEndian.Uint64(p[off:])
			// A k-byte varint whose last byte is zero — d below 2^(7(k-1)) —
			// is the padded form Uvarint rejects.
			switch {
			case w&0x80 == 0:
				d, k = w&0x7f, 1
			case w&0x8000 == 0:
				if d, k = w&0x7f|w>>1&0x3f80, 2; d < 1<<7 {
					return out, off, false
				}
			case w&0x800000 == 0:
				if d, k = w&0x7f|w>>1&0x3f80|w>>2&0x1fc000, 3; d < 1<<14 {
					return out, off, false
				}
			}
		}
		if k == 0 {
			if d, k = Uvarint(p[off:]); k <= 0 {
				return out, off, false
			}
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
