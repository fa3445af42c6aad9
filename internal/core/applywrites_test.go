package core

import (
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/comm"
	"repro/internal/reduce"
)

// writeMeta packs a write record's meta word.
func writeMeta(p PropID, op reduce.Op, offset uint32) uint64 {
	return uint64(p)<<48 | uint64(op)<<40 | uint64(offset)
}

// rawWrites renders (meta, value) records in the fixed-width spelling.
func rawWrites(recs ...[2]uint64) []byte {
	var out []byte
	for _, r := range recs {
		out = binary.LittleEndian.AppendUint64(out, r[0])
		out = binary.LittleEndian.AppendUint64(out, r[1])
	}
	return out
}

// compressedWrites renders the records as a FlagCompressed payload: the delta
// column of the meta words (which must ascend), then each value zigzag-varint
// when i64[i], raw otherwise.
func compressedWrites(i64 []bool, recs ...[2]uint64) []byte {
	keys := make([]uint64, len(recs))
	for i, r := range recs {
		keys[i] = r[0]
	}
	out := codec.AppendDeltaU64s(nil, keys)
	for i, r := range recs {
		if i64[i] {
			out = codec.AppendZigZag(out, int64(r[1]))
		} else {
			out = binary.LittleEndian.AppendUint64(out, r[1])
		}
	}
	return out
}

// applyWritesCluster boots two machines with an int64 property 0 and a float64
// property 1, every value 7, and returns machine 0 with its column sizes.
func applyWritesCluster(t testing.TB) (m *Machine, cnt, val PropID) {
	c := bootCluster(t, testGraph(t), DefaultConfig(2))
	cnt, _ = c.AddPropI64("cnt")
	val, _ = c.AddPropF64("val")
	c.FillI64(cnt, 7)
	c.FillF64(val, 7)
	return c.machines[0], cnt, val
}

// TestApplyWritesRejectsCorruptFrames: a write frame whose records name an
// unknown operator, an unknown property or an offset past the column, or whose
// value column is torn, is an error in both spellings — never a panic of the
// copier, and never a partial apply: the good record ahead of the bad one must
// not have landed.
func TestApplyWritesRejectsCorruptFrames(t *testing.T) {
	m, cnt, val := applyWritesCluster(t)
	n := uint32(len(m.cols[cnt].vals))
	good := [2]uint64{writeMeta(cnt, reduce.Sum, 0), 5}
	cases := []struct {
		name       string
		count      uint32
		flags      uint8
		payload    []byte
		wantErrHas string
	}{
		{"raw/bad-op", 2, 0, rawWrites(good, [2]uint64{writeMeta(cnt, reduce.Op(9), 1), 1}), "unknown operator 9"},
		{"raw/unknown-prop", 2, 0, rawWrites(good, [2]uint64{writeMeta(99, reduce.Sum, 1), 1}), "unknown property 99"},
		{"raw/offset-past-column", 2, 0, rawWrites(good, [2]uint64{writeMeta(cnt, reduce.Sum, n), 1}), "out of range"},
		{"raw/torn-values", 2, 0, rawWrites(good, [2]uint64{writeMeta(cnt, reduce.Sum, 1), 1})[:writeRecSize+11], "truncated"},
		{"compressed/bad-op", 2, comm.FlagCompressed, compressedWrites([]bool{true, true}, good, [2]uint64{writeMeta(cnt, reduce.Op(9), 1), 1}), "unknown operator 9"},
		{"compressed/unknown-prop", 2, comm.FlagCompressed, compressedWrites([]bool{true, true}, good, [2]uint64{writeMeta(99, reduce.Sum, 1), 1}), "unknown property 99"},
		{"compressed/offset-past-column", 2, comm.FlagCompressed, compressedWrites([]bool{true, true}, good, [2]uint64{writeMeta(cnt, reduce.Sum, n), 1}), "out of range"},
		{"compressed/torn-values", 2, comm.FlagCompressed, func() []byte {
			p := compressedWrites([]bool{true, false}, good, [2]uint64{writeMeta(val, reduce.Sum, 1), WordF64(1)})
			return p[:len(p)-3]
		}(), "torn"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := m.applyWrites(comm.Header{Type: comm.MsgWriteReq, Count: tc.count, Flags: tc.flags}, tc.payload, new(wireDec))
			if err == nil || !strings.Contains(err.Error(), tc.wantErrHas) {
				t.Fatalf("applyWrites = %v, want an error with %q", err, tc.wantErrHas)
			}
			if got := m.cols[cnt].getI64(0); got != 7 {
				t.Errorf("the record ahead of the corrupt one was applied: cnt[0] = %d, want 7", got)
			}
		})
	}
	// The same good record alone lands, in both spellings.
	for _, flags := range []uint8{0, comm.FlagCompressed} {
		payload := rawWrites(good)
		if flags != 0 {
			payload = compressedWrites([]bool{true}, good)
		}
		if err := m.applyWrites(comm.Header{Type: comm.MsgWriteReq, Count: 1, Flags: flags}, payload, new(wireDec)); err != nil {
			t.Fatalf("flags %#x: a well-formed frame was refused: %v", flags, err)
		}
	}
	if got := m.cols[cnt].getI64(0); got != 17 {
		t.Errorf("cnt[0] = %d after two good frames, want 17", got)
	}
}

// FuzzApplyWrites feeds arbitrary bytes to the copier's write-apply path in
// both spellings: whatever arrives, the result is an error or an apply inside
// the columns — never a panic, which would take every machine of the process
// down with the copier.
func FuzzApplyWrites(f *testing.F) {
	m, cnt, val := applyWritesCluster(f)
	badOp := [2]uint64{writeMeta(cnt, reduce.Op(9), 1), 1}
	f.Add(rawWrites(badOp), uint32(1), false)
	f.Add(compressedWrites([]bool{true}, badOp), uint32(1), true)
	f.Add(rawWrites([2]uint64{writeMeta(cnt, reduce.Min, 2), 3}, [2]uint64{writeMeta(val, reduce.Sum, 0), WordF64(0.5)}), uint32(2), false)
	f.Add(compressedWrites([]bool{true, true, false}, [2]uint64{writeMeta(cnt, reduce.Sum, 2), 3}, [2]uint64{writeMeta(cnt, reduce.Sum, 2), 4},
		[2]uint64{writeMeta(val, reduce.Max, 5), WordF64(2)}), uint32(3), true)
	dec := new(wireDec)
	f.Fuzz(func(t *testing.T, payload []byte, count uint32, compressed bool) {
		h := comm.Header{Type: comm.MsgWriteReq, Count: count & comm.MaxCount} // the header field is 24 bits wide
		if compressed {
			h.Flags = comm.FlagCompressed
		}
		_ = m.applyWrites(h, payload, dec) // an error is the expected answer to most inputs
	})
}
