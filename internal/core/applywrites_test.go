package core

import (
	"encoding/binary"
	"slices"
	"strings"
	"testing"

	"repro/internal/reduce"
)

// writeMeta packs a write record's meta word.
func writeMeta(p PropID, op reduce.Op, offset uint32) uint64 {
	return uint64(p)<<48 | uint64(op)<<40 | uint64(offset)
}

// rawWrites renders (meta, value) records as a write frame's payload.
func rawWrites(recs ...[2]uint64) []byte {
	var out []byte
	for _, r := range recs {
		out = binary.LittleEndian.AppendUint64(out, r[0])
		out = binary.LittleEndian.AppendUint64(out, r[1])
	}
	return out
}

// applyWritesCluster boots two machines with an int64 property 0 and a float64
// property 1, every value 7, and returns machine 0 with its column sizes. Its
// rows hold replica refs, numLocal + slot, past its columns.
func applyWritesCluster(t testing.TB) (m *Machine, cnt, val PropID) {
	c := bootCluster(t, testGraph(t), DefaultConfig(2))
	cnt, _ = c.AddPropI64("cnt")
	val, _ = c.AddPropF64("val")
	if len(c.machines[0].store.remote.addr) == 0 {
		t.Fatal("machine 0 numbered no replica")
	}
	c.FillI64(cnt, 7)
	c.FillF64(val, 7)
	return c.machines[0], cnt, val
}

// colWords copies out every word of machine m's columns: what a refused
// frame must leave as it found it.
func colWords(m *Machine) []uint64 {
	var out []uint64
	for _, col := range m.cols {
		for i := range col.vals {
			out = append(out, col.load(i))
		}
	}
	return out
}

// byte7 sets header byte 7 of a record count — once the compressed-payload flag,
// now the count's high byte again.
const byte7 = 1 << 24

// TestApplyWritesRejectsCorruptFrames: a write frame whose records name an
// unknown operator, an unknown property or an offset past the column — the
// owner's replica slots included: a frame names an owned word, never a slot —
// whose value column is torn, or whose header byte 7 is set, is an error —
// never a panic of the copier or the drain, and never a partial apply: the good
// record ahead of the bad one must not have landed.
func TestApplyWritesRejectsCorruptFrames(t *testing.T) {
	m, cnt, _ := applyWritesCluster(t)
	n := uint32(len(m.cols[cnt].vals))
	slots := uint32(len(m.store.remote.addr))
	good := [2]uint64{writeMeta(cnt, reduce.Sum, 0), 5}
	cases := []struct {
		name       string
		count      uint32
		payload    []byte
		wantErrHas string
	}{
		{"raw/bad-op", 2, rawWrites(good, [2]uint64{writeMeta(cnt, reduce.Op(9), 1), 1}), "unknown operator 9"},
		{"raw/unknown-prop", 2, rawWrites(good, [2]uint64{writeMeta(99, reduce.Sum, 1), 1}), "unknown property 99"},
		{"raw/offset-past-column", 2, rawWrites(good, [2]uint64{writeMeta(cnt, reduce.Sum, n), 1}), "out of range"},
		{"raw/offset-names-replica-slot", 2, rawWrites(good, [2]uint64{writeMeta(cnt, reduce.Sum, n+slots-1), 1}), "out of range"},
		{"raw/torn-values", 2, rawWrites(good, [2]uint64{writeMeta(cnt, reduce.Sum, 1), 1})[:writeRecSize+11], "truncated"},
		{"raw/byte-7-set", byte7 | 2, rawWrites(good, [2]uint64{writeMeta(cnt, reduce.Sum, 1), 1}), "truncated"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := m.applyWrites(nil, tc.count, tc.payload)
			if err == nil || !strings.Contains(err.Error(), tc.wantErrHas) {
				t.Fatalf("applyWrites = %v, want an error with %q", err, tc.wantErrHas)
			}
			if got := m.cols[cnt].getI64(0); got != 7 {
				t.Errorf("the record ahead of the corrupt one was applied: cnt[0] = %d, want 7", got)
			}
		})
	}
	// The same good record alone lands.
	if err := m.applyWrites(nil, 1, rawWrites(good)); err != nil {
		t.Fatalf("a well-formed frame was refused: %v", err)
	}
	if got := m.cols[cnt].getI64(0); got != 12 {
		t.Errorf("cnt[0] = %d after one good frame, want 12", got)
	}
}

// FuzzApplyWrites feeds arbitrary bytes to the drain's write-apply path, whose
// validation the copier runs on every frame at receipt (checkWrites):
// whatever arrives, the result is an error or an apply inside the columns —
// never a panic, which would take every machine of the process down with the
// copier — and a count the payload cannot hold (a stray header byte 7 makes
// one) is refused by the length check before any record lands. A frame that
// fits its count but has a record past the columns — at a replica slot's
// numLocal + slot, say — is refused with nothing applied.
func FuzzApplyWrites(f *testing.F) {
	m, cnt, val := applyWritesCluster(f)
	n := uint32(len(m.cols[cnt].vals))
	good := rawWrites([2]uint64{writeMeta(cnt, reduce.Min, 2), 3}, [2]uint64{writeMeta(val, reduce.Sum, 0), WordF64(0.5)})
	f.Add(rawWrites([2]uint64{writeMeta(cnt, reduce.Sum, 2), 3}, [2]uint64{writeMeta(val, reduce.Sum, n+uint32(len(m.store.remote.addr))/2), 1}), uint32(2))
	f.Add(rawWrites([2]uint64{writeMeta(cnt, reduce.Op(9), 1), 1}), uint32(1))
	f.Add(good, uint32(byte7|2))
	f.Add(good, uint32(2))
	f.Add(rawWrites([2]uint64{writeMeta(cnt, reduce.Sum, 2), 3}, [2]uint64{writeMeta(cnt, reduce.Sum, 2), 4},
		[2]uint64{writeMeta(val, reduce.Max, 5), WordF64(2)}), uint32(3))
	f.Fuzz(func(t *testing.T, payload []byte, count uint32) {
		short := int64(len(payload)) < writeRecSize*int64(count)
		past := false // a record's offset is past every column
		for i := 0; !short && i < int(count); i++ {
			past = past || uint32(leU64(payload[writeRecSize*i:])) >= n
		}
		var before []uint64
		if short || past {
			before = colWords(m)
		}
		err := m.applyWrites(nil, count, payload) // an error is the expected answer to most inputs
		switch {
		case short && (err == nil || !strings.Contains(err.Error(), "truncated")):
			t.Fatalf("%d records in %d bytes: applyWrites = %v, want the length check's refusal", count, len(payload), err)
		case past && err == nil:
			t.Fatalf("a record past the %d-word columns was applied", n)
		}
		if (short || past) && !slices.Equal(before, colWords(m)) {
			t.Fatalf("%d records in %d bytes: refused, but a record was applied", count, len(payload))
		}
	})
}
