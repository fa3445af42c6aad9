package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/codec"
	"repro/internal/comm"
)

// Wire compression (paper §2, §4.1): remote traffic is the throughput
// ceiling, so flush buffers are sorted by their packed (prop, offset) key and
// the key column is delta-varint encoded — keys on one destination machine
// share the property tag and have small offset gaps once sorted, so 8-byte
// records shrink to 1-2 bytes. Values are type-aware: int64 properties
// zigzag-varint (labels, levels and counters cluster near zero), float64
// properties pass through raw (their bit patterns do not compress with
// integer codecs). Each message carries comm.FlagCompressed only when the
// compact encoding actually came out smaller, so receivers never guess.
//
// Sorting also serves the receiver, which walks the sorted column with
// monotonically increasing offsets (cache-friendly column loads); the
// requester's side-structure slots are remapped through the sort permutation so
// each continuation still finds its word.

// wireCompressMinRecords is the break-even batch size below which a flush
// ships raw. Measured, not guessed: BenchmarkDeltaColumnEncode/Decode in
// internal/codec put the codec at ~10 ns per record round trip against ~6
// bytes of wire saved per record, so compression pays for itself at any
// batch the engine actually sends; the floor only exempts tiny tail flushes
// where the 16-byte header dominates the message and sorting/encoding buys
// nothing measurable.
const wireCompressMinRecords = 16

// radixMinRecords is the batch size below which sortPairs insertion-sorts:
// under it the radix passes' two 256-entry histograms cost more than the
// quadratic moves they save.
const radixMinRecords = 64

// sortPairs sorts keys ascending and carries the parallel tag words through
// the permutation — a stable LSD byte-radix sort on worker-owned scratch, so
// the flush path neither allocates nor pays an interface call per comparison.
// Batch keys are prop<<48 | [op<<40] | offset toward one machine, so most key
// bytes are equal across the whole batch; every such byte is skipped, which
// leaves two or three passes.
func (w *worker) sortPairs(keys, tags []uint64) {
	n := len(keys)
	if n < radixMinRecords {
		for i := 1; i < n; i++ {
			k, t := keys[i], tags[i]
			j := i
			for ; j > 0 && keys[j-1] > k; j-- {
				keys[j], tags[j] = keys[j-1], tags[j-1]
			}
			keys[j], tags[j] = k, t
		}
		return
	}
	var varying uint64 // bits on which some key differs from keys[0]
	for _, k := range keys {
		varying |= k ^ keys[0]
	}
	srcK, srcT := keys, tags
	dstK, dstT := growU64(&w.sortKeys, n), growU64(&w.sortTags, n)
	for shift := uint(0); shift < 64; shift += 8 {
		if varying>>shift&0xff == 0 {
			continue
		}
		var next [256]int // next[b]: where the next key with byte b goes
		for _, k := range srcK {
			next[k>>shift&0xff]++
		}
		at := 0
		for b, c := range next {
			next[b] = at
			at += c
		}
		for i, k := range srcK {
			j := next[k>>shift&0xff]
			next[k>>shift&0xff] = j + 1
			dstK[j], dstT[j] = k, srcT[i]
		}
		srcK, srcT, dstK, dstT = dstK, dstT, srcK, srcT
	}
	if &srcK[0] != &keys[0] { // an odd number of passes left the result in scratch
		copy(keys, srcK)
		copy(tags, srcT)
	}
}

func u64sSorted(v []uint64) bool {
	for i := 1; i < len(v); i++ {
		if v[i] < v[i-1] {
			return false
		}
	}
	return true
}

func growU64(s *[]uint64, n int) []uint64 {
	if cap(*s) < n {
		*s = make([]uint64, n)
	}
	*s = (*s)[:n]
	return *s
}

func putU64(p []byte, v uint64) {
	binary.LittleEndian.PutUint64(p, v)
}

// compressReadBatch rewrites an about-to-flush read-request payload as a
// sorted delta-varint key column and remaps the message's side-structure
// slots through the sort permutation. Falls back to (sorted) raw fixed-width
// records when the encoding would not shrink the message; either way the
// payload leaves sorted, so receiver-visible slot order always matches what
// the side structure expects.
func (w *worker) compressReadBatch(buf *comm.Buffer, nrec, dst int) {
	p := buf.Payload()
	keys := growU64(&w.keyScratch, nrec)
	tags := growU64(&w.tagScratch, nrec)
	for i := 0; i < nrec; i++ {
		keys[i] = leU64(p[readRecSize*i:])
		tags[i] = uint64(i)
	}
	if !u64sSorted(keys) {
		w.sortPairs(keys, tags)
		// slot i of the original message now lives at slot slotMap[i].
		slotMap := growU64(&w.slotScratch, nrec)
		for newSlot, tag := range tags {
			slotMap[tag] = uint64(newSlot)
		}
		side := w.curSide[dst]
		for i := range side {
			side[i].slot = uint32(slotMap[side[i].slot])
		}
	}
	rawBytes := nrec * readRecSize
	w.encScratch = codec.AppendDeltaU64s(w.encScratch[:0], keys)
	if len(w.encScratch) < rawBytes {
		buf.Data = buf.Data[:comm.HeaderSize]
		buf.AppendBytes(w.encScratch)
		buf.SetFlags(comm.FlagCompressed)
	} else {
		for i, k := range keys {
			putU64(p[readRecSize*i:], k)
		}
	}
	w.noteCompression(dst, rawBytes, len(buf.Payload()))
}

// compressWriteBatch rewrites an about-to-flush write payload: records sort
// by their meta word (prop | op | offset), the meta column delta-varint
// encodes, and each value word follows in sorted order with type-aware
// encoding. Reordering is safe because remote writes are commutative atomic
// reductions — concurrent workers already interleave them arbitrarily.
func (w *worker) compressWriteBatch(buf *comm.Buffer, nrec, dst int) {
	p := buf.Payload()
	keys := growU64(&w.keyScratch, nrec)
	vals := growU64(&w.tagScratch, nrec)
	for i := 0; i < nrec; i++ {
		keys[i] = leU64(p[writeRecSize*i:])
		vals[i] = leU64(p[writeRecSize*i+8:])
	}
	if !u64sSorted(keys) {
		w.sortPairs(keys, vals)
	}
	enc := codec.AppendDeltaU64s(w.encScratch[:0], keys)
	for i := 0; i < nrec; i++ {
		if w.cols[PropID(keys[i]>>48)].kind == KindI64 {
			enc = codec.AppendZigZag(enc, int64(vals[i]))
		} else {
			enc = binary.LittleEndian.AppendUint64(enc, vals[i])
		}
	}
	w.encScratch = enc
	rawBytes := nrec * writeRecSize
	if len(enc) < rawBytes {
		buf.Data = buf.Data[:comm.HeaderSize]
		buf.AppendBytes(enc)
		buf.SetFlags(comm.FlagCompressed)
	} else {
		for i := 0; i < nrec; i++ {
			putU64(p[writeRecSize*i:], keys[i])
			putU64(p[writeRecSize*i+8:], vals[i])
		}
	}
	w.noteCompression(dst, rawBytes, len(buf.Payload()))
}

// noteCompression feeds one batch's raw-vs-wire sizes to the endpoint
// metrics and the per-(src,dst) observability traffic matrix.
func (w *worker) noteCompression(dst, raw, wire int) {
	w.m.ep.Metrics().RecordCompression(int64(raw), int64(wire))
	w.reg.Compressed(w.m.id, dst, int64(raw), int64(wire))
}

// wireDec is per-copier decode scratch for compressed inbound frames.
// Copiers share the Machine, so each copier goroutine owns its own.
type wireDec struct {
	keys []uint64
	vals []uint64
}

// decodeReadKeys expands a compressed read-request payload back into packed
// (prop, offset) keys. Every torn, overlong, or oversized condition is an
// error — a frame truncated on the wire must be rejected here, never
// misdecoded into plausible-looking addresses.
func decodeReadKeys(payload []byte, count int, dec *wireDec) ([]uint64, error) {
	keys, consumed, ok := codec.DecodeDeltaU64s(payload, count, dec.keys)
	dec.keys = keys
	if !ok {
		return nil, fmt.Errorf("torn compressed read frame: %d bytes for %d records", len(payload), count)
	}
	if consumed != len(payload) {
		return nil, fmt.Errorf("compressed read frame has %d trailing bytes after %d records", len(payload)-consumed, count)
	}
	return keys, nil
}

// decodeWriteRecs expands a compressed write payload into parallel meta/value
// columns. The meta column must decode to properties this machine knows —
// value widths depend on the property kind, so an unknown property makes the
// rest of the frame unparseable by construction and fails loudly instead.
func (m *Machine) decodeWriteRecs(payload []byte, count int, dec *wireDec) (keys, vals []uint64, err error) {
	var off int
	var ok bool
	keys, off, ok = codec.DecodeDeltaU64s(payload, count, dec.keys)
	dec.keys = keys
	if !ok {
		return nil, nil, fmt.Errorf("torn compressed write frame: meta column ends at byte %d of %d", off, len(payload))
	}
	vals = dec.vals[:0]
	for i := 0; i < count; i++ {
		prop := PropID(keys[i] >> 48)
		if int(prop) >= len(m.cols) || m.cols[prop] == nil {
			return nil, nil, fmt.Errorf("compressed write record %d names unknown property %d", i, prop)
		}
		if m.cols[prop].kind == KindI64 {
			u, k := codec.Uvarint(payload[off:])
			if k <= 0 {
				return nil, nil, fmt.Errorf("torn compressed write frame: value %d of %d at byte %d", i, count, off)
			}
			off += k
			vals = append(vals, uint64(codec.UnZigZag(u)))
		} else {
			if off+8 > len(payload) {
				return nil, nil, fmt.Errorf("torn compressed write frame: value %d of %d at byte %d", i, count, off)
			}
			vals = append(vals, leU64(payload[off:]))
			off += 8
		}
	}
	dec.vals = vals
	if off != len(payload) {
		return nil, nil, fmt.Errorf("compressed write frame has %d trailing bytes after %d records", len(payload)-off, count)
	}
	return keys, vals, nil
}
