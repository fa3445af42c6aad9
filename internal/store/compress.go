package store

import (
	"fmt"
	"os"
	"path/filepath"
	"unsafe"

	"repro/internal/codec"
)

// CompressFile rewrites the raw store file at src in the compressed spelling
// at dst — the second half of the writer pipeline when compression is asked
// for. The pass is sequential and runs in O(nodes + block) memory: rows and
// the block index are per-section metadata, refs stream block by block
// through a bounded encode buffer, and weights and the addr tables copy
// through unchanged. A compressed section's length depends on its encoded
// size, so the header and per-section sub-headers are written as placeholders
// and patched once the sizes are known.
func CompressFile(dst, src string) error {
	sf, err := Open(src)
	if err != nil {
		return err
	}
	defer sf.Close()
	if sf.Compressed() {
		return fmt.Errorf("store: %s is already compressed", sf.Path())
	}
	f, err := os.Create(dst)
	if err != nil {
		return err
	}
	defer f.Close()
	p := sf.hdr.p

	at := dataOffset(p)
	if _, err := f.Write(make([]byte, at)); err != nil {
		return err
	}
	table := make([][secFieldCount]int64, p)
	cw := &compWriter{f: f}
	// The ref walk below reads the whole source mapping once, front to back.
	advise(sf.data, advSequential)
	for mach := 0; mach < p; mach++ {
		for orient := range sf.secs[mach] {
			o := &sf.secs[mach][orient]
			secLen, err := cw.writeSection(o, at)
			if err != nil {
				return err
			}
			table[mach][3*orient], table[mach][3*orient+1] = at, secLen
			at += secLen
			if sf.Weighted() {
				table[mach][3*orient+2] = at
				if at, err = writeWords(f, at, o.weights); err != nil {
					return err
				}
			}
		}
	}
	for mach, addr := range sf.addrs {
		table[mach][addrField], table[mach][addrField+1] = at, int64(len(addr))
		if at, err = writeWords(f, at, addr); err != nil {
			return err
		}
	}
	advise(sf.data, advDontNeed)

	// Patch the header now that every section offset is known.
	hdr := sf.hdr
	hdr.flags |= FlagCompressedEdges
	if _, err := f.WriteAt(renderHeader(hdr, sf.layout.Starts, table), 0); err != nil {
		return err
	}
	return f.Sync()
}

// writeWords appends a word array of the source mapping to f, whose write
// position is at, and returns the position after it.
func writeWords[T int64 | float64](f *os.File, at int64, words []T) (int64, error) {
	if len(words) == 0 {
		return at, nil
	}
	_, err := f.Write(wordBytes(words))
	return at + 8*int64(len(words)), err
}

// wordBytes is the little-endian byte view of words.
func wordBytes[T int64 | float64](words []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), 8*len(words))
}

// compWriter carries the encode scratch reused across sections.
type compWriter struct {
	f   *os.File
	buf []byte // encode buffer, flushed when it grows past a block's worth
}

// writeSection encodes raw section o in the compressed spelling — the refs'
// values as they are, already resolved — at file offset secOff (the current
// write position) and returns its padded length. Writes are sequential except
// two patches: the sub-header's refBytes and the block index, both at offsets
// known up front.
func (cw *compWriter) writeSection(o *orientSec, secOff int64) (int64, error) {
	rows, refs := o.rows, o.refs
	numLocal := int64(len(rows)) - 1
	edges := rows[numLocal]

	// compRows: degree uvarints.
	rowBlob := cw.buf[:0]
	for u := int64(0); u < numLocal; u++ {
		rowBlob = codec.AppendUvarint(rowBlob, uint64(rows[u+1]-rows[u]))
	}
	rowBytes := int64(len(rowBlob))
	for int64(len(rowBlob)) < pad8(rowBytes) {
		rowBlob = append(rowBlob, 0)
	}

	// Block boundaries: whole rows, close at >= target edges, zero-degree
	// tails fold into the last block.
	var firstRow []int64
	if edges > 0 {
		inBlock := int64(0)
		firstRow = append(firstRow, 0)
		for u := int64(0); u < numLocal; u++ {
			deg := rows[u+1] - rows[u]
			if inBlock >= blockTargetEdges && deg > 0 {
				firstRow = append(firstRow, u)
				inBlock = 0
			}
			inBlock += deg
		}
	}
	blockCount := int64(len(firstRow))
	firstRow = append(firstRow, numLocal)

	// Placeholder sub-header + compRows + placeholder index.
	var sub [subHeaderBytes]byte
	putU64(sub[0:], uint64(rowBytes))
	putU64(sub[8:], uint64(blockCount))
	if _, err := cw.f.Write(sub[:]); err != nil {
		return 0, err
	}
	if _, err := cw.f.Write(rowBlob); err != nil {
		return 0, err
	}
	idxOff := secOff + subHeaderBytes + pad8(rowBytes)
	idx := make([]byte, 16*(blockCount+1))
	if _, err := cw.f.Write(idx); err != nil {
		return 0, err
	}

	// compRefs, block by block through the bounded buffer.
	offs := make([]int64, blockCount+1)
	cw.buf = cw.buf[:0]
	var refBytes int64
	for b := int64(0); b < blockCount; b++ {
		offs[b] = refBytes
		start := len(cw.buf)
		for u := firstRow[b]; u < firstRow[b+1]; u++ {
			cw.buf = codec.AppendZigZagDeltaRow(cw.buf, refs[rows[u]:rows[u+1]])
		}
		refBytes += int64(len(cw.buf) - start)
		if len(cw.buf) >= 1<<20 {
			if _, err := cw.f.Write(cw.buf); err != nil {
				return 0, err
			}
			cw.buf = cw.buf[:0]
		}
	}
	offs[blockCount] = refBytes
	for pad := refBytes; pad < pad8(refBytes); pad++ {
		cw.buf = append(cw.buf, 0)
	}
	if len(cw.buf) > 0 {
		if _, err := cw.f.Write(cw.buf); err != nil {
			return 0, err
		}
		cw.buf = cw.buf[:0]
	}

	// Patch refBytes and the index.
	putU64(sub[16:], uint64(refBytes))
	if _, err := cw.f.WriteAt(sub[:], secOff); err != nil {
		return 0, err
	}
	for b := int64(0); b <= blockCount; b++ {
		putU64(idx[16*b:], uint64(firstRow[b]))
		putU64(idx[16*b+8:], uint64(offs[b]))
	}
	if _, err := cw.f.WriteAt(idx, idxOff); err != nil {
		return 0, err
	}
	return subHeaderBytes + pad8(rowBytes) + 16*(blockCount+1) + pad8(refBytes), nil
}

// rawTemp creates an empty temp file next to path for the raw intermediate.
func rawTemp(path string) (string, error) {
	dir := filepath.Dir(path)
	tf, err := os.CreateTemp(dir, ".pgxd-raw-*.csr2")
	if err != nil {
		return "", err
	}
	name := tf.Name()
	tf.Close() //nolint:errcheck
	return name, nil
}
