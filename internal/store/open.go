package store

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"unsafe"

	"repro/internal/codec"
	"repro/internal/partition"
)

// Section is one machine's slice of the file: the same rows/refs/weights
// slice contract core's local store builds in memory. A compressed file's
// Section carries rows and weights but nil refs: its refs are read row by row
// through a Cursor.
type Section struct {
	OutRows    []int64
	OutRefs    []int64
	OutWeights []float64 // nil when unweighted
	InRows     []int64
	InRefs     []int64
	InWeights  []float64
}

// orientSec is one (machine, orientation) section of an open file. rows,
// refs and weights are read-only views of the mapping, except that a
// compressed section decodes its rows to the heap and leaves refs nil: its
// block index (firstRow, offs: blockCount+1 entries each, ending in the
// {numLocal, len(comp)} sentinel) addresses comp, the view of the varint
// refs the DecodeCache inflates on demand.
type orientSec struct {
	rows    []int64
	refs    []int64
	weights []float64

	firstRow []int64
	offs     []int64
	comp     []byte
}

// File is an open, validated CSR store file. The section views alias the
// mmap region: reading them faults pages in on demand and the kernel evicts
// them under pressure, so topology residency is governed by the page cache,
// not the Go heap. Close unmaps everything — no section slice may be used
// after.
type File struct {
	path     string
	data     []byte
	unmap    func() error
	hdr      header
	layout   partition.Layout
	secs     [][2]orientSec
	pageSize int64
	maxBlock int64 // decoded bytes of the largest edge block (compressed files)

	cacheMu sync.Mutex
	cache   *DecodeCache
}

// Open maps path and validates it: header, partition starts, section table,
// and per section the sub-header, the row array (monotone prefix sums
// agreeing with the header edge counts) and a full scan of every ref — raw
// refs range-checked in place, compressed blocks strictly decoded — so the
// unchecked kernel hot path and the runtime decode never meet a byte the
// validator has not already accepted. Corrupt input of any kind is an error,
// never a panic. The scan reads the whole file once sequentially; the touched
// pages are advised away afterwards so a fresh Open starts with a clean
// resident set.
func Open(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data, unmap, err := mapRO(f, st.Size())
	if err != nil {
		return nil, fmt.Errorf("store: mmap %s: %w", path, err)
	}
	sf := &File{path: path, data: data, unmap: unmap, pageSize: int64(os.Getpagesize())}
	if err := sf.validate(); err != nil {
		unmap() //nolint:errcheck
		return nil, err
	}
	// Drop what the validation scan faulted in.
	advise(sf.data, advDontNeed)
	return sf, nil
}

func (sf *File) validate() error {
	hdr, err := parseHeader(sf.data)
	if err != nil {
		return err
	}
	sf.hdr = hdr
	p, n := hdr.p, int64(hdr.numNodes)
	starts := make([]uint32, p+1)
	for i := range starts {
		starts[i] = leU32(sf.data[headerFixedBytes+4*i:])
	}
	if starts[0] != 0 || int64(starts[p]) != n {
		return fmt.Errorf("store: starts [%d..%d] do not cover [0, %d)", starts[0], starts[p], n)
	}
	for i := 1; i <= p; i++ {
		if starts[i] < starts[i-1] {
			return fmt.Errorf("store: starts not monotone at machine %d", i)
		}
	}
	sf.layout = partition.Layout{NumMachines: p, Starts: starts}
	sf.secs = make([][2]orientSec, p)
	parse := sf.parseRaw
	if sf.Compressed() {
		parse = sf.parseCompressed
	}

	tbl := tableOffset(p)
	next := dataOffset(p)
	var sums [2]int64
	// The scan below walks the file front to back.
	advise(sf.data, advSequential)
	for mach := 0; mach < p; mach++ {
		for orient, name := range [2]string{"out", "in"} {
			field := func(i int) int64 {
				return int64(leU64(sf.data[tbl+int64(8*(secFieldCount*mach+3*orient+i)):]))
			}
			secLen := field(1)
			if secLen%8 != 0 {
				return fmt.Errorf("store: machine %d %s section length %d not a multiple of 8", mach, name, secLen)
			}
			sec, err := sf.words(mach, name+" section", &next, field(0), secLen/8)
			if err != nil {
				return err
			}
			parts, err := sf.splitSection(sec)
			if err == nil {
				err = parse(&sf.secs[mach][orient], mach, parts)
			}
			if err != nil {
				return fmt.Errorf("store: machine %d %s section: %w", mach, name, err)
			}
			o := &sf.secs[mach][orient]
			m := o.rows[len(o.rows)-1]
			if sums[orient] += m; sums[orient] > int64(hdr.numEdges) {
				return fmt.Errorf("store: %s sections exceed the header's %d edges at machine %d", name, hdr.numEdges, mach)
			}
			if sf.Weighted() {
				ws, err := sf.words(mach, name+" weights", &next, field(2), m)
				if err != nil {
					return err
				}
				o.weights = f64View(ws)
			} else if field(2) != 0 {
				return fmt.Errorf("store: machine %d has a weight offset in an unweighted file", mach)
			}
		}
	}
	if sums[OrientOut] != int64(hdr.numEdges) || sums[OrientIn] != int64(hdr.numEdges) {
		return fmt.Errorf("store: section edge counts (out=%d in=%d) disagree with header (%d)", sums[OrientOut], sums[OrientIn], hdr.numEdges)
	}
	if size := int64(len(sf.data)); next != size {
		return fmt.Errorf("store: %d trailing bytes after last section", size-next)
	}
	return nil
}

// words is the one bounds check of a file-supplied array: count 8-byte words
// at offset off must start exactly where the previous array ended (*next),
// 8-byte aligned, and lie inside the file. count is range-checked against the
// bytes left before anything multiplies it, so no value in the file can wrap
// the end offset. It returns the array's bytes and advances *next past them.
func (sf *File) words(mach int, name string, next *int64, off, count int64) ([]byte, error) {
	size := int64(len(sf.data))
	if off != *next {
		return nil, fmt.Errorf("store: machine %d %s at offset %d, expected %d", mach, name, off, *next)
	}
	if off%8 != 0 {
		return nil, fmt.Errorf("store: machine %d %s offset %d not 8-byte aligned", mach, name, off)
	}
	if count < 0 || count > (size-off)/8 {
		return nil, fmt.Errorf("store: machine %d %s: %d words at offset %d exceed file size %d (truncated?)", mach, name, count, off, size)
	}
	*next = off + 8*count
	return sf.data[off:*next], nil
}

// i64View and f64View reinterpret an 8-aligned byte range of the mapping.
func i64View(b []byte) []int64 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), len(b)/8)
}

func f64View(b []byte) []float64 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8)
}

// sectionParts are the regions a section's sub-header delimits, padding
// excluded. index is empty in a raw section.
type sectionParts struct {
	rows, index, refs []byte
	blockCount        int64
}

// splitSection checks a section's sub-header against its length — the three
// counts are file-supplied, so each is bounded by the section before it
// enters the sum — and cuts the section into its parts.
func (sf *File) splitSection(sec []byte) (sectionParts, error) {
	n := int64(len(sec))
	if n < subHeaderBytes {
		return sectionParts{}, fmt.Errorf("%d bytes, too short for the sub-header (truncated?)", n)
	}
	rowBytes, blockCount, refBytes := int64(leU64(sec)), int64(leU64(sec[8:])), int64(leU64(sec[16:]))
	if rowBytes < 0 || rowBytes > n || refBytes < 0 || refBytes > n || blockCount < 0 || blockCount > n/16 {
		return sectionParts{}, fmt.Errorf("implausible sub-header (rowBytes=%d blocks=%d refBytes=%d)", rowBytes, blockCount, refBytes)
	}
	idxBytes := int64(0)
	if sf.Compressed() {
		idxBytes = 16 * (blockCount + 1)
	}
	idxAt := subHeaderBytes + pad8(rowBytes)
	refsAt := idxAt + idxBytes
	if want := refsAt + pad8(refBytes); want != n {
		return sectionParts{}, fmt.Errorf("length %d disagrees with sub-header (want %d)", n, want)
	}
	for _, pad := range [2][]byte{sec[subHeaderBytes+rowBytes : idxAt], sec[refsAt+refBytes:]} {
		for _, b := range pad {
			if b != 0 {
				return sectionParts{}, fmt.Errorf("non-zero alignment padding")
			}
		}
	}
	return sectionParts{
		rows:       sec[subHeaderBytes : subHeaderBytes+rowBytes],
		index:      sec[idxAt:refsAt],
		refs:       sec[refsAt : refsAt+refBytes],
		blockCount: blockCount,
	}, nil
}

// parseRaw adopts a raw section: rows and refs are int64 views of the
// mapping, the prefix sums must be monotone from 0 and end at exactly the
// ref count the sub-header sized, and every ref must resolve.
func (sf *File) parseRaw(o *orientSec, mach int, sp sectionParts) error {
	numLocal := int64(sf.layout.NumLocal(mach))
	if sp.blockCount != 0 || int64(len(sp.rows)) != 8*(numLocal+1) || len(sp.refs)%8 != 0 {
		return fmt.Errorf("raw sub-header (rowBytes=%d blocks=%d refBytes=%d) does not fit %d rows",
			len(sp.rows), sp.blockCount, len(sp.refs), numLocal)
	}
	rows := i64View(sp.rows)
	if rows[0] != 0 {
		return fmt.Errorf("rows[0] = %d, want 0", rows[0])
	}
	for u := int64(1); u <= numLocal; u++ {
		if rows[u] < rows[u-1] {
			return fmt.Errorf("rows not monotone at %d", u)
		}
	}
	if m := rows[numLocal]; m != int64(len(sp.refs)/8) {
		return fmt.Errorf("rows end at %d edges, section holds %d refs (truncated?)", m, len(sp.refs)/8)
	}
	o.rows, o.refs = rows, i64View(sp.refs)
	return sf.checkRefs(o.refs, mach)
}

// checkRefs verifies every ref resolves: local refs inside the owner's
// range, remote refs naming a real (machine, offset) slot. A corrupt ref
// would index property columns out of bounds on the unchecked kernel hot
// path, so the scan runs at Open rather than per access.
func (sf *File) checkRefs(refs []int64, mach int) error {
	numLocal := int64(sf.layout.NumLocal(mach))
	for i, ref := range refs {
		if ref >= 0 {
			if ref >= numLocal {
				return fmt.Errorf("ref %d: local index %d out of range [0, %d)", i, ref, numLocal)
			}
			continue
		}
		rm, off := unpackRemoteRef(ref)
		if rm < 0 || rm >= sf.hdr.p {
			return fmt.Errorf("ref %d: remote machine %d out of range", i, rm)
		}
		if int(off) >= sf.layout.NumLocal(rm) {
			return fmt.Errorf("ref %d: remote offset %d out of machine %d's range", i, off, rm)
		}
	}
	return nil
}

// parseCompressed decodes a compressed section's metadata — heap row prefix
// sums from the uvarint degrees, the block index — and strictly decodes every
// block: torn, overlong, trailing or out-of-range bytes are rejected here,
// exactly like the wire codec rejects corrupt frames. Each row costs at least
// one degree byte and each edge at least one ref byte, so the row count and
// every degree are checked against the bytes that could back them before
// they size anything.
func (sf *File) parseCompressed(o *orientSec, mach int, sp sectionParts) error {
	numLocal := int64(sf.layout.NumLocal(mach))
	refBytes := int64(len(sp.refs))
	if numLocal > int64(len(sp.rows)) {
		return fmt.Errorf("%d degree bytes cannot hold %d rows", len(sp.rows), numLocal)
	}
	o.rows = make([]int64, numLocal+1)
	consumed := 0
	for u := int64(0); u < numLocal; u++ {
		d, k := codec.Uvarint(sp.rows[consumed:])
		if k <= 0 {
			return fmt.Errorf("corrupt degree varint at row %d", u)
		}
		if d > uint64(refBytes-o.rows[u]) {
			return fmt.Errorf("row %d degree %d exceeds the %d ref bytes left", u, d, refBytes-o.rows[u])
		}
		consumed += k
		o.rows[u+1] = o.rows[u] + int64(d)
	}
	if consumed != len(sp.rows) {
		return fmt.Errorf("%d trailing degree bytes", len(sp.rows)-consumed)
	}
	edges := o.rows[numLocal]

	blockCount := sp.blockCount
	o.firstRow = make([]int64, blockCount+1)
	o.offs = make([]int64, blockCount+1)
	for b := range o.firstRow {
		o.firstRow[b] = int64(leU64(sp.index[16*b:]))
		o.offs[b] = int64(leU64(sp.index[16*b+8:]))
	}
	if o.firstRow[blockCount] != numLocal || o.offs[blockCount] != refBytes {
		return fmt.Errorf("block index sentinel {%d, %d}, want {%d, %d}",
			o.firstRow[blockCount], o.offs[blockCount], numLocal, refBytes)
	}
	if edges == 0 {
		if blockCount != 0 || refBytes != 0 {
			return fmt.Errorf("edgeless section with %d blocks, %d ref bytes", blockCount, refBytes)
		}
	} else {
		if blockCount == 0 {
			return fmt.Errorf("%d edges but no blocks", edges)
		}
		if o.firstRow[0] != 0 || o.offs[0] != 0 {
			return fmt.Errorf("first block starts at {row %d, byte %d}, want {0, 0}", o.firstRow[0], o.offs[0])
		}
	}
	for b := int64(1); b <= blockCount; b++ {
		if o.firstRow[b] <= o.firstRow[b-1] || o.offs[b] <= o.offs[b-1] {
			return fmt.Errorf("block index not strictly increasing at block %d", b)
		}
	}
	o.comp = sp.refs
	for b := 0; b < int(blockCount); b++ {
		if err := sf.decodeBlock(o, mach, b, nil); err != nil {
			return err
		}
		sf.maxBlock = max(sf.maxBlock, 8*o.blockEdges(b))
	}
	return nil
}

// decodeBlock strictly decodes block b of machine mach's compressed section
// o. With dst non-nil — the block's decoded length, row u at o.rows[u] less the
// block's first edge — each row's global ids become the engine's refs as soon
// as it is decoded; with dst nil the block is validated only. Every path
// enforces canonical varints, ids in [0, numNodes), and exact consumption of
// the block's byte range.
func (sf *File) decodeBlock(o *orientSec, mach, b int, dst []int64) error {
	comp := o.comp[o.offs[b]:o.offs[b+1]]
	n := int64(sf.hdr.numNodes)
	base := o.rows[o.firstRow[b]]
	// An id is tried against this machine's range, then the range of the last
	// other owner met; only one outside both pays the owner search.
	lo, hi := sf.layout.Range(mach)
	var owner int
	var oLo, oHi uint32
	var scratch []int64
	off := 0
	for u := o.firstRow[b]; u < o.firstRow[b+1]; u++ {
		s, e := o.rows[u], o.rows[u+1]
		if s == e {
			continue
		}
		row := scratch
		if dst != nil {
			row = dst[s-base : s-base : e-base]
		}
		vals, k, ok := codec.DecodeZigZagDeltaRow(comp[off:], int(e-s), n, row)
		if !ok {
			return fmt.Errorf("block %d row %d: corrupt compressed row", b, u)
		}
		off += k
		if dst == nil {
			scratch = vals
			continue
		}
		for i, id := range vals {
			v := uint32(id)
			if v >= lo && v < hi {
				vals[i] = int64(v - lo)
				continue
			}
			if v < oLo || v >= oHi {
				owner = sf.layout.Owner(v)
				oLo, oHi = sf.layout.Range(owner)
			}
			vals[i] = packRemoteRef(owner, v-oLo)
		}
	}
	if off != len(comp) {
		return fmt.Errorf("block %d: %d trailing block bytes", b, len(comp)-off)
	}
	return nil
}

// blockEdges returns how many edges — decoded refs — block b holds.
func (o *orientSec) blockEdges(b int) int64 { return o.rows[o.firstRow[b+1]] - o.rows[o.firstRow[b]] }

// blockRange returns the half-open block index range covering rows
// [rowLo, rowHi) of a compressed section; empty when the row span carries no
// edges.
func (o *orientSec) blockRange(rowLo, rowHi int64) (int, int) {
	nb := len(o.firstRow) - 1
	if nb <= 0 || rowLo >= rowHi || o.rows[rowHi]-o.rows[rowLo] == 0 {
		return 0, 0
	}
	// First block whose row range extends past rowLo.
	blo := sort.Search(nb, func(b int) bool { return o.firstRow[b+1] > rowLo })
	// First block starting at or past rowHi.
	bhi := sort.Search(nb, func(b int) bool { return o.firstRow[b] >= rowHi })
	if bhi < blo {
		bhi = blo
	}
	return blo, bhi
}

// Close unmaps the file (and frees the decode cache's pool, if one was
// created). Section views and cursor rows must not be used afterwards.
func (sf *File) Close() error {
	sf.cacheMu.Lock()
	if sf.cache != nil {
		sf.cache.free()
		sf.cache = nil
	}
	sf.cacheMu.Unlock()
	if sf.unmap == nil {
		return nil
	}
	u := sf.unmap
	sf.unmap = nil
	sf.data = nil
	sf.secs = nil
	return u()
}

// Path returns the file's path.
func (sf *File) Path() string { return sf.path }

// NumNodes returns the graph's node count.
func (sf *File) NumNodes() int { return int(sf.hdr.numNodes) }

// NumEdges returns the graph's directed edge count.
func (sf *File) NumEdges() int64 { return int64(sf.hdr.numEdges) }

// NumMachines returns the partition count P the file was written for.
func (sf *File) NumMachines() int { return sf.hdr.p }

// Weighted reports whether the file carries edge weights.
func (sf *File) Weighted() bool { return sf.hdr.flags&FlagWeighted != 0 }

// Compressed reports whether the file's sections use the compressed
// spelling. Compressed files serve refs through a DecodeCache's cursors; their
// Section views carry rows and weights but nil refs.
func (sf *File) Compressed() bool { return sf.hdr.flags&FlagCompressedEdges != 0 }

// Layout returns the ownership layout stored in the file.
func (sf *File) Layout() partition.Layout {
	starts := make([]uint32, len(sf.layout.Starts))
	copy(starts, sf.layout.Starts)
	return partition.Layout{NumMachines: sf.hdr.p, Starts: starts}
}

// Section returns machine mach's view of the mapping. The slices are
// read-only; writing through them faults.
func (sf *File) Section(mach int) Section {
	out, in := &sf.secs[mach][OrientOut], &sf.secs[mach][OrientIn]
	return Section{
		OutRows: out.rows, OutRefs: out.refs, OutWeights: out.weights,
		InRows: in.rows, InRefs: in.refs, InWeights: in.weights,
	}
}

// FileBytes returns the total on-disk size.
func (sf *File) FileBytes() int64 { return int64(len(sf.data)) }
