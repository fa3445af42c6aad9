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

// orientSec is one (machine, orientation) section of an open file. rows,
// refs and weights are read-only views of the mapping, except that a
// compressed section decodes its rows to the heap and leaves refs nil: its
// block index (firstRow, offs: blockCount+1 entries each, ending in the
// {numLocal, len(comp)} sentinel) addresses comp, the view of the varint
// refs the DecodeCache inflates on demand. Every ref lies in [0, limit),
// numLocal plus the machine's slot count; slots and replicas are what the
// validation scan found the refs at or past numLocal to name.
type orientSec struct {
	rows    []int64
	refs    []int64
	weights []float64

	firstRow []int64
	offs     []int64
	comp     []byte

	numLocal, limit int64
	slots           []uint64
	replicas        int64
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
	addrs    [][]int64 // by machine: the addr table, a view of the mapping
	pageSize int64
	maxBlock int64 // decoded bytes of the largest edge block (compressed files)

	cacheMu sync.Mutex
	cache   *DecodeCache
}

// Open maps path and validates it: header, partition starts, section table,
// per section the sub-header, the row array (monotone prefix sums agreeing
// with the header edge counts) and a full scan of every ref — raw refs
// range-checked in place, compressed blocks strictly decoded — and per
// machine the addr table, so the unchecked kernel hot path and the runtime
// decode never meet a byte the validator has not already accepted. The scan
// records which slots each orientation's refs name; every slot must be named.
// Corrupt input of any kind is an error, never a panic. The scan reads the
// whole file once sequentially; the touched pages are advised away afterwards
// so a fresh Open starts with a clean resident set.
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
	sf.layout = partition.Layout{NumMachines: p, Starts: starts}
	if err := sf.layout.Validate(n); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	sf.secs = make([][2]orientSec, p)
	parse := sf.parseRaw
	if sf.Compressed() {
		parse = sf.parseCompressed
	}

	tbl := tableOffset(p)
	field := func(mach, i int) int64 {
		return int64(leU64(sf.data[tbl+int64(8*(secFieldCount*mach+i)):]))
	}
	next := dataOffset(p)
	var sums [2]int64
	// The scan below walks the file front to back.
	advise(sf.data, advSequential)
	room := (int64(len(sf.data)) - next) / 8 // words left for every addr table
	for mach := 0; mach < p; mach++ {
		// The slot count bounds every ref and sizes the slot bitmaps before the
		// addr table it counts is reached: it may not exceed the nodes other
		// machines own, nor — with the counts before it — the words the file
		// holds.
		numLocal, slots := int64(sf.layout.NumLocal(mach)), field(mach, addrField+1)
		if slots < 0 || slots > n-numLocal || slots > room {
			return fmt.Errorf("store: machine %d addr table of %d slots: the other machines own %d nodes, the file has room for %d", mach, slots, n-numLocal, room)
		}
		room -= slots
		for orient, name := range [2]string{"out", "in"} {
			field := func(i int) int64 { return field(mach, 3*orient+i) }
			secLen := field(1)
			if secLen%8 != 0 {
				return fmt.Errorf("store: machine %d %s section length %d not a multiple of 8", mach, name, secLen)
			}
			sec, err := sf.words(mach, name+" section", &next, field(0), secLen/8)
			if err != nil {
				return err
			}
			o := &sf.secs[mach][orient]
			o.numLocal, o.limit, o.slots = numLocal, numLocal+slots, make([]uint64, (slots+63)/64)
			parts, err := sf.splitSection(sec)
			if err == nil {
				err = parse(o, parts)
			}
			if err != nil {
				return fmt.Errorf("store: machine %d %s section: %w", mach, name, err)
			}
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
	sf.addrs = make([][]int64, p)
	for mach := range sf.addrs {
		words, err := sf.words(mach, "addr table", &next, field(mach, addrField), field(mach, addrField+1))
		if err != nil {
			return err
		}
		sf.addrs[mach] = i64View(words)
		if err := sf.checkAddr(mach); err != nil {
			return fmt.Errorf("store: machine %d addr table: %w", mach, err)
		}
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
func (sf *File) parseRaw(o *orientSec, sp sectionParts) error {
	numLocal := o.numLocal
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
	if i := o.note(o.refs); i >= 0 {
		return fmt.Errorf("ref %d: %d out of range [0, %d)", i, o.refs[i], o.limit)
	}
	return nil
}

// note records the slots refs name — every ref at or past numLocal — and how
// many refs name one, up to the first ref outside [0, limit), whose index it
// returns; -1 when there is none.
func (o *orientSec) note(refs []int64) int {
	for i, ref := range refs {
		if uint64(ref) >= uint64(o.limit) {
			return i
		}
		if s := ref - o.numLocal; s >= 0 {
			o.slots[s>>6] |= 1 << (s & 63)
			o.replicas++
		}
	}
	return -1
}

// checkAddr validates machine mach's addr table: strictly ascending (machine,
// offset) pairs, none naming mach itself or an offset outside its owner's
// range, and every slot named by some ref of either orientation. A packed
// address a kernel meets through a replica ref indexes no column of this
// machine, but an owner would be asked for it: the check runs here rather
// than per access.
func (sf *File) checkAddr(mach int) error {
	out, in := &sf.secs[mach][OrientOut], &sf.secs[mach][OrientIn]
	prev := int64(-1)
	for s, a := range sf.addrs[mach] {
		key := ^a
		rm, off := UnpackRef(a)
		switch {
		case a >= 0 || rm >= sf.hdr.p:
			return fmt.Errorf("slot %d: %#x names no machine", s, a)
		case rm == mach:
			return fmt.Errorf("slot %d names machine %d's own offset %d", s, mach, off)
		case int(off) >= sf.layout.NumLocal(rm):
			return fmt.Errorf("slot %d: offset %d out of machine %d's range", s, off, rm)
		case key <= prev:
			return fmt.Errorf("slot %d: (machine %d, offset %d) not strictly ascending", s, rm, off)
		}
		prev = key
		if (out.slots[s>>6]|in.slots[s>>6])>>(s&63)&1 == 0 {
			return fmt.Errorf("slot %d: (machine %d, offset %d) is named by no ref", s, rm, off)
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
func (sf *File) parseCompressed(o *orientSec, sp sectionParts) error {
	numLocal := o.numLocal
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
		if err := o.decodeBlock(b, nil); err != nil {
			return err
		}
		sf.maxBlock = max(sf.maxBlock, 8*o.blockEdges(b))
	}
	return nil
}

// decodeBlock strictly decodes block b of compressed section o. With dst
// non-nil — the block's decoded length, row u at o.rows[u] less the block's
// first edge — the decoded values are the refs; with dst nil the block is
// validated and the slots its refs name are recorded (note). Every path
// enforces canonical varints, refs in [0, o.limit), and exact consumption of
// the block's byte range.
func (o *orientSec) decodeBlock(b int, dst []int64) error {
	comp := o.comp[o.offs[b]:o.offs[b+1]]
	base := o.rows[o.firstRow[b]]
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
		vals, k, ok := codec.DecodeZigZagDeltaRow(comp[off:], int(e-s), o.limit, row)
		if !ok {
			return fmt.Errorf("block %d row %d: corrupt compressed row", b, u)
		}
		off += k
		if dst == nil {
			o.note(vals) // in range: the decoder bounds every value by limit
			scratch = vals
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
	sf.secs, sf.addrs = nil, nil
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

// Section returns machine mach's view of the mapping and what Open's scan
// recorded of it. The slices are read-only; writing through the mapping's
// faults.
func (sf *File) Section(mach int) Section {
	out, in := &sf.secs[mach][OrientOut], &sf.secs[mach][OrientIn]
	return Section{
		OutRows: out.rows, OutRefs: out.refs, OutWeights: out.weights,
		InRows: in.rows, InRefs: in.refs, InWeights: in.weights,
		Addr:     sf.addrs[mach],
		OutSlots: out.slots, InSlots: in.slots,
		OutReplicas: out.replicas, InReplicas: in.replicas,
	}
}

// FileBytes returns the total on-disk size.
func (sf *File) FileBytes() int64 { return int64(len(sf.data)) }
