// Package store is the engine's out-of-core storage subsystem: one binary
// CSR file format whose per-machine partition sections hold the engine's
// resolved node references, loaded via mmap so page-cache eviction — not
// the Go heap — governs topology residency. The paper's Table 4 already
// distinguishes a fast binary on-disk format; GraphD (PAPERS.md) shows that
// streaming edges from disk under a small memory budget stays competitive
// when the message path is lean. This package makes graphs bigger than RAM a
// load-time choice rather than an engine rewrite: a file's section views and
// an in-memory load's heap section (SectionOf) are the same Section, so the
// chunk scheduler, partition.EdgeChunks, and every kernel run unmodified over
// disk-backed topology.
//
// The package owns the engine's ref encoding (PackRef, UnpackRef) and its one
// replica numbering (numbering, section.go), which the file writer and
// SectionOf both call: every load's rows come numbered.
//
// # File layout (little-endian)
//
//	offset 0   magic           "PGXDCSR2"
//	       8   version         u32 (= 5)
//	      12   flags           u32 (bit 0: weighted, bit 1: compressed refs)
//	      16   numNodes        u64
//	      24   numEdges        u64 (directed)
//	      32   numMachines     u64 (P)
//	      40   starts          [P+1]u32, zero-padded to 8-byte alignment
//	       -   section table   P × 8 u64, per machine: per orientation (out,
//	                           then in) section offset, section byte length,
//	                           weights offset (0 when unweighted); then the
//	                           addr table's offset and slot count S
//	       -   per machine, per orientation, back to back and 8-byte aligned:
//	               section     sub-header + rows + block index + refs (below)
//	               weights     [m]f64, weighted files only — always flat:
//	                           they are incompressible noise, and a flat array
//	                           is the zero-copy view kernels index absolutely
//	       -   per machine, back to back after every section:
//	               addr        [S]i64, slot → packed address (below)
//
// Every section starts with the same 24-byte sub-header and differs only in
// how the compressed-refs flag spells its rows and refs:
//
//	              raw (.csr2)                  compressed (.csr3)
//	u64 rowBytes   8*(numLocal+1)               exact uvarint content length
//	u64 blockCount 0                            number of edge blocks
//	u64 refBytes   8*m                          exact varint content length
//	rows           [numLocal+1]i64 prefix sums  numLocal uvarint degrees (the
//	               rows[0] == 0                 deltas of the prefix sums)
//	block index    absent                       (blockCount+1) x {u64 firstRow,
//	                                            u64 byteOff}; last entry is the
//	                                            {numLocal, refBytes} sentinel
//	refs           [m]i64 engine refs           per-row zigzag-delta varints of
//	                                            the same refs (prev resets to 0
//	                                            at each row start — rows keep
//	                                            edge insertion order, so gaps
//	                                            are signed)
//
// rows and refs are each zero-padded to 8-byte alignment, so a raw section is
// handed out as zero-copy int64 views of the mapping — the fast spelling — and
// a compressed one is several times smaller: block b covers rows
// [firstRow[b], firstRow[b+1]) and bytes [byteOff[b], byteOff[b+1]) of refs,
// holds whole rows and at least one edge (a hub row larger than the target
// becomes one oversized block; blockCount is 0 iff the section has no edges),
// and is inflated on demand by the DecodeCache.
//
// Refs are written resolved, in the engine's replica numbering: ref <
// numLocal is the owner-local node index, and ref = numLocal + s names slot s
// of the machine's addr table, whose entry is the remote node's packed
// address ^(machine<<32 | offset). Slots ascend with (machine, offset) and
// number exactly the distinct remote nodes either orientation references, so
// a file holds a machine's uncapped remote set — what SectionOf numbers for
// an in-memory load of the same cut — and a load hands kernels the rows as
// written. The writer derives the in-orientation from packed out-refs,
// which are invertible to global ids, and resolves both orientations in one
// pass per machine after; the compressed spelling re-encodes the resolved
// refs, so its deltas run over [0, numLocal + S) rather than global ids.
package store

import (
	"encoding/binary"
	"fmt"

	"repro/internal/partition"
)

// Magic identifies a CSR store file.
const Magic = "PGXDCSR2"

// Version is the one format version this build reads and writes. Files of
// earlier layouts — the two-container versions 2 and 3, and version 4's
// packed remote refs — share the magic and are refused at Open; no store file
// is long-lived enough to migrate.
const Version = 5

// Format flags.
const (
	// FlagWeighted marks files carrying per-edge float64 weights.
	FlagWeighted uint32 = 1 << 0
	// FlagCompressedEdges marks files whose sections spell rows and refs as
	// varint blocks (the .csr3 encoding) rather than flat int64 arrays.
	FlagCompressedEdges uint32 = 1 << 1

	knownFlags = FlagWeighted | FlagCompressedEdges
)

// Orientation indices of a machine's two sections.
const (
	OrientOut = 0
	OrientIn  = 1
)

const (
	headerFixedBytes = 40 // magic + version + flags + n + m + p
	secFieldCount    = 8  // section table words per machine (3 per orientation, 2 for addr)
	addrField        = 6  // the addr table's offset; its slot count follows
	subHeaderBytes   = 24 // rowBytes + blockCount + refBytes
	maxMachines      = 1 << 15

	// blockTargetEdges is the compressed writer's decoded-block granularity:
	// 8192 edges = 64 KiB of decoded refs, the unit the decode cache pins and
	// evicts.
	blockTargetEdges = 8192
)

// pad8 rounds n up to a multiple of 8.
func pad8(n int64) int64 { return (n + 7) &^ 7 }

// header is the decoded fixed-size prelude of a CSR store file.
type header struct {
	flags    uint32
	numNodes uint64
	numEdges uint64
	p        int
}

// tableOffset returns the file offset of the section table: the fixed
// prelude plus the starts array with its alignment padding.
func tableOffset(p int) int64 {
	return int64(headerFixedBytes) + pad8(int64(4*(p+1)))
}

// dataOffset returns the file offset of the first section.
func dataOffset(p int) int64 {
	return tableOffset(p) + int64(8*secFieldCount*p)
}

func leU32(b []byte) uint32     { return binary.LittleEndian.Uint32(b) }
func leU64(b []byte) uint64     { return binary.LittleEndian.Uint64(b) }
func putU32(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }
func putU64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }

// parseHeader validates the fixed prelude and returns it decoded.
func parseHeader(data []byte) (header, error) {
	if len(data) < headerFixedBytes {
		return header{}, fmt.Errorf("store: file too short for header: %d bytes", len(data))
	}
	if string(data[:8]) != Magic {
		return header{}, fmt.Errorf("store: bad magic %q (want %q)", data[:8], Magic)
	}
	if v := leU32(data[8:]); v != Version {
		return header{}, fmt.Errorf("store: format version %d, this build reads only version %d — regenerate the file (pgxd-gen -format csr2|csr3)", v, Version)
	}
	h := header{
		flags:    leU32(data[12:]),
		numNodes: leU64(data[16:]),
		numEdges: leU64(data[24:]),
	}
	if h.flags&^knownFlags != 0 {
		return header{}, fmt.Errorf("store: unknown flag bits %#x", h.flags&^knownFlags)
	}
	p := leU64(data[32:])
	if p < 1 || p > maxMachines {
		return header{}, fmt.Errorf("store: machine count %d out of range [1, %d]", p, maxMachines)
	}
	h.p = int(p)
	if h.numNodes > 1<<32 {
		return header{}, fmt.Errorf("store: node count %d exceeds the 32-bit id space", h.numNodes)
	}
	if want := dataOffset(h.p); int64(len(data)) < want {
		return header{}, fmt.Errorf("store: file truncated inside section table: %d bytes, need %d", len(data), want)
	}
	return h, nil
}

// renderHeader renders the fixed prelude, starts array and section table —
// everything before the first section — for every writer.
func renderHeader(h header, starts []uint32, table [][secFieldCount]int64) []byte {
	buf := make([]byte, dataOffset(h.p))
	copy(buf, Magic)
	putU32(buf[8:], Version)
	putU32(buf[12:], h.flags)
	putU64(buf[16:], h.numNodes)
	putU64(buf[24:], h.numEdges)
	putU64(buf[32:], uint64(h.p))
	for i, s := range starts {
		putU32(buf[headerFixedBytes+4*i:], s)
	}
	tbl := tableOffset(h.p)
	for mach := range table {
		for f, v := range table[mach] {
			putU64(buf[tbl+int64(8*(secFieldCount*mach+f)):], uint64(v))
		}
	}
	return buf
}

// PackRef is the engine's packed ref to a remote node, the paper's 64-bit
// global id ("concatenates the machine number and the local offset"):
// ^(machine<<32 | offset), negative so that it never meets a local or a
// replica ref.
func PackRef(machine int, offset uint32) int64 {
	return ^(int64(machine)<<32 | int64(offset))
}

// UnpackRef inverts PackRef.
func UnpackRef(ref int64) (machine int, offset uint32) {
	packed := ^ref
	return int(packed >> 32), uint32(packed)
}

// refIn spells global node v, owned by machine owner, in machine me's packed
// encoding — the writer's, before it resolves the refs: an owned id becomes
// its local index, anything else a packed remote (machine, offset).
func refIn(layout partition.Layout, me, owner int, v uint32) int64 {
	if owner == me {
		return int64(v - layout.Starts[me])
	}
	return PackRef(owner, v-layout.Starts[owner])
}

// refOf is refIn for a node whose owner is not at hand: the owner search is
// skipped for ids inside me's own range. v must be a valid node id.
func refOf(layout partition.Layout, me int, v uint32) int64 {
	if lo, hi := layout.Range(me); v >= lo && v < hi {
		return int64(v - lo)
	}
	return refIn(layout, me, layout.Owner(v), v)
}

// nodeOf inverts refOf (packed refs are invertible): the global id ref names
// in machine me's frame, and the machine that owns it — which the ref spells
// out, so no owner search.
func nodeOf(layout partition.Layout, me int, ref int64) (v uint32, owner int) {
	if ref >= 0 {
		return layout.Starts[me] + uint32(ref), me
	}
	rm, off := UnpackRef(ref)
	return layout.Starts[rm] + off, rm
}
