package store

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/codec"
	"repro/internal/graph"
	"repro/internal/partition"
)

func testGraph(t testing.TB, weighted bool) *graph.Graph {
	t.Helper()
	g, err := graph.RMAT(8, 8, graph.TwitterLike(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if weighted {
		g = g.WithUniformWeights(0.5, 2.0, 7)
	}
	return g
}

// encodings are the two section spellings, by the file suffix that names them.
var encodings = []struct {
	name  string
	write func(path string, g *graph.Graph, p int) error
}{
	{"csr2", WriteGraph},
	{"csr3", WriteGraphCompressed},
}

// writeOpen writes g in one encoding and opens the file.
func writeOpen(t testing.TB, g *graph.Graph, p int, write func(string, *graph.Graph, int) error) *File {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.csr")
	if err := write(path, g, p); err != nil {
		t.Fatal(err)
	}
	sf, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sf.Close() })
	return sf
}

// rowReader reads the rows of one (machine, orientation) of a load of either
// encoding: a raw file's out of its view, a compressed one's through a cursor.
type rowReader struct {
	ld   *Load
	rows []int64
	refs []int64
	cur  Cursor
}

func newRowReader(ld *Load, mach, orient int) *rowReader {
	sec := ld.File().Section(mach)
	r := &rowReader{ld: ld, rows: sec.OutRows, refs: sec.OutRefs}
	if orient == OrientIn {
		r.rows, r.refs = sec.InRows, sec.InRefs
	}
	if ld.File().Compressed() {
		r.cur = ld.Cursor(mach, orient)
	}
	return r
}

// row returns row u's refs, valid until the next row or release.
func (r *rowReader) row(t testing.TB, u int64) []int64 {
	t.Helper()
	if !r.ld.File().Compressed() {
		return r.refs[r.rows[u]:r.rows[u+1]]
	}
	row, err := r.cur.Row(u)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(row)) != r.rows[u+1]-r.rows[u] {
		t.Fatalf("row %d holds %d refs, its degree is %d", u, len(row), r.rows[u+1]-r.rows[u])
	}
	return row
}

func (r *rowReader) release() { r.cur.Release() }

// globalOf maps a ref of machine mach's sections back to the global id it
// names: an owned index through the layout, a replica through the machine's
// addr table.
func globalOf(sf *File, mach int, ref int64) uint32 {
	if n := int64(sf.layout.NumLocal(mach)); ref >= n {
		ref = sf.addrs[mach][ref-n]
	}
	v, _ := nodeOf(sf.layout, mach, ref)
	return v
}

// checkOrientation reconstructs the global CSR from a load's sections and
// compares it against the source orientation, including per-row neighbor
// order and weights, and recounts the slots the refs name and how often
// against what Open recorded.
func checkOrientation(t *testing.T, ld *Load, src *graph.CSR, out bool) {
	t.Helper()
	layout := ld.File().Layout()
	for mach := 0; mach < layout.NumMachines; mach++ {
		sec := ld.File().Section(mach)
		rows, weights, orient := sec.InRows, sec.InWeights, OrientIn
		wantSlots, wantReplicas := sec.InSlots, sec.InReplicas
		if out {
			rows, weights, orient = sec.OutRows, sec.OutWeights, OrientOut
			wantSlots, wantReplicas = sec.OutSlots, sec.OutReplicas
		}
		slots, replicas := make([]uint64, (len(sec.Addr)+63)/64), int64(0)
		rd := newRowReader(ld, mach, orient)
		defer rd.release()
		lo, hi := layout.Range(mach)
		numLocal := int64(hi - lo)
		if int64(len(rows)) != numLocal+1 {
			t.Fatalf("machine %d: rows len %d, want %d", mach, len(rows), numLocal+1)
		}
		for u := int64(0); u < numLocal; u++ {
			gu := graph.NodeID(int64(lo) + u)
			wantDeg := src.Rows[gu+1] - src.Rows[gu]
			if got := rows[u+1] - rows[u]; got != wantDeg {
				t.Fatalf("machine %d node %d: degree %d, want %d", mach, gu, got, wantDeg)
			}
			refs := rd.row(t, u)
			for _, ref := range refs {
				if s := ref - numLocal; s >= 0 {
					slots[s>>6] |= 1 << (s & 63)
					replicas++
				}
			}
			for i := rows[u]; i < rows[u+1]; i++ {
				v := globalOf(ld.File(), mach, refs[i-rows[u]])
				srcIdx := src.Rows[gu] + (i - rows[u])
				if want := src.Cols[srcIdx]; v != want {
					t.Fatalf("machine %d node %d edge %d: neighbor %d, want %d", mach, gu, i-rows[u], v, want)
				}
				if src.Weights != nil {
					if weights == nil || weights[i] != src.Weights[srcIdx] {
						t.Fatalf("machine %d node %d edge %d: weight mismatch", mach, gu, i-rows[u])
					}
				}
			}
		}
		if !slices.Equal(slots, wantSlots) || replicas != wantReplicas {
			t.Fatalf("machine %d orientation %d: the refs name slots %x %d times, Open recorded %x and %d", mach, orient, slots, replicas, wantSlots, wantReplicas)
		}
	}
}

// TestWriteOpenRoundTrip is the format's independent reference: whatever the
// writer pipeline and either section spelling do, the sections an Open hands
// out must equal the graph's own CSR — layout, degrees, neighbor order,
// weights — with compressed refs read through cursors.
func TestWriteOpenRoundTrip(t *testing.T) {
	for _, enc := range encodings {
		for _, weighted := range []bool{false, true} {
			name := enc.name + "/unweighted"
			if weighted {
				name = enc.name + "/weighted"
			}
			t.Run(name, func(t *testing.T) {
				g := testGraph(t, weighted)
				sf := writeOpen(t, g, 3, enc.write)
				if sf.NumNodes() != g.NumNodes() || sf.NumEdges() != g.NumEdges() {
					t.Fatalf("header (n=%d m=%d), want (n=%d m=%d)", sf.NumNodes(), sf.NumEdges(), g.NumNodes(), g.NumEdges())
				}
				if sf.Weighted() != weighted {
					t.Fatalf("weighted = %v, want %v", sf.Weighted(), weighted)
				}
				if compressed := enc.name == "csr3"; sf.Compressed() != compressed {
					t.Fatalf("Compressed() = %v, want %v", sf.Compressed(), compressed)
				} else if sec := sf.Section(0); compressed != (sec.OutRefs == nil && sec.InRefs == nil) {
					t.Fatal("a file's own Section must expose refs iff it is raw")
				}
				wantLayout, err := partition.Compute(g, 3, partition.EdgeBalanced)
				if err != nil {
					t.Fatal(err)
				}
				gotLayout := sf.Layout()
				for i := range wantLayout.Starts {
					if gotLayout.Starts[i] != wantLayout.Starts[i] {
						t.Fatalf("layout starts %v, want %v", gotLayout.Starts, wantLayout.Starts)
					}
				}
				ld, err := sf.NewLoad(0, -1)
				if err != nil {
					t.Fatal(err)
				}
				if sec := ld.File().Section(0); sf.Compressed() != (sec.OutRefs == nil && sec.InRefs == nil) {
					t.Fatal("a load's Section must expose refs iff its file is raw")
				}
				checkOrientation(t, ld, &g.Out, true)
				checkOrientation(t, ld, &g.In, false)
				if st := ld.Stats(); st.Decode.PinnedBlocks != 0 {
					t.Fatalf("%d blocks still pinned after release", st.Decode.PinnedBlocks)
				}
			})
		}
	}
}

// edgeListStream adapts a fixed edge list (optionally weighted) to the
// EdgeStream contract for tests.
type edgeListStream struct {
	n        int
	edges    []graph.Edge
	weighted bool
}

func (s *edgeListStream) NumNodes() int  { return s.n }
func (s *edgeListStream) Weighted() bool { return s.weighted }
func (s *edgeListStream) Sweep(emit func(u, v uint32, w float64)) {
	for _, e := range s.edges {
		emit(uint32(e.Src), uint32(e.Dst), e.Weight)
	}
}

func mustStream(s *graph.GenStream, err error) *graph.GenStream {
	if err != nil {
		panic(err)
	}
	return s
}

// TestStreamedMatchesInMemory pins the bucket arithmetic: a regenerating edge
// stream scattered through tiny buckets (many sweeps, exercising the
// re-runnability contract) must produce byte-for-byte the file the
// materialized graph produces in one bucket — same layout cut, same ref
// order, same canonical in-orientation — in both encodings, leaving no raw
// temp behind.
func TestStreamedMatchesInMemory(t *testing.T) {
	wg := testGraph(t, true)
	cases := []struct {
		name   string
		stream EdgeStream
		build  func() (*graph.Graph, error)
		bucket int64
	}{
		{"rmat", mustStream(graph.RMATStream(8, 8, graph.TwitterLike(), 42)),
			func() (*graph.Graph, error) { return graph.RMAT(8, 8, graph.TwitterLike(), 42) }, 1 << 12},
		{"uniform", mustStream(graph.UniformStream(300, 4000, 9)),
			func() (*graph.Graph, error) { return graph.Uniform(300, 4000, 9) }, 1 << 12},
		{"weighted", &edgeListStream{n: wg.NumNodes(), edges: wg.EdgeList(), weighted: true},
			func() (*graph.Graph, error) { return wg, nil }, 1 << 13},
	}
	for _, tc := range cases {
		for _, enc := range encodings {
			t.Run(tc.name+"/"+enc.name, func(t *testing.T) {
				dir := t.TempDir()
				g, err := tc.build()
				if err != nil {
					t.Fatal(err)
				}
				memPath := filepath.Join(dir, "mem")
				if err := enc.write(memPath, g, 3); err != nil {
					t.Fatal(err)
				}
				streamPath := filepath.Join(dir, "stream")
				opt := StreamOptions{Machines: 3, BucketBytes: tc.bucket, Compress: enc.name == "csr3"}
				if err := WriteStream(streamPath, tc.stream, opt); err != nil {
					t.Fatal(err)
				}
				a, err := os.ReadFile(memPath)
				if err != nil {
					t.Fatal(err)
				}
				b, err := os.ReadFile(streamPath)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a, b) {
					t.Fatalf("streamed file differs from in-memory file (%d vs %d bytes)", len(b), len(a))
				}
				ents, _ := os.ReadDir(dir)
				for _, e := range ents {
					if strings.HasPrefix(e.Name(), ".pgxd-raw-") {
						t.Fatalf("temp file %s left behind", e.Name())
					}
				}
			})
		}
	}
}

// TestCompressedSmaller asserts the headline ratio on an unweighted RMAT:
// even at tiny scale the compressed spelling must beat raw by >= 1.8x overall.
func TestCompressedSmaller(t *testing.T) {
	g, err := graph.RMAT(10, 8, graph.TwitterLike(), 7)
	if err != nil {
		t.Fatal(err)
	}
	raw, comp := writeOpen(t, g, 4, WriteGraph), writeOpen(t, g, 4, WriteGraphCompressed)
	ratio := float64(raw.FileBytes()) / float64(comp.FileBytes())
	if ratio < 1.8 {
		t.Fatalf("compression ratio %.2fx (raw %d, compressed %d), want >= 1.8x",
			ratio, raw.FileBytes(), comp.FileBytes())
	}
}

// sectionAt locates the parts of machine 0's out section in a file image, and
// its addr table, for the corruption rows to aim at.
type sectionAt struct {
	off, rows, index, refs         int64 // file offsets
	rowBytes, blockCount, refBytes int64
	addr, slots, numLocal, n       int64 // machine 0's addr table: offset, length; its nodes; the graph's
}

// tableField returns word i of machine mach's section table entry.
func tableField(d []byte, mach, i int) int64 {
	return int64(leU64(d[tableOffset(int(leU64(d[32:])))+int64(8*(secFieldCount*mach+i)):]))
}

func locate(d []byte) sectionAt {
	p := int(leU64(d[32:]))
	s := sectionAt{off: int64(leU64(d[tableOffset(p):]))}
	s.addr, s.slots = tableField(d, 0, addrField), tableField(d, 0, addrField+1)
	s.numLocal, s.n = int64(leU32(d[headerFixedBytes+4:])), int64(leU64(d[16:]))
	s.rowBytes, s.blockCount, s.refBytes = int64(leU64(d[s.off:])), int64(leU64(d[s.off+8:])), int64(leU64(d[s.off+16:]))
	s.rows = s.off + subHeaderBytes
	s.index = s.rows + pad8(s.rowBytes)
	s.refs = s.index
	if leU32(d[12:])&FlagCompressedEdges != 0 {
		s.refs += 16 * (s.blockCount + 1)
	}
	return s
}

// ringImage returns the file image of the directed n-ring for one machine.
func ringImage(t testing.TB, n int, write func(string, *graph.Graph, int) error) []byte {
	t.Helper()
	edges := make([]graph.Edge, n)
	for u := range edges {
		edges[u] = graph.Edge{Src: graph.NodeID(u), Dst: graph.NodeID((u + 1) % n)}
	}
	g, err := graph.FromEdges(n, edges, false)
	if err != nil {
		t.Fatal(err)
	}
	return fileImage(t, g, 1, write)
}

func fileImage(t testing.TB, g *graph.Graph, p int, write func(string, *graph.Graph, int) error) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.csr")
	if err := write(path, g, p); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// wrapLastRow makes a raw image's machine 0 claim 2^61 out edges in its last
// prefix sum: 8 * 2^61 wraps to 0, so a bounds check that multiplies before
// it compares sees a zero-length ref array and slices the mapping with a
// count no slice can have.
func wrapLastRow(d []byte) []byte {
	s := locate(d)
	putU64(d[s.rows+s.rowBytes-8:], 1<<61)
	return d
}

// hugeDegreeCrasher is the compressed 8-ring shrunk to three rows of degrees
// {1, 2^35, 1}: ~200 bytes whose second row asks for a 256 GiB decode buffer
// unless the degree is checked against the ref bytes that could back it.
func hugeDegreeCrasher(t testing.TB) []byte {
	d := ringImage(t, 8, WriteGraphCompressed)
	s := locate(d)
	deg := codec.AppendUvarint(codec.AppendUvarint(codec.AppendUvarint(nil, 1), 1<<35), 1)
	if int64(len(deg)) != s.rowBytes {
		t.Fatalf("crasher degrees take %d bytes, ring rows %d", len(deg), s.rowBytes)
	}
	copy(d[s.rows:], deg)
	putU64(d[16:], 3)                      // numNodes
	putU32(d[headerFixedBytes+4:], 3)      // starts[1]
	putU64(d[s.index+16*s.blockCount:], 3) // index sentinel firstRow
	return d
}

// addrCorruptions are the rules Open enforces on the replica numbering, each
// broken in a two-machine image of either encoding: a ref past the addr table
// (raw only: a compressed row's refs are varint gaps), an addr table out of
// order, one naming its own machine or an offset its owner lacks, one holding
// a slot no ref names, and a slot count the graph's node count cannot back.
func addrCorruptions(t testing.TB) []corruption {
	return []corruption{
		{"ref past the addr table", "csr2", mut(func(d []byte, s sectionAt) { putU64(d[s.refs:], uint64(s.numLocal+s.slots)) }), "out of range"},
		{"addr not ascending", "", mut(func(d []byte, s sectionAt) {
			first := leU64(d[s.addr:])
			putU64(d[s.addr:], leU64(d[s.addr+8:]))
			putU64(d[s.addr+8:], first)
		}), "not strictly ascending"},
		{"addr names its own machine", "", mut(func(d []byte, s sectionAt) { putU64(d[s.addr:], uint64(PackRef(0, 0))) }), "own offset"},
		{"addr offset out of range", "", mut(func(d []byte, s sectionAt) { putU64(d[s.addr:], uint64(PackRef(1, 1<<31))) }), "out of machine 1's range"},
		{"unreferenced slot", "", func(d []byte, _ sectionAt) []byte {
			return withUnreferencedSlot(t, pairsImage(t, leU32(d[12:])&FlagCompressedEdges != 0))
		}, "named by no ref"},
		{"addr table longer than the graph", "", mut(func(d []byte, s sectionAt) {
			putU64(d[tableOffset(2)+8*(addrField+1):], uint64(s.n-s.numLocal+1))
		}), "addr table of"},
	}
}

// corruption is one way to break a valid image, the encoding it applies to
// ("" for both) and the text Open's error must carry.
type corruption struct {
	name    string
	enc     string
	corrupt func(d []byte, s sectionAt) []byte
	wantSub string
}

func mut(fn func(d []byte, s sectionAt)) func([]byte, sectionAt) []byte {
	return func(d []byte, s sectionAt) []byte { fn(d, s); return d }
}

// pairsImage is the two-machine image of eight nodes in which node i < 3 and
// node i + 4 point at each other and nodes 3 and 7 at themselves: machine 1
// references machine 0's nodes but its last.
func pairsImage(t testing.TB, compressed bool) []byte {
	var edges []graph.Edge
	for i := graph.NodeID(0); i < 4; i++ {
		if i == 3 {
			edges = append(edges, graph.Edge{Src: i, Dst: i}, graph.Edge{Src: i + 4, Dst: i + 4})
			continue
		}
		edges = append(edges, graph.Edge{Src: i, Dst: i + 4}, graph.Edge{Src: i + 4, Dst: i})
	}
	g, err := graph.FromEdges(8, edges, false)
	if err != nil {
		t.Fatal(err)
	}
	write := WriteGraph
	if compressed {
		write = WriteGraphCompressed
	}
	return fileImage(t, g, 2, write)
}

// withUnreferencedSlot appends a slot to the last machine's addr table — the
// file's last array — past its last entry, where no ref names it.
func withUnreferencedSlot(t testing.TB, d []byte) []byte {
	p := int(leU64(d[32:]))
	slots := tableField(d, p-1, addrField+1)
	rm, off := UnpackRef(int64(leU64(d[len(d)-8:])))
	if slots == 0 || int64(off)+1 >= int64(leU32(d[headerFixedBytes+4*(rm+1):])-leU32(d[headerFixedBytes+4*rm:])) {
		t.Fatalf("machine %d's addr table ends at its owner's last node: no slot to add", p-1)
	}
	putU64(d[tableOffset(p)+int64(8*(secFieldCount*(p-1)+addrField+1)):], uint64(slots+1))
	return binary.LittleEndian.AppendUint64(d, uint64(PackRef(rm, off+1)))
}

func reopen(t *testing.T, path string, data []byte) error {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	sf, err := Open(path)
	if err == nil {
		sf.Close()
	}
	return err
}

// TestOpenRejectsCorruption mutates a valid file of each encoding: every
// torn, truncated, overlong, disagreeing, out-of-range or non-canonical input
// must come back from Open as an error naming the problem — never a panic,
// never an allocation sized by a number the file made up.
func TestOpenRejectsCorruption(t *testing.T) {
	const both, rawOnly, compOnly = "", "csr2", "csr3"
	type image = []byte
	cases := []corruption{
		{"empty", both, func(image, sectionAt) image { return nil }, "too short"},
		{"bad magic", both, mut(func(d image, _ sectionAt) { d[0] = 'X' }), "bad magic"},
		{"wrong version", both, mut(func(d image, _ sectionAt) { putU32(d[8:], 99) }), "version"},
		{"old raw container (v2)", both, mut(func(d image, _ sectionAt) { putU32(d[8:], 2) }), "regenerate"},
		{"old compressed container (v3)", both, mut(func(d image, _ sectionAt) { putU32(d[8:], 3) }), "regenerate"},
		{"unknown flags", both, mut(func(d image, _ sectionAt) { putU32(d[12:], 0xff00) }), "unknown flag"},
		{"encoding flag flipped", both, mut(func(d image, _ sectionAt) { putU32(d[12:], leU32(d[12:])^FlagCompressedEdges) }), "store:"},
		{"zero machines", both, mut(func(d image, _ sectionAt) { putU64(d[32:], 0) }), "machine count"},
		{"truncated header", both, func(d image, _ sectionAt) image { return d[:20] }, "too short"},
		{"truncated table", both, func(d image, _ sectionAt) image { return d[:headerFixedBytes+4] }, "truncated"},
		{"truncated body", both, func(d image, _ sectionAt) image { return d[:len(d)-16] }, "truncated"},
		{"trailing bytes", both, func(d image, _ sectionAt) image { return append(d, 0, 0, 0, 0, 0, 0, 0, 0) }, "trailing"},
		{"starts not covering", both, mut(func(d image, _ sectionAt) {
			putU32(d[headerFixedBytes+4*2:], 7) // starts[2] (=n for p=2) → bogus
		}), "cover"},
		{"section offset moved", both, mut(func(d image, s sectionAt) { putU64(d[tableOffset(2):], uint64(s.off+8)) }), "expected"},
		{"section length odd", both, mut(func(d image, _ sectionAt) {
			putU64(d[tableOffset(2)+8:], leU64(d[tableOffset(2)+8:])+4)
		}), "multiple of 8"},
		{"section length past the file", both, mut(func(d image, _ sectionAt) { putU64(d[tableOffset(2)+8:], 1<<62) }), "truncated"},
		{"weight offset in unweighted", both, mut(func(d image, _ sectionAt) {
			putU64(d[tableOffset(2)+16:], 64) // out weights slot must be 0
		}), "weight offset"},
		{"sub-header disagrees", both, mut(func(d image, s sectionAt) { putU64(d[s.off:], uint64(s.rowBytes+8)) }), "disagrees"},
		{"sub-header implausible", both, mut(func(d image, s sectionAt) { putU64(d[s.off+16:], 1<<62) }), "implausible"},

		{"rows not monotone", rawOnly, mut(func(d image, s sectionAt) {
			// rows[1] ← a huge value, breaking monotonicity against rows[2].
			putU64(d[s.rows+8:], 1<<40)
		}), "monotone"},
		{"rows[0] non-zero", rawOnly, mut(func(d image, s sectionAt) { putU64(d[s.rows:], 1) }), "rows[0]"},
		{"last row wraps the ref bound", rawOnly, func(d image, _ sectionAt) image { return wrapLastRow(d) }, "truncated"},
		{"local ref out of range", rawOnly, mut(func(d image, s sectionAt) {
			putU64(d[s.refs:], uint64(int64(1<<31))) // way past numLocal
		}), "out of range"},
		{"remote ref bad machine", rawOnly, mut(func(d image, s sectionAt) {
			putU64(d[s.refs:], uint64(PackRef(500, 0))) // a packed ref: no file holds one
		}), "out of range"},
		{"raw section with blocks", rawOnly, mut(func(d image, s sectionAt) { putU64(d[s.off+8:], 1) }), "raw sub-header"},

		{"torn degree varint", compOnly, mut(func(d image, s sectionAt) { d[s.rows] = 0x80 }), "store:"},
		{"degree beyond the ref bytes", compOnly, func(image, sectionAt) image { return hugeDegreeCrasher(t) }, "ref bytes left"},
		{"torn compressed row", compOnly, mut(func(d image, s sectionAt) { d[s.refs+s.refBytes-1] |= 0x80 }), "store:"},
		{"bad sentinel row", compOnly, mut(func(d image, s sectionAt) {
			at := d[s.index+16*s.blockCount:]
			putU64(at, leU64(at)+1)
		}), "sentinel"},
		{"first block not zero", compOnly, mut(func(d image, s sectionAt) { putU64(d[s.index+8:], 1) }), "store:"},
		{"non-zero padding", compOnly, mut(func(d image, s sectionAt) { d[s.refs+s.refBytes] = 1 }), "padding"},
	}
	cases = append(cases, addrCorruptions(t)...)
	for _, enc := range encodings {
		orig := fileImage(t, testGraph(t, false), 2, enc.write)
		at := locate(orig)
		path := filepath.Join(t.TempDir(), "g.csr")
		for _, tc := range cases {
			if tc.enc != both && tc.enc != enc.name {
				continue
			}
			if tc.name == "non-zero padding" && pad8(at.refBytes) == at.refBytes {
				continue // this image happens to need no padding
			}
			t.Run(enc.name+"/"+tc.name, func(t *testing.T) {
				err := reopen(t, path, tc.corrupt(append(image(nil), orig...), at))
				if err == nil {
					t.Fatal("Open accepted a corrupt file")
				}
				if !strings.Contains(err.Error(), tc.wantSub) {
					t.Fatalf("error %q does not mention %q", err, tc.wantSub)
				}
			})
		}
		// The original must still open after all that mutation.
		if err := reopen(t, path, orig); err != nil {
			t.Fatalf("%s: valid file rejected: %v", enc.name, err)
		}
	}
}

// TestClaimWindow drives both encodings' claims through a tiny residency
// window: claims must stay readable under eviction churn, the window must
// account what it advised, and a load without a budget has no window.
func TestClaimWindow(t *testing.T) {
	g := testGraph(t, true)
	for _, enc := range encodings {
		t.Run(enc.name, func(t *testing.T) {
			sf := writeOpen(t, g, 2, enc.write)
			if ld, err := sf.NewLoad(0, 0); err != nil {
				t.Fatal(err)
			} else if ld.Windowed() {
				t.Fatal("a load without a resident budget has a window")
			}
			ld, err := sf.NewLoad(8<<10, 0) // tiny: forces eviction churn
			if err != nil {
				t.Fatal(err)
			}
			if ld.Windowed() != mmapBacked {
				t.Fatalf("Windowed() = %v on a platform with mmapBacked = %v", ld.Windowed(), mmapBacked)
			}
			for mach := 0; mach < 2; mach++ {
				sec := ld.File().Section(mach)
				rd := newRowReader(ld, mach, OrientOut)
				for u := int64(0); u+64 < int64(len(sec.OutRows)); u += 64 {
					ld.Claim(mach, OrientOut, u, u+64)
					for r := u; r < u+64; r++ {
						for i, ref := range rd.row(t, r) {
							if v := globalOf(sf, mach, ref); int(v) >= g.NumNodes() {
								t.Fatalf("machine %d row %d edge %d: claimed ref decodes to node %d", mach, r, i, v)
							}
						}
					}
					rd.release()
				}
			}
			st := ld.Stats()
			if mmapBacked && (st.Residency.TouchedBytes == 0 || st.Residency.EvictedBytes == 0) {
				t.Fatalf("an 8 KiB window saw no churn: %+v", st.Residency)
			}
			if st.Decode.PinnedBlocks != 0 {
				t.Fatalf("%d blocks pinned after release", st.Decode.PinnedBlocks)
			}
		})
	}
}

// pageSpan returns the bytes a touch of n bytes at p advises: the whole pages
// the range overlaps.
func pageSpan(p unsafe.Pointer, n int64) int64 {
	if n == 0 {
		return 0
	}
	ps := int64(os.Getpagesize())
	lo, hi := int64(uintptr(p)), int64(uintptr(p))+n
	return (hi+ps-1)&^(ps-1) - lo&^(ps-1)
}

// TestSparseClaimTouchesOnlyMembers: claiming a sparse member list brings in
// what the members' rows occupy, not the span from the first member to the
// last. On a raw file the bytes advised are bounded by the members' own
// page-rounded rows, refs and weights; on a compressed one, reading the
// members through a cursor decodes no block that holds none of them.
func TestSparseClaimTouchesOnlyMembers(t *testing.T) {
	if !mmapBacked {
		t.Skip("no residency window without mmap")
	}
	g, err := graph.RMAT(14, 16, graph.TwitterLike(), 3)
	if err != nil {
		t.Fatal(err)
	}
	g = g.WithUniformWeights(0.5, 2, 7)
	raw, comp := writeOpen(t, g, 2, WriteGraph), writeOpen(t, g, 2, WriteGraphCompressed)
	// Up to thirty-two rows spread through the section's first block and as
	// many through its last: few bytes, and a span that is the whole section.
	o, co := &raw.secs[0][OrientOut], &comp.secs[0][OrientOut]
	var members []uint32
	for _, b := range []int{0, len(co.firstRow) - 2} {
		lo, hi := co.firstRow[b], co.firstRow[b+1]
		for i := int64(0); i < 32; i++ {
			members = append(members, uint32(lo+i*(hi-lo)/32))
		}
	}
	members = slices.Compact(members)

	var bound int64
	for _, u := range members {
		s, e := o.rows[u], o.rows[u+1]
		bound += pageSpan(unsafe.Pointer(&o.rows[u]), 16) +
			pageSpan(unsafe.Pointer(&o.refs[s]), 8*(e-s)) + pageSpan(unsafe.Pointer(&o.weights[s]), 8*(e-s))
	}
	first, last := members[0], members[len(members)-1]
	span := 2 * pageSpan(unsafe.Pointer(&o.refs[o.rows[first]]), 8*(o.rows[last+1]-o.rows[first]))
	if span < 2*bound {
		t.Fatalf("the members' span (%d bytes) is not far above their rows (%d): the test shows nothing", span, bound)
	}
	ld, err := raw.NewLoad(256<<10, 0)
	if err != nil {
		t.Fatal(err)
	}
	ld.ClaimMembers(0, OrientOut, members)
	if got := ld.Stats().Residency.TouchedBytes; got == 0 || got > bound {
		t.Fatalf("claiming %d members advised %d bytes, their page-rounded rows are %d (their span: %d)", len(members), got, bound, span)
	}

	ld, err = comp.NewLoad(256<<10, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	var blocks int64
	for b, next := 0, 0; b+1 < len(co.firstRow); b++ {
		for next < len(members) && int64(members[next]) < co.firstRow[b+1] {
			if next++; next == len(members) || int64(members[next]) >= co.firstRow[b+1] {
				blocks += 8 * co.blockEdges(b)
			}
		}
	}
	ld.ClaimMembers(0, OrientOut, members)
	cur := ld.Cursor(0, OrientOut)
	for _, u := range members {
		row, err := cur.Row(int64(u))
		if err != nil {
			t.Fatal(err)
		}
		if want := o.refs[o.rows[u]:o.rows[u+1]]; !slices.Equal(row, want) {
			t.Fatalf("member %d: row %v, want %v", u, row, want)
		}
	}
	cur.Release()
	st := ld.Stats()
	if st.Decode.DecodedBytes == 0 || st.Decode.DecodedBytes > blocks {
		t.Fatalf("reading %d members decoded %d bytes, the blocks that hold one total %d", len(members), st.Decode.DecodedBytes, blocks)
	}
	if all := 8 * co.rows[len(co.rows)-1]; 2*blocks > all {
		t.Fatalf("the blocks holding a member (%d bytes) are most of the section (%d): the test shows nothing", blocks, all)
	}
}
