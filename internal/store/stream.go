package store

import (
	"fmt"
	"math"
	"os"

	"repro/internal/partition"
)

// EdgeStream is a re-runnable source of directed edges. Sweep must emit the
// same edges in the same order on every call — the streaming writer sweeps
// the stream several times (degree counting, then once per scatter bucket)
// and bucket contents interleave only correctly when the order is stable.
// Deterministic generators (fixed-shard RMAT/uniform) satisfy this for free.
type EdgeStream interface {
	// NumNodes is the node count; every emitted endpoint must be < NumNodes.
	NumNodes() int
	// Weighted reports whether Sweep emits meaningful weights.
	Weighted() bool
	// Sweep calls emit for every directed edge, in a stable order.
	Sweep(emit func(u, v uint32, w float64))
}

// StreamOptions configures WriteStream.
type StreamOptions struct {
	// Machines is the partition count P baked into the file. Must match the
	// cluster that will load it. Default 1.
	Machines int
	// BucketBytes bounds the writer's dirty working set per scatter bucket.
	// Smaller buckets mean more stream sweeps but a lower peak RSS. Default
	// 64 MiB.
	BucketBytes int64
	// Compress emits the compressed section spelling: the raw file streams to
	// a temp next to path, CompressFile re-encodes it in one sequential
	// O(nodes + block) pass — varint blocks cannot be scattered into — and
	// the temp is removed. Peak memory stays O(nodes + bucket).
	Compress bool
}

// WriteStream is the one writer of store files: it emits a file from an edge
// stream without ever materializing the graph — O(N) memory for degree
// prefixes plus one scatter bucket, never O(M). Four logical passes:
//
//  1. one sweep counts out/in degrees, fixing the edge-balanced layout
//     (partition.EdgeBalancedStarts, the cut partition.Compute makes, so the
//     file matches an in-memory load) and with it every section offset and
//     row array;
//  2. out-refs scatter in node-range buckets sized to BucketBytes — one
//     sweep per bucket, writing refs through a shared RW mapping and
//     advising each completed bucket's pages away;
//  3. in-refs derive from the already-written out sections, read in global
//     source order — exactly the canonical transpose order the in-memory
//     graph builder uses — so a file is bit-compatible with an in-memory
//     load of the same edges;
//  4. per machine, one pass over both orientations' packed refs numbers the
//     remote nodes they name, rewrites the refs to that replica numbering in
//     place and appends the machine's addr table (resolve).
func WriteStream(path string, es EdgeStream, opt StreamOptions) error {
	if !opt.Compress {
		return writeRaw(path, es, opt, true)
	}
	tmp, err := rawTemp(path)
	if err != nil {
		return err
	}
	defer os.Remove(tmp) //nolint:errcheck
	// The temp is read back and removed before this returns: it needs no
	// flush to disk.
	if err := writeRaw(tmp, es, opt, false); err != nil {
		return err
	}
	return CompressFile(path, tmp)
}

// writeRaw runs the three passes, emitting the raw spelling; durable syncs
// the file to disk before returning.
func writeRaw(path string, es EdgeStream, opt StreamOptions, durable bool) error {
	n := es.NumNodes()
	if n <= 0 {
		return fmt.Errorf("store: stream has no nodes")
	}
	if n > 1<<32 {
		return fmt.Errorf("store: stream node count %d exceeds the 32-bit id space", n)
	}
	p := opt.Machines
	if p == 0 {
		p = 1
	}
	if p < 1 || p > maxMachines {
		return fmt.Errorf("store: machine count %d out of range [1, %d]", p, maxMachines)
	}
	sw := &streamWriter{n: n, weighted: es.Weighted(), bucketBytes: opt.BucketBytes}
	if sw.bucketBytes <= 0 {
		sw.bucketBytes = 64 << 20
	}

	// Pass 1: degrees. int32 per node bounds writer memory at 8 bytes/node
	// here plus 16 bytes/node of prefixes below.
	outDeg := make([]int32, n)
	inDeg := make([]int32, n)
	var m int64
	var streamErr error
	es.Sweep(func(u, v uint32, _ float64) {
		if int(u) >= n || int(v) >= n {
			if streamErr == nil {
				streamErr = fmt.Errorf("store: stream edge (%d, %d) out of range [0, %d)", u, v, n)
			}
			return
		}
		outDeg[u]++
		inDeg[v]++
		m++
	})
	if streamErr != nil {
		return streamErr
	}
	starts := partition.EdgeBalancedStarts(n, p, func(u int) int64 { return int64(outDeg[u]) + int64(inDeg[u]) })
	sw.layout = partition.Layout{NumMachines: p, Starts: starts}
	sw.prefix = [2][]int64{prefixFromDeg(outDeg), prefixFromDeg(inDeg)}
	outDeg, inDeg = nil, nil

	// Section sizes follow from the layout and the degree prefixes, so every
	// offset is fixed before a byte is written and refs scatter straight to
	// their final position.
	total := sw.place()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Truncate(total); err != nil {
		return err
	}
	data, closeMap, err := mapRW(f, total)
	if err != nil {
		return fmt.Errorf("store: mmap %s for writing: %w", path, err)
	}
	mapDone := false
	defer func() {
		if !mapDone {
			closeMap() //nolint:errcheck
		}
	}()
	sw.data = data
	if total <= sw.bucketBytes {
		// The whole file fits the dirty working set the caller allowed, so
		// fault it in with one call instead of one trap per scattered page.
		advise(data, advPopulateWrite)
	}

	hdr := header{numNodes: uint64(n), numEdges: uint64(m), p: p}
	if sw.weighted {
		hdr.flags = FlagWeighted
	}
	copy(data, renderHeader(hdr, starts, sw.table))
	sw.writeRows()
	if err := sw.scatterOut(es); err != nil {
		return err
	}
	sw.scatterIn()
	if err := sw.resolve(f, total); err != nil {
		return err
	}
	copy(data, renderHeader(hdr, starts, sw.table)) // now with the addr tables placed
	advise(data, advDontNeed)
	mapDone = true
	if err := closeMap(); err != nil || !durable {
		return err
	}
	return f.Sync()
}

func prefixFromDeg(deg []int32) []int64 {
	prefix := make([]int64, len(deg)+1)
	for u, d := range deg {
		prefix[u+1] = prefix[u] + int64(d)
	}
	return prefix
}

// streamWriter holds the raw file's placement and the scatter state shared
// by the out and in passes.
type streamWriter struct {
	n           int
	weighted    bool
	bucketBytes int64
	layout      partition.Layout
	prefix      [2][]int64 // global degree prefix sums, per orientation
	table       [][secFieldCount]int64
	data        []byte
}

// edges returns machine mach's edge count in orient.
func (sw *streamWriter) edges(mach, orient int) int64 {
	lo, hi := sw.layout.Range(mach)
	return sw.prefix[orient][hi] - sw.prefix[orient][lo]
}

// place fills the section table for the raw spelling and returns the file
// size.
func (sw *streamWriter) place() int64 {
	p := sw.layout.NumMachines
	sw.table = make([][secFieldCount]int64, p)
	at := dataOffset(p)
	for mach := 0; mach < p; mach++ {
		for orient := 0; orient < 2; orient++ {
			m := sw.edges(mach, orient)
			secLen := subHeaderBytes + 8*int64(sw.layout.NumLocal(mach)+1) + 8*m
			sw.table[mach][3*orient], sw.table[mach][3*orient+1] = at, secLen
			at += secLen
			if sw.weighted {
				sw.table[mach][3*orient+2] = at
				at += 8 * m
			}
		}
	}
	return at
}

// refsOff and weightsOff locate machine mach's ref and weight arrays.
func (sw *streamWriter) refsOff(mach, orient int) int64 {
	return sw.table[mach][3*orient] + subHeaderBytes + 8*int64(sw.layout.NumLocal(mach)+1)
}

func (sw *streamWriter) weightsOff(mach, orient int) int64 { return sw.table[mach][3*orient+2] }

// writeRows writes every section's sub-header and its row array — rebased
// prefix sums — straight into the mapping.
func (sw *streamWriter) writeRows() {
	for mach := range sw.table {
		lo, hi := int64(sw.layout.Starts[mach]), int64(sw.layout.Starts[mach+1])
		for orient, prefix := range sw.prefix {
			sec := sw.data[sw.table[mach][3*orient]:]
			putU64(sec, uint64(8*(hi-lo+1)))
			putU64(sec[16:], uint64(8*sw.edges(mach, orient)))
			for u := lo; u <= hi; u++ {
				putU64(sec[subHeaderBytes+8*(u-lo):], uint64(prefix[u]-prefix[lo]))
			}
		}
	}
}

// buckets cuts [0, n) into node ranges whose scatter bytes (8 per edge, 16
// weighted) stay under the budget, always at least one node per bucket.
func (sw *streamWriter) buckets(prefix []int64) [][2]int {
	per := int64(8)
	if sw.weighted {
		per = 16
	}
	var out [][2]int
	lo := 0
	for lo < sw.n {
		hi := lo + 1
		for hi < sw.n && (prefix[hi+1]-prefix[lo])*per <= sw.bucketBytes {
			hi++
		}
		out = append(out, [2]int{lo, hi})
		lo = hi
	}
	return out
}

// cursors returns, for every node of bucket [bLo, bHi), the word index (into
// the mapping viewed as int64s) of its next unwritten orient ref: one array
// to bump per edge, already resolved through the node's owner and row.
func (sw *streamWriter) cursors(orient, bLo, bHi int) []int64 {
	cur := make([]int64, bHi-bLo)
	prefix := sw.prefix[orient]
	for mach := range sw.table {
		lo, hi := int(sw.layout.Starts[mach]), int(sw.layout.Starts[mach+1])
		base := sw.refsOff(mach, orient)/8 - prefix[lo]
		for v := max(bLo, lo); v < min(bHi, hi); v++ {
			cur[v-bLo] = base + prefix[v]
		}
	}
	return cur
}

// weightGaps returns, per machine, the distance in words from an orient ref
// to its weight (0 when unweighted: refs and weights never overlap).
func (sw *streamWriter) weightGaps(orient int) []int64 {
	gaps := make([]int64, len(sw.table))
	if sw.weighted {
		for mach := range gaps {
			gaps[mach] = (sw.weightsOff(mach, orient) - sw.refsOff(mach, orient)) / 8
		}
	}
	return gaps
}

// scatterOut fills every machine's out refs (and weights) with one stream
// sweep per bucket.
func (sw *streamWriter) scatterOut(es EdgeStream) error {
	var streamErr error
	words, gaps := i64View(sw.data), sw.weightGaps(OrientOut)
	for _, b := range sw.buckets(sw.prefix[OrientOut]) {
		bLo, bHi := b[0], b[1]
		cur := sw.cursors(OrientOut, bLo, bHi)
		// Streams tend to emit a source's edges together: remember its owner.
		mach := 0
		lo, hi := sw.layout.Range(mach)
		es.Sweep(func(u, v uint32, w float64) {
			if int(u) >= sw.n || int(v) >= sw.n {
				if streamErr == nil {
					streamErr = fmt.Errorf("store: stream emitted edge (%d, %d) out of range on a later sweep", u, v)
				}
				return
			}
			if int(u) < bLo || int(u) >= bHi {
				return
			}
			if u < lo || u >= hi {
				mach = sw.layout.Owner(u)
				lo, hi = sw.layout.Range(mach)
			}
			at := cur[int(u)-bLo]
			cur[int(u)-bLo] = at + 1
			words[at] = refOf(sw.layout, mach, v)
			if sw.weighted {
				words[at+gaps[mach]] = int64(math.Float64bits(w))
			}
		})
		if streamErr != nil {
			return streamErr
		}
		sw.releaseNodeRange(bLo, bHi, OrientOut)
	}
	return nil
}

// scatterIn derives the in-orientation from the out sections already on
// disk: scanning machines in order visits sources in ascending global id,
// reproducing the in-memory builder's canonical transpose order exactly.
func (sw *streamWriter) scatterIn() {
	outPrefix := sw.prefix[OrientOut]
	words, gaps := i64View(sw.data), sw.weightGaps(OrientIn)
	for _, b := range sw.buckets(sw.prefix[OrientIn]) {
		bLo, bHi := b[0], b[1]
		cur := sw.cursors(OrientIn, bLo, bHi)
		for mach := range sw.table {
			lo, hi := sw.layout.Range(mach)
			refsOff, wOff := sw.refsOff(mach, OrientOut), sw.weightsOff(mach, OrientOut)
			outRefs := words[refsOff/8:][:sw.edges(mach, OrientOut)]
			for u := lo; u < hi; u++ {
				for k := outPrefix[u] - outPrefix[lo]; k < outPrefix[u+1]-outPrefix[lo]; k++ {
					v, vm := nodeOf(sw.layout, mach, outRefs[k])
					if int(v) < bLo || int(v) >= bHi {
						continue
					}
					at := cur[int(v)-bLo]
					cur[int(v)-bLo] = at + 1
					words[at] = refIn(sw.layout, vm, mach, u)
					if sw.weighted {
						words[at+gaps[vm]] = words[wOff/8+k]
					}
				}
			}
			// Drop the out pages this machine scan faulted back in; they stay
			// in the page cache for the next bucket's scan.
			adviseRange(sw.data, refsOff, 8*int64(len(outRefs)), advDontNeed)
			if sw.weighted {
				adviseRange(sw.data, wOff, 8*int64(len(outRefs)), advDontNeed)
			}
		}
		sw.releaseNodeRange(bLo, bHi, OrientIn)
	}
}

// resolve rewrites every machine's refs, both orientations, from the packed
// spelling the scatter passes write to the replica numbering, in place in the
// mapping, and writes the machine's addr table through f at end, past
// everything before it. Per machine, one scan marks the global ids its refs
// name outside its range, and the numbering (section.go) ranks them and
// rewrites the refs: O(n) memory, one bitmap and rank shared by every machine,
// and no stream sweep.
func (sw *streamWriter) resolve(f *os.File, end int64) error {
	words := i64View(sw.data)
	nb := newNumbering(sw.layout, 0, nil)
	for mach := range sw.table {
		nb.me = mach
		clear(nb.bits)
		var refs [2][]int64
		for orient := range refs {
			refs[orient] = words[sw.refsOff(mach, orient)/8:][:sw.edges(mach, orient)]
			if n := 8 * int64(len(refs[orient])); n <= sw.bucketBytes {
				// The scan and the rewrite touch every page: fault them in writable at once.
				adviseRange(sw.data, sw.refsOff(mach, orient), n, advPopulateWrite)
			}
			for _, ref := range refs[orient] {
				if ref < 0 {
					v, _ := nodeOf(sw.layout, mach, ref)
					nb.mark(v)
				}
			}
		}
		addr, _, _ := nb.number(refs, func(orient int) {
			adviseRange(sw.data, sw.refsOff(mach, orient), 8*int64(len(refs[orient])), advDontNeed)
		})
		if _, err := f.WriteAt(wordBytes(addr), end); err != nil {
			return err
		}
		sw.table[mach][addrField], sw.table[mach][addrField+1] = end, int64(len(addr))
		end += 8 * int64(len(addr))
	}
	return nil
}

// releaseNodeRange advises away the orient ref (and weight) pages that global
// node range [bLo, bHi) occupies, per overlapped machine section.
func (sw *streamWriter) releaseNodeRange(bLo, bHi, orient int) {
	prefix := sw.prefix[orient]
	for mach := range sw.table {
		lo, hi := int(sw.layout.Starts[mach]), int(sw.layout.Starts[mach+1])
		aLo, aHi := max(bLo, lo), min(bHi, hi)
		if aLo >= aHi {
			continue
		}
		base := prefix[lo]
		start, end := prefix[aLo]-base, prefix[aHi]-base
		if end <= start {
			continue
		}
		adviseRange(sw.data, sw.refsOff(mach, orient)+8*start, 8*(end-start), advDontNeed)
		if sw.weighted {
			adviseRange(sw.data, sw.weightsOff(mach, orient)+8*start, 8*(end-start), advDontNeed)
		}
	}
}

// adviseRange page-aligns [off, off+length) within data and applies advice.
func adviseRange(data []byte, off, length int64, advice int) {
	if length <= 0 || len(data) == 0 {
		return
	}
	ps := int64(os.Getpagesize())
	aOff := off &^ (ps - 1)
	aEnd := (off + length + ps - 1) &^ (ps - 1)
	if aEnd > int64(len(data)) {
		aEnd = int64(len(data))
	}
	if aEnd > aOff {
		advise(data[aOff:aEnd], advice)
	}
}
