package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// This file implements the two on-disk formats the paper's Table 4 loading
// experiment distinguishes: a text edge list ("GraphX and GraphLab load from
// a text file") and a binary format ("PGX loads from a binary file format").
// Table 4's loading-time comparison is reproduced by loading the same graph
// from both formats.

// ReadFile reads the graph file at path: the binary format when the name
// ends in .bin, a text edge list otherwise.
func ReadFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".bin") {
		return ReadBinary(f)
	}
	return ReadEdgeList(f)
}

// WriteEdgeList writes g as a whitespace-separated text edge list, one
// "src dst [weight]" line per edge.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	weighted := g.Weighted()
	for u := 0; u < g.NumNodes(); u++ {
		nbrs := g.Out.Neighbors(NodeID(u))
		ws := g.Out.EdgeWeights(NodeID(u))
		for i, v := range nbrs {
			var err error
			if weighted {
				_, err = fmt.Fprintf(bw, "%d %d %g\n", u, v, ws[i])
			} else {
				_, err = fmt.Fprintf(bw, "%d %d\n", u, v)
			}
			if err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses a text edge list. Lines starting with '#' or '%' are
// comments. The node count is one past the largest node id seen. Lines with
// a third field produce a weighted graph; mixing weighted and unweighted
// lines is an error.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []Edge
	weighted := false
	maxID := NodeID(0)
	seen := false
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 && len(fields) != 3 {
			return nil, fmt.Errorf("graph: line %d: want 2 or 3 fields, got %d", lineNo, len(fields))
		}
		src, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad src: %v", lineNo, err)
		}
		dst, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad dst: %v", lineNo, err)
		}
		e := Edge{Src: NodeID(src), Dst: NodeID(dst)}
		hasW := len(fields) == 3
		if seen && hasW != weighted {
			return nil, fmt.Errorf("graph: line %d: mixed weighted and unweighted edges", lineNo)
		}
		if hasW {
			w, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad weight: %v", lineNo, err)
			}
			e.Weight = w
			weighted = true
		}
		seen = true
		edges = append(edges, e)
		if e.Src > maxID {
			maxID = e.Src
		}
		if e.Dst > maxID {
			maxID = e.Dst
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !seen {
		return nil, ErrEmptyGraph
	}
	return FromEdges(int(maxID)+1, edges, weighted)
}

// Binary format:
//
//	magic   [8]byte  "PGXDGRA1"
//	n       uint64   node count
//	m       uint64   edge count
//	flags   uint64   bit 0: weighted
//	rows    [n+1]int64          out-CSR row offsets
//	cols    [m]uint32           out-CSR neighbor ids
//	weights [m]float64          only when weighted
//
// Only the out orientation is stored; the transpose is rebuilt at load time,
// which is how the real system constructs its reverse CSR during loading.

const binaryMagic = "PGXDGRA1"

// WriteBinary writes g in the PGX.D reproduction's binary format.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	var flags uint64
	if g.Weighted() {
		flags |= 1
	}
	hdr := []uint64{uint64(g.NumNodes()), uint64(g.NumEdges()), flags}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, g.Out.Rows); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.Out.Cols); err != nil {
		return err
	}
	if g.Weighted() {
		if err := binary.Write(bw, binary.LittleEndian, g.Out.Weights); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary reads a graph in the binary format written by WriteBinary and
// rebuilds the in-edge orientation.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("graph: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %q", magic)
	}
	var n, m, flags uint64
	for _, p := range []*uint64{&n, &m, &flags} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, err
		}
	}
	const maxNodes = 1 << 31
	if n == 0 {
		return nil, ErrEmptyGraph
	}
	if n > maxNodes {
		return nil, fmt.Errorf("graph: node count %d exceeds limit", n)
	}
	weighted := flags&1 != 0
	g := &Graph{}
	g.Out.N = int(n)
	g.Out.Rows = make([]int64, n+1)
	if err := binary.Read(br, binary.LittleEndian, g.Out.Rows); err != nil {
		return nil, err
	}
	g.Out.Cols = make([]NodeID, m)
	if err := binary.Read(br, binary.LittleEndian, g.Out.Cols); err != nil {
		return nil, err
	}
	if weighted {
		g.Out.Weights = make([]float64, m)
		if err := binary.Read(br, binary.LittleEndian, g.Out.Weights); err != nil {
			return nil, err
		}
	}
	if err := validateCSR(&g.Out, "out"); err != nil {
		return nil, err
	}
	transposeInto(&g.In, &g.Out)
	return g, nil
}

// transposeInto builds dst as the transpose of src.
func transposeInto(dst, src *CSR) {
	n := src.N
	m := src.NumEdges()
	dst.N = n
	dst.Rows = make([]int64, n+1)
	dst.Cols = make([]NodeID, m)
	if src.Weights != nil {
		dst.Weights = make([]float64, m)
	}
	for _, v := range src.Cols {
		dst.Rows[v+1]++
	}
	for u := 0; u < n; u++ {
		dst.Rows[u+1] += dst.Rows[u]
	}
	cursor := make([]int64, n)
	copy(cursor, dst.Rows[:n])
	for u := 0; u < n; u++ {
		for i := src.Rows[u]; i < src.Rows[u+1]; i++ {
			v := src.Cols[i]
			pos := cursor[v]
			cursor[v]++
			dst.Cols[pos] = NodeID(u)
			if src.Weights != nil {
				dst.Weights[pos] = src.Weights[i]
			}
		}
	}
}
