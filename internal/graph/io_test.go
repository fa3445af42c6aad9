package graph

import (
	"bytes"
	"strings"
	"testing"
)

func TestEdgeListTextRoundTrip(t *testing.T) {
	g, err := RMAT(8, 4, TwitterLike(), 21)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Node count may shrink if the top ids are isolated; edges must match.
	if back.NumEdges() != g.NumEdges() {
		t.Fatalf("edges = %d, want %d", back.NumEdges(), g.NumEdges())
	}
	a, b := g.EdgeList(), back.EdgeList()
	sortEdges(a)
	sortEdges(b)
	for i := range a {
		if a[i].Src != b[i].Src || a[i].Dst != b[i].Dst {
			t.Fatalf("edge %d mismatch: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestEdgeListWeightedRoundTrip(t *testing.T) {
	g, err := Uniform(50, 300, 4)
	if err != nil {
		t.Fatal(err)
	}
	g = g.WithUniformWeights(0.5, 2, 4)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Weighted() {
		t.Fatal("weights lost in round trip")
	}
	a, b := g.EdgeList(), back.EdgeList()
	sortEdges(a)
	sortEdges(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("edge %d mismatch: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestReadEdgeListComments(t *testing.T) {
	in := "# comment\n% another\n0 1\n\n1 2\n2 0\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Errorf("got %d/%d, want 3/3", g.NumNodes(), g.NumEdges())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := map[string]string{
		"too many fields": "0 1 2 3\n",
		"bad src":         "x 1\n",
		"bad dst":         "1 y\n",
		"bad weight":      "0 1 zz\n",
		"mixed weights":   "0 1\n1 2 3.5\n",
		"empty":           "# nothing\n",
	}
	for name, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		g, err := RMAT(9, 6, WebLike(), 33)
		if err != nil {
			t.Fatal(err)
		}
		if weighted {
			g = g.WithUniformWeights(1, 5, 33)
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatal(err)
		}
		back, err := ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := back.Validate(); err != nil {
			t.Fatal(err)
		}
		if back.NumNodes() != g.NumNodes() || back.NumEdges() != g.NumEdges() {
			t.Fatalf("size mismatch: %d/%d vs %d/%d", back.NumNodes(), back.NumEdges(), g.NumNodes(), g.NumEdges())
		}
		// Binary preserves exact CSR layout including edge order.
		for i := range g.Out.Cols {
			if g.Out.Cols[i] != back.Out.Cols[i] {
				t.Fatalf("weighted=%v: col %d mismatch", weighted, i)
			}
		}
		if weighted {
			for i := range g.Out.Weights {
				if g.Out.Weights[i] != back.Out.Weights[i] {
					t.Fatalf("weight %d mismatch", i)
				}
			}
		}
		// The rebuilt transpose must equal the original's.
		for i := range g.In.Cols {
			if g.In.Cols[i] != back.In.Cols[i] {
				t.Fatalf("weighted=%v: transposed col %d mismatch", weighted, i)
			}
		}
	}
}

func TestBinaryRejectsBadInput(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("notmagicxxxxxxxxxxxxxxxx")); err == nil {
		t.Error("accepted bad magic")
	}
	if _, err := ReadBinary(strings.NewReader("")); err == nil {
		t.Error("accepted empty input")
	}
	// Truncated after header.
	g, _ := Uniform(10, 20, 1)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:40]
	if _, err := ReadBinary(bytes.NewReader(trunc)); err == nil {
		t.Error("accepted truncated input")
	}
}

func TestDegreeStatsString(t *testing.T) {
	g, err := Uniform(100, 500, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := ComputeDegreeStats(g)
	if s.Nodes != 100 || s.Edges != 500 {
		t.Errorf("stats size: %+v", s)
	}
	if s.MeanDegree != 5 {
		t.Errorf("MeanDegree = %g, want 5", s.MeanDegree)
	}
	if str := s.String(); !strings.Contains(str, "N=100") {
		t.Errorf("String() = %q", str)
	}
}
