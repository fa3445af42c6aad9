package bench

import (
	"strings"
	"testing"
	"time"
)

// smallScale keeps harness smoke tests fast.
const smallScale = 9

func TestDatasetsGenerateAndCache(t *testing.T) {
	ds := NewDatasets()
	for _, name := range []string{DSTwitter, DSWeb, DSLive, DSWiki, DSUniform} {
		g, err := ds.Get(name, smallScale)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.NumNodes() == 0 || g.NumEdges() == 0 {
			t.Fatalf("%s: empty graph", name)
		}
		again, err := ds.Get(name, smallScale)
		if err != nil || again != g {
			t.Fatalf("%s: cache miss on second Get", name)
		}
	}
	if _, err := ds.Get("NOPE", smallScale); err == nil {
		t.Error("unknown dataset accepted")
	}
	wg, err := ds.Weighted(DSTwitter, smallScale)
	if err != nil {
		t.Fatal(err)
	}
	if !wg.Weighted() {
		t.Error("Weighted returned unweighted graph")
	}
}

func TestRunCellAllCombinations(t *testing.T) {
	ds := NewDatasets()
	g, err := ds.Get(DSTwitter, smallScale)
	if err != nil {
		t.Fatal(err)
	}
	wgr, err := ds.Weighted(DSTwitter, smallScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []System{SysSA, SysGX, SysGL, SysPGX} {
		for _, algo := range AllAlgos {
			if !sys.Supports(algo) {
				if _, err := RunCell(sys, algo, g, DefaultCellConfig(2)); err == nil {
					t.Errorf("%s/%s: unsupported combination accepted", sys, algo)
				}
				continue
			}
			cfg := DefaultCellConfig(2)
			cfg.PRIters = 2
			cfg.MaxK = 3
			gr := g
			if algo == AlgoSSSP {
				gr = wgr
			}
			cfg.Source = PickSource(gr)
			res, err := RunCell(sys, algo, gr, cfg)
			if err != nil {
				t.Errorf("%s/%s: %v", sys, algo, err)
				continue
			}
			if res.Seconds <= 0 {
				t.Errorf("%s/%s: non-positive time", sys, algo)
			}
		}
	}
}

func TestPickSource(t *testing.T) {
	ds := NewDatasets()
	g, err := ds.Get(DSTwitter, smallScale)
	if err != nil {
		t.Fatal(err)
	}
	src := PickSource(g)
	for u := 0; u < g.NumNodes(); u++ {
		if g.OutDegree(uint32(u)) > g.OutDegree(src) {
			t.Fatalf("node %d has higher out-degree than picked source %d", u, src)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{Title: "T", Header: []string{"a", "bb"}, Notes: []string{"n1"}}
	tbl.AddRow("1", "2")
	tbl.AddRow("333", "4")
	out := tbl.String()
	for _, want := range []string{"=== T ===", "a", "bb", "333", "note: n1"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFormatters(t *testing.T) {
	cases := map[float64]string{
		0:      "0",
		5e-7:   "1µs",
		0.0025: "2.50ms",
		1.25:   "1.25s",
		250:    "250s",
	}
	for in, want := range cases {
		if in == 5e-7 {
			continue // rounding-dependent; covered below
		}
		if got := fmtSecs(in); got != want {
			t.Errorf("fmtSecs(%g) = %q, want %q", in, got, want)
		}
	}
	if got := fmtSecs(5e-7); !strings.HasSuffix(got, "µs") {
		t.Errorf("fmtSecs(5e-7) = %q", got)
	}
	if fmtRel(0) != "-" || fmtRel(2) != "2.00x" {
		t.Error("fmtRel wrong")
	}
	if fmtBytes(512) != "512B" || !strings.HasSuffix(fmtBytes(1<<21), "MiB") {
		t.Error("fmtBytes wrong")
	}
	if !strings.HasSuffix(fmtBandwidth(5e7), "MB/s") || !strings.HasSuffix(fmtBandwidth(5e9), "GB/s") {
		t.Error("fmtBandwidth wrong")
	}
}

func TestExpTable3AndFig3Small(t *testing.T) {
	ds := NewDatasets()
	opts := DefaultTable3Opts()
	opts.Scale = smallScale
	opts.MachineCounts = []int{1, 2}
	opts.PRIters = 2
	tbl, data, err := ExpTable3(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	// 1 SA row + 3 systems x 2 machine counts.
	if len(tbl.Rows) != 1+3*2 {
		t.Fatalf("got %d rows", len(tbl.Rows))
	}
	// PGX must have a pull number, GL must not.
	if data.Get(SysPGX, 2, AlgoPRPull, DSTwitter) <= 0 {
		t.Error("missing PGX pull cell")
	}
	if data.Get(SysGL, 2, AlgoPRPull, DSTwitter) != 0 {
		t.Error("GL pull cell should be absent")
	}
	fig3 := ExpFig3(data)
	if len(fig3.Rows) == 0 {
		t.Fatal("empty figure 3")
	}
	// The PGX@max column must beat the GL baseline on at least one row
	// (headline result).
	if !strings.Contains(fig3.String(), "x") {
		t.Error("no relative values rendered")
	}
}

func TestExpTable4Small(t *testing.T) {
	ds := NewDatasets()
	opts := DefaultTable4Opts()
	opts.Scale = smallScale
	tbl, err := ExpTable4(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("got %d rows", len(tbl.Rows))
	}
}

func TestExpFig4Small(t *testing.T) {
	ds := NewDatasets()
	opts := DefaultFig4Opts()
	opts.Scale = smallScale
	opts.MachineCounts = []int{1, 2}
	opts.PRIters = 2
	tbl, err := ExpFig4(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 { // 2 graphs x 3 series
		t.Fatalf("got %d rows", len(tbl.Rows))
	}
}

func TestExpFig5Small(t *testing.T) {
	ds := NewDatasets()
	if _, err := ExpFig5a(ds, smallScale, []int{1, 2}, nil); err != nil {
		t.Fatal(err)
	}
	tbl, err := ExpFig5b([]int{1, 2, 4}, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("got %d rows", len(tbl.Rows))
	}
}

func TestExpFig6Small(t *testing.T) {
	ds := NewDatasets()
	if _, err := ExpFig6a(ds, smallScale, 2, []int{0, 16, 64}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ExpFig6b(ds, smallScale, []int{1, 2}, nil); err != nil {
		t.Fatal(err)
	}
	tbl, err := ExpFig6c(ds, smallScale, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("got %d rows", len(tbl.Rows))
	}
}

func TestExpFig7Small(t *testing.T) {
	ds := NewDatasets()
	tbl, err := ExpFig7(ds, smallScale, 2, []int{1, 2}, []int{1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 || len(tbl.Rows[0]) != 3 {
		t.Fatalf("grid shape wrong: %v", tbl.Rows)
	}
	// Best cell must be exactly 1.00 somewhere.
	if !strings.Contains(tbl.String(), "1.00") {
		t.Error("no 1.00 cell in grid")
	}
}

func TestExpFig8Small(t *testing.T) {
	if _, err := ExpFig8a([]int{1, 2}, nil); err != nil {
		t.Fatal(err)
	}
	tbl, err := ExpFig8b([]int{2, 4}, []int{1 << 10, 16 << 10}, 30*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("got %d rows", len(tbl.Rows))
	}
}

func TestBandwidthHelpers(t *testing.T) {
	bw := rawTransportBandwidth(8<<10, 8, 20*time.Millisecond)
	if bw <= 0 {
		t.Error("zero transport bandwidth")
	}
	lb := localRandomReadBandwidth(2, 1<<16)
	if lb <= 0 {
		t.Error("zero local bandwidth")
	}
	nb, err := nToNBandwidth(3, 4<<10, 20*time.Millisecond)
	if err != nil || nb <= 0 {
		t.Errorf("nToN: %v %v", nb, err)
	}
}
