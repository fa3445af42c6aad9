package main

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestTinyWorkloads runs every workload at -tiny sizes, untraced and traced,
// and checks the contract on what a run reports: every named metric once,
// finite, with its declared unit, and nothing else.
func TestTinyWorkloads(t *testing.T) {
	if err := checkSpecs(); err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	layers := map[string]map[string]metricVal{} // workload -> per-layer metrics of its traced run
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{workload: w.Name, seed: defaultSeed, seconds: 1, trace: trace, rounds: 2, tiny: true, outDir: out}
			res, det, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, s := range want {
				m, ok := res.Metrics[s.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, s.Name)
				case m.Unit != s.Unit:
					t.Errorf("%s: metric %s unit %q, want %q", w.Name, s.Name, m.Unit, s.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: metric %s = %v", w.Name, s.Name, m.Value)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, s.Name, m.Value)
				}
				if !nameRE.MatchString(s.Name) {
					t.Errorf("metric name %q outside [A-Za-z0-9_.-]+", s.Name)
				}
			}
			if !trace && det.Rounds != 2 {
				t.Errorf("%s: %d timed rounds, want 2", w.Name, det.Rounds)
			}
			if trace {
				layers[w.Name] = res.Metrics
				if _, err := os.Stat(filepath.Join(out, "trace-"+w.Name+".json")); err != nil {
					t.Errorf("%s: trace file: %v", w.Name, err)
				}
			}
		}
	}
	if left, _ := filepath.Glob(filepath.Join(out, "ooc-*")); len(left) != 0 {
		t.Errorf("temp store directories left behind: %v", left)
	}
	if !t.Failed() {
		checkSeparation(t, layers)
	}
}

// checkSeparation checks what makes the workloads worth having apart: a micro
// metric reads non-zero exactly on the workloads it is recorded under, the
// wire metrics are zero in process and non-zero over TCP, the store's cache
// is smaller than its working set, and scan-local is task-phase time.
func checkSeparation(t *testing.T, layers map[string]map[string]metricVal) {
	t.Helper()
	val := func(w, m string) float64 { return layers[w][m].Value }
	for _, s := range perLayer {
		if s.Src != "micro" {
			continue
		}
		on := map[string]bool{}
		for _, w := range s.On {
			on[w] = true
		}
		for w := range layers {
			if got := val(w, s.Name); on[w] != (got != 0) {
				t.Errorf("%s on %s = %v, measured there: %v", s.Name, w, got, on[w])
			}
		}
	}
	for _, m := range []string{"comm.wire_mb_per_round", "codec.wire_ratio"} {
		for _, w := range []string{wlScanLocal, wlMicrostep, wlOOCStore} {
			if v := val(w, m); v != 0 {
				t.Errorf("%s on %s = %v, want 0 in process", m, w, v)
			}
		}
		for _, w := range []string{wlPullTCP, wlPushTCP} {
			if v := val(w, m); v <= 0 {
				t.Errorf("%s on %s = %v, want > 0 over TCP", m, w, v)
			}
		}
	}
	if v := val(wlOOCStore, "store.decode_hit_ratio"); v <= 0 || v >= 1 {
		t.Errorf("store.decode_hit_ratio on ooc-store = %v, want inside (0, 1)", v)
	}
	if task, bar := val(wlScanLocal, "core.task_phase_frac"), val(wlScanLocal, "core.barrier_frac"); task <= bar {
		t.Errorf("scan-local: task phase share %v not above barrier share %v", task, bar)
	}
	if v := val(wlServeMixed, "server.jobs_per_s"); v <= 0 {
		t.Errorf("server.jobs_per_s on serve-mixed = %v, want > 0", v)
	}
}

// TestManifestMatchesTables fails when BENCHMARK.json and the program's
// metric tables disagree; regenerate with -write-manifest BENCHMARK.json.
func TestManifestMatchesTables(t *testing.T) {
	want, err := manifestBytes()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark directory: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the program's tables; run: go run ./benchmark -write-manifest BENCHMARK.json")
	}
}

// Golden values for the order statistics. The quartiles are those of
// Python's statistics.quantiles(xs, n=4), which the driver uses.
func TestMedianQuartiles(t *testing.T) {
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 3.5, 5.25},
		{[]float64{10, 20, 30, 40}, 12.5, 25, 37.5},
		{[]float64{2.5, 2.5, 2.5, 9, 1}, 1.75, 2.5, 5.75},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if med := median(c.xs); med != c.med || q1 != c.q1 || q3 != c.q3 {
			t.Errorf("%v: q1 %v median %v q3 %v, want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
	if q1, q3 := quartiles(nil); q1 != 0 || q3 != 0 || median(nil) != 0 {
		t.Errorf("empty sample: want zeros")
	}
	if got := spread([]float64{10, 20, 30, 40}); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
}

// TestNearestRank pins the rank rule: index ceil(q·n)−1, not trunc(q·n).
func TestNearestRank(t *testing.T) {
	two := []float64{9, 1}
	if got := nearestRank(two, 0.50); got != 1 {
		t.Errorf("p50 of two samples = %v, want the lower one (1); the maximum is the trunc(q·n) bug", got)
	}
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct{ q, want float64 }{
		{0.50, 5}, {0.90, 9}, {0.95, 10}, {0.99, 10}, {1, 10}, {0.10, 1}, {0.11, 2}, {0.001, 1},
	} {
		if got := nearestRank(ten, c.q); got != c.want {
			t.Errorf("q=%v of 1..10 = %v, want %v", c.q, got, c.want)
		}
	}
	twenty := make([]float64, 20)
	for i := range twenty {
		twenty[i] = float64(i + 1)
	}
	if got := nearestRank(twenty, 0.95); got != 19 { // 0.95*20 is 19.000000000000004 in floats
		t.Errorf("p95 of 1..20 = %v, want 19", got)
	}
	if got := nearestRank(nil, 0.5); got != 0 {
		t.Errorf("empty sample = %v, want 0", got)
	}
}

// TestCompareSets checks the bound logic of -check and -sets.
func TestCompareSets(t *testing.T) {
	mk := func(slowdown float64) *setRecord {
		e2e := map[string]metricVal{}
		for _, m := range endToEnd {
			e2e[m.Name] = metricVal{Value: 100, Unit: m.Unit}
		}
		e2e["slowdown_vs_sa"] = metricVal{Value: slowdown, Unit: "ratio"}
		return &setRecord{Workloads: map[string]*workloadRecord{wlScanLocal: {EndToEnd: e2e, Q1: map[string]float64{}, Q3: map[string]float64{}}}}
	}
	bound := endToEnd[0].Bound
	if endToEnd[0].Name != "slowdown_vs_sa" {
		t.Fatalf("first end-to-end metric is %s", endToEnd[0].Name)
	}
	names := []string{wlScanLocal}
	cmp := func(b float64, symmetric bool) bool {
		return compareSets(io.Discard, "a", mk(10), "b", mk(b), names, symmetric)
	}
	if !cmp(10*(1+bound/2), false) {
		t.Error("half the bound worse is inside the bound")
	}
	if cmp(10*(1+2*bound), false) {
		t.Error("twice the bound worse is outside the bound")
	}
	if !cmp(10*(1-2*bound), false) {
		t.Error("-check must accept a gain")
	}
	if cmp(10*(1-2*bound), true) {
		t.Error("two sets of one binary twice the bound apart do not agree")
	}
	wide := mk(10)
	wide.Workloads[wlScanLocal].Q1["slowdown_vs_sa"], wide.Workloads[wlScanLocal].Q3["slowdown_vs_sa"] = 10*(1-bound), 10*(1+bound)
	if compareSets(io.Discard, "a", mk(10), "b", wide, names, false) {
		t.Error("equal medians with a quartile range of twice the bound are unresolved, not a pass")
	}
}

// TestComparable checks that -check refuses records from another machine,
// toolchain or run shape.
func TestComparable(t *testing.T) {
	base := func() *setRecord {
		return &setRecord{Env: envStamp{GoVersion: "go1.24.0", NProc: 2, GoMaxProcs: 2, Kernel: "6.18", Commit: "a"}, Seed: defaultSeed, Seconds: runSeconds}
	}
	other := base()
	other.Env.Commit = "b" // the commit is what a check compares across
	if err := comparable(base(), other); err != nil {
		t.Errorf("records differing only in commit: %v", err)
	}
	for name, change := range map[string]func(*setRecord){
		"nproc":   func(r *setRecord) { r.Env.NProc = 8 },
		"kernel":  func(r *setRecord) { r.Env.Kernel = "5.10" },
		"go":      func(r *setRecord) { r.Env.GoVersion = "go1.22.1" },
		"seed":    func(r *setRecord) { r.Seed = heldOutSeed },
		"seconds": func(r *setRecord) { r.Seconds = 1 },
	} {
		r := base()
		change(r)
		if comparable(base(), r) == nil {
			t.Errorf("records differing in %s compare", name)
		}
	}
}
