package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/algorithms"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/store"
)

// Defaults of the out-of-core experiment: the big graph's scale/edge factor,
// the engine-side resident budget the CSR must exceed, and the whole-process
// peak-RSS cap the run must stay under. The defaults put the file at roughly
// 2x the budget and the budget at a quarter of the cap, so the experiment
// only passes when the residency window and the bounded write backlog are
// actually doing their jobs.
const (
	OOCDefaultScale      = 20
	OOCEdgeFactor        = 8
	OOCDefaultBudgetMB   = 64
	OOCDefaultRSSCapMB   = 256
	oocIdentityScale     = 12
	oocStreamBucketBytes = 32 << 20
	oocSeed              = 42
)

// oocPRTolerance is the accepted max relative per-node error of the
// pagerank identity cells. PageRank-pull accumulates remote read responses
// in arrival order, so two runs of the SAME representation already differ at
// the last ulp on a wire fabric (the same reason balance.go treats pr-push
// rows as speedup-only); the storage layer cannot be held to a stronger
// standard than the engine it feeds. The Min-reduction kernels (bfs, wcc,
// sssp) are order-independent and stay strictly bit-checked.
const oocPRTolerance = 1e-12

// OOCIdentityRow is one cell of the identity matrix: one algorithm over one
// fabric, run on an in-memory load and on the mmap'd store file of the same
// graph, at a scale where both fit in RAM.
type OOCIdentityRow struct {
	Fabric string `json:"fabric"` // "inproc" or "tcp"
	Format string `json:"format"` // "csr2" (raw) or "csr3" (compressed)
	Algo   string `json:"algo"`   // "bfs", "pagerank", "wcc", "sssp"
	// InMemSeconds and StoreSeconds are the two runs' task wall times.
	InMemSeconds float64 `json:"inmem_seconds"`
	StoreSeconds float64 `json:"store_seconds"`
	// Identical reports per-node bit-identity of the two result vectors
	// (Float64bits for float results). ExpOOC fails outright when false,
	// except for pagerank cells within oocPRTolerance (see MaxRelError).
	Identical bool `json:"identical"`
	// MaxRelError is the worst per-node relative difference — nonzero only
	// on pagerank cells, where response-arrival float summation order makes
	// ulp-level wiggle inherent to the engine, not the storage layer.
	MaxRelError float64 `json:"max_rel_error,omitempty"`
}

// OOCRunRow is one algorithm of the RSS-capped out-of-core run: the CSR file
// exceeds the resident budget, so the row records how hard the out-of-core
// machinery worked alongside the timing.
type OOCRunRow struct {
	Format  string  `json:"format"` // "csr2" or "csr3"
	Algo    string  `json:"algo"`
	Seconds float64 `json:"seconds"`
	// Spill accounting from the run's counters (cumulative across the phase's
	// rows in run order: the registry counts for the whole cluster lifetime).
	SpilledWriteFrames int64 `json:"spilled_write_frames"`
	SpilledWriteBytes  int64 `json:"spilled_write_bytes"`
	SpillFileFrames    int64 `json:"spill_file_frames"`
	// Decode-cache accounting, csr3 rows only (cumulative like the spill
	// counters): chunk claims that found their blocks decoded vs. ones that
	// paid a varint decode, and the raw ref bytes those misses produced.
	DecodeHits   int64 `json:"decode_hits,omitempty"`
	DecodeMisses int64 `json:"decode_misses,omitempty"`
	DecodedBytes int64 `json:"decoded_bytes,omitempty"`
}

// OOCReport is the JSON artifact (BENCH_ooc.json) of the out-of-core
// storage experiment.
type OOCReport struct {
	Machines      int `json:"machines"`
	IdentityScale int `json:"identity_scale"`
	Scale         int `json:"scale"`
	EdgeFactor    int `json:"edge_factor"`

	// FileBytes is the big CSR v2 file's on-disk size; the run is only
	// meaningfully out-of-core when it exceeds ResidentBudgetBytes.
	// CompressedFileBytes is the same graph's CSR v3 file size and
	// CompressionRatio = FileBytes / CompressedFileBytes.
	FileBytes           int64   `json:"file_bytes"`
	CompressedFileBytes int64   `json:"compressed_file_bytes"`
	CompressionRatio    float64 `json:"compression_ratio"`
	ResidentBudgetBytes int64   `json:"resident_budget_bytes"`
	RSSCapBytes         int64   `json:"rss_cap_bytes"`

	// BaselineVmHWMBytes is the process peak RSS before the big phase;
	// PeakVmHWMBytes is the peak after it (VmHWM from /proc/self/status,
	// zero when the platform does not expose it). UnderCap reports
	// PeakVmHWMBytes <= RSSCapBytes; VmHWMAvailable false means the check
	// could not run and UnderCap is vacuously true.
	BaselineVmHWMBytes int64 `json:"baseline_vmhwm_bytes"`
	PeakVmHWMBytes     int64 `json:"peak_vmhwm_bytes"`
	VmHWMAvailable     bool  `json:"vmhwm_available"`
	UnderCap           bool  `json:"under_cap"`

	Identity []OOCIdentityRow `json:"identity"`
	Runs     []OOCRunRow      `json:"runs"`
}

// ExpOOC exercises the out-of-core storage subsystem end to end, in two
// phases:
//
//  1. Identity: at a scale where both representations fit in RAM, every
//     algorithm must produce bit-identical per-node results whether the
//     cluster loaded the graph on the heap (Cluster.Load) or adopted the
//     mmap'd CSR v2 file (Cluster.LoadStore) — over the in-process fabric
//     and over TCP, with a deliberately tiny resident budget and write
//     spilling forced on, so the whole out-of-core path (residency window,
//     chunk touch hints, spill-to-file, drain replay) is under test, not
//     just the file format. Any mismatch fails the experiment; the one
//     sanctioned exception is pagerank's ulp-level summation-order wiggle
//     (see oocPRTolerance).
//
//  2. RSS cap: stream-write a CSR file about twice the resident budget
//     (never materializing the graph), load it out-of-core, run BFS and
//     PageRank, and record the process peak RSS (VmHWM). The report says
//     whether the peak stayed under the cap; the caller decides whether
//     that is fatal (pgxd-bench -exp ooc treats over-cap as failure).
//
// budgetMB and capMB <= 0 select the defaults.
func ExpOOC(ds *Datasets, oocScale, machines, prIters int, budgetMB, capMB int64, prog Progress) (*Table, *OOCReport, error) {
	if oocScale <= 0 {
		oocScale = OOCDefaultScale
	}
	if budgetMB <= 0 {
		budgetMB = OOCDefaultBudgetMB
	}
	if capMB <= 0 {
		capMB = OOCDefaultRSSCapMB
	}
	rep := &OOCReport{
		Machines:            machines,
		IdentityScale:       oocIdentityScale,
		Scale:               oocScale,
		EdgeFactor:          OOCEdgeFactor,
		ResidentBudgetBytes: budgetMB << 20,
		RSSCapBytes:         capMB << 20,
	}
	dir, err := os.MkdirTemp("", "pgxd-ooc-*")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)

	t := &Table{Title: fmt.Sprintf("Out-of-core storage (%d machines, budget %d MiB, cap %d MiB)",
		machines, budgetMB, capMB)}
	t.Header = []string{"phase", "fabric", "format", "algo", "in-mem", "store", "identical", "spilled", "peak-rss"}

	// Phase 1 must run before the big phase: VmHWM is a process-lifetime
	// high-water mark, so the small identity runs cannot be allowed to
	// inherit (or inflate) the big phase's peak.
	if err := oocIdentity(ds, machines, prIters, rep, t, prog); err != nil {
		return nil, nil, err
	}
	if err := oocCapped(dir, machines, prIters, rep, t, prog); err != nil {
		return nil, nil, err
	}

	t.Notes = append(t.Notes,
		"identity rows: per-node results of Cluster.Load vs Cluster.LoadStore on the same weighted graph, bit-compared; the store cell runs with a deliberately tiny resident budget and write spilling forced on (csr3 rows add a tiny decode cache)",
		"pagerank identity is ulp-tolerant (~ marks the max relative error): pull sums remote read responses in arrival order, so even two in-memory runs differ at the last bit on a wire fabric",
		fmt.Sprintf("capped rows: CSR v2 file of %d MiB streamed to disk (csr3 twin %d MiB, %.2fx smaller), loaded with a %d MiB resident budget; peak RSS is VmHWM over the whole process",
			rep.FileBytes>>20, rep.CompressedFileBytes>>20, rep.CompressionRatio, budgetMB),
		fmt.Sprintf("under-cap: peak VmHWM %d MiB vs cap %d MiB -> %v", rep.PeakVmHWMBytes>>20, capMB, rep.UnderCap))
	return t, rep, nil
}

// oocIdentity runs the identity matrix (phase 1). The weighted TWT' variant
// backs it so the file's weight arrays are under test too (sssp reads them;
// the other algorithms ignore them).
func oocIdentity(ds *Datasets, machines, prIters int, rep *OOCReport, t *Table, prog Progress) error {
	g, err := ds.Weighted(DSTwitter, oocIdentityScale)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "pgxd-ooc-id-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "identity.csr2")
	if err := store.WriteGraph(path, g, machines); err != nil {
		return err
	}
	path3 := filepath.Join(dir, "identity.csr3")
	if err := store.CompressFile(path3, path); err != nil {
		return err
	}

	for _, fabric := range []string{"inproc", "tcp"} {
		prog.log("ooc: identity pass over %s fabric", fabric)
		// In-memory twin: the ref encoding — and therefore the execution path
		// — is the store file's own.
		memRes, err := oocRunAll(machines, fabric, prIters, nil,
			func(c *core.Cluster) (func(), error) { return nil, c.Load(g) })
		if err != nil {
			return fmt.Errorf("ooc: identity in-mem/%s: %w", fabric, err)
		}
		// Store twins: tiny budget + forced spilling, so the identity check
		// covers the residency window and the spill/replay path, not just the
		// mmap load. The csr3 twin adds a deliberately tiny decode cache so
		// eviction and re-decode are under test too.
		for _, format := range []struct {
			name string
			path string
		}{{"csr2", path}, {"csr3", path3}} {
			storeRes, err := oocRunAll(machines, fabric, prIters,
				func(cfg *core.Config) {
					cfg.ResidentBudgetBytes = 1 << 20
					cfg.SpillWrites = true
					cfg.SpillBudgetBytes = 4 << 10
					cfg.SpillDir = dir
					if format.name == "csr3" {
						cfg.DecodeCacheBytes = 64 << 10
					}
				},
				func(c *core.Cluster) (func(), error) {
					sf, err := store.Open(format.path)
					if err != nil {
						return nil, err
					}
					if err := c.LoadStore(sf); err != nil {
						sf.Close() //nolint:errcheck
						return nil, err
					}
					return func() { sf.Close() }, nil //nolint:errcheck
				})
			if err != nil {
				return fmt.Errorf("ooc: identity store/%s/%s: %w", format.name, fabric, err)
			}
			for i, mr := range memRes {
				sr := storeRes[i]
				row := OOCIdentityRow{
					Fabric:       fabric,
					Format:       format.name,
					Algo:         mr.algo,
					InMemSeconds: mr.secs,
					StoreSeconds: sr.secs,
					Identical:    equalBits(mr.bits, sr.bits),
				}
				idCol := fmt.Sprintf("%v", row.Identical)
				if mr.algo == "pagerank" && !row.Identical {
					row.MaxRelError = maxRelErr(mr.bits, sr.bits)
					idCol = fmt.Sprintf("~%.1e", row.MaxRelError)
				}
				rep.Identity = append(rep.Identity, row)
				t.AddRow("identity", fabric, format.name, row.Algo, fmtSecs(row.InMemSeconds),
					fmtSecs(row.StoreSeconds), idCol, "", "")
				if !row.Identical && (mr.algo != "pagerank" || row.MaxRelError > oocPRTolerance) {
					return fmt.Errorf("ooc: %s over %s (%s): store-backed results differ from in-memory (max rel err %g)",
						row.Algo, fabric, format.name, row.MaxRelError)
				}
			}
		}
	}
	return nil
}

// oocCell is one algorithm's result in an identity pass.
type oocCell struct {
	algo string
	secs float64
	bits []uint64
}

// oocRunAll boots one fresh cluster (tune adjusts the config first; nil for
// defaults), loads it via load — which returns an optional cleanup to run
// after shutdown, such as closing a store file — and runs the three identity
// algorithms, returning their result bits.
func oocRunAll(machines int, fabric string, prIters int, tune func(*core.Config), load func(*core.Cluster) (func(), error)) ([]oocCell, error) {
	cfg := core.DefaultConfig(machines)
	if fabric == "tcp" {
		f, err := core.NewTCPFabric(cfg)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		cfg.Fabric = f
	}
	if tune != nil {
		tune(&cfg)
	}
	c, err := core.NewCluster(cfg)
	if err != nil {
		return nil, err
	}
	// Shutdown must precede the load cleanup: closing a store file unmaps
	// the region the machines alias until they are joined.
	var cleanup func()
	defer func() {
		c.Shutdown()
		if cleanup != nil {
			cleanup()
		}
	}()
	cleanup, err = load(c)
	if err != nil {
		return nil, err
	}
	var out []oocCell
	type algo struct {
		name string
		run  func() ([]uint64, algorithms.Metrics, error)
	}
	algos := []algo{
		{"bfs", func() ([]uint64, algorithms.Metrics, error) {
			v, met, err := algorithms.HopDist(c, 0, c.NumNodes())
			return i64Bits(v), met, err
		}},
		{"pagerank", func() ([]uint64, algorithms.Metrics, error) {
			v, met, err := algorithms.PageRankPull(c, prIters, 0.85)
			return f64Bits(v), met, err
		}},
		{"wcc", func() ([]uint64, algorithms.Metrics, error) {
			v, met, err := algorithms.WCC(c, 100000)
			return i64Bits(v), met, err
		}},
		{"sssp", func() ([]uint64, algorithms.Metrics, error) {
			v, met, err := algorithms.SSSP(c, 0, c.NumNodes())
			return f64Bits(v), met, err
		}},
	}
	for _, a := range algos {
		bits, met, err := a.run()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", a.name, err)
		}
		out = append(out, oocCell{algo: a.name, secs: met.Total.Seconds(), bits: bits})
	}
	return out, nil
}

// oocCapped runs the RSS-capped big phase (phase 2).
func oocCapped(dir string, machines, prIters int, rep *OOCReport, t *Table, prog Progress) error {
	// Force freed identity-phase heap back to the OS so the baseline VmHWM
	// reading reflects this phase, not retained garbage.
	debug.FreeOSMemory()
	rep.BaselineVmHWMBytes, rep.VmHWMAvailable = readVmHWM()

	es, err := graph.RMATStream(rep.Scale, rep.EdgeFactor, graph.TwitterLike(), oocSeed)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "big.csr2")
	prog.log("ooc: streaming scale-%d RMAT (%d edges) to %s", rep.Scale, es.NumEdges(), path)
	start := time.Now()
	if err := store.WriteStream(path, es, store.StreamOptions{
		Machines:    machines,
		BucketBytes: oocStreamBucketBytes,
	}); err != nil {
		return err
	}
	prog.log("ooc: stream write took %s", time.Since(start).Round(time.Millisecond))
	path3 := filepath.Join(dir, "big.csr3")
	start = time.Now()
	if err := store.CompressFile(path3, path); err != nil {
		return err
	}
	prog.log("ooc: compression took %s", time.Since(start).Round(time.Millisecond))
	debug.FreeOSMemory()

	if fi, err := os.Stat(path); err == nil {
		rep.FileBytes = fi.Size()
	}
	if fi, err := os.Stat(path3); err == nil {
		rep.CompressedFileBytes = fi.Size()
	}
	if rep.CompressedFileBytes > 0 {
		rep.CompressionRatio = float64(rep.FileBytes) / float64(rep.CompressedFileBytes)
	}
	prog.log("ooc: csr2 %d MiB, csr3 %d MiB (%.2fx smaller)",
		rep.FileBytes>>20, rep.CompressedFileBytes>>20, rep.CompressionRatio)
	if rep.FileBytes <= rep.ResidentBudgetBytes {
		prog.log("ooc: WARNING: file (%d MiB) fits the resident budget (%d MiB); run is not out-of-core",
			rep.FileBytes>>20, rep.ResidentBudgetBytes>>20)
	}

	// Run the capped phase once per format. Each format gets a fresh cluster
	// and registry so the cumulative counters are per-format; the csr3 run
	// bounds the decode cache well under the resident budget and (because a
	// budget is set) carries its property columns off-heap.
	peakCheck := func(r OOCRunRow) {
		t.AddRow("capped", "inproc", r.Format, r.Algo, "", fmtSecs(r.Seconds), "",
			fmt.Sprintf("%df/%dB", r.SpilledWriteFrames, r.SpilledWriteBytes),
			fmt.Sprintf("%dMiB<=%dMiB:%v", rep.PeakVmHWMBytes>>20, rep.RSSCapBytes>>20, rep.UnderCap))
	}
	for _, format := range []struct {
		name string
		path string
	}{{"csr2", path}, {"csr3", path3}} {
		if err := oocCappedFormat(dir, format.name, format.path, machines, prIters, rep, prog); err != nil {
			return err
		}
	}

	peak, ok := readVmHWM()
	rep.PeakVmHWMBytes = peak
	rep.VmHWMAvailable = rep.VmHWMAvailable && ok
	rep.UnderCap = !rep.VmHWMAvailable || peak <= rep.RSSCapBytes
	for _, r := range rep.Runs {
		peakCheck(r)
	}
	return nil
}

// oocCappedFormat runs the capped phase's algorithms on one store format and
// appends their rows to the report.
func oocCappedFormat(dir, format, path string, machines, prIters int, rep *OOCReport, prog Progress) error {
	sf, err := store.Open(path)
	if err != nil {
		return err
	}
	defer sf.Close()

	cfg := core.DefaultConfig(machines)
	cfg.ResidentBudgetBytes = rep.ResidentBudgetBytes
	cfg.SpillWrites = true
	cfg.SpillDir = dir
	if format == "csr3" {
		// A quarter of the resident budget, so decoded blocks never blow the
		// RSS cap that the compression was supposed to protect.
		cfg.DecodeCacheBytes = rep.ResidentBudgetBytes / 4
	}
	reg := obs.NewRegistry()
	cfg.Obs = reg
	c, err := core.NewCluster(cfg)
	if err != nil {
		return err
	}
	defer c.Shutdown()
	if err := c.LoadStore(sf); err != nil {
		return err
	}

	runs := []struct {
		name string
		run  func() (algorithms.Metrics, error)
	}{
		{"bfs", func() (algorithms.Metrics, error) {
			_, met, err := algorithms.HopDist(c, 0, c.NumNodes())
			return met, err
		}},
		{"pagerank", func() (algorithms.Metrics, error) {
			_, met, err := algorithms.PageRankPull(c, prIters, 0.85)
			return met, err
		}},
	}
	for _, r := range runs {
		prog.log("ooc: capped %s %s on %d MiB CSR (budget %d MiB)",
			format, r.name, sf.FileBytes()>>20, rep.ResidentBudgetBytes>>20)
		met, err := r.run()
		if err != nil {
			return fmt.Errorf("ooc: capped %s %s: %w", format, r.name, err)
		}
		ctrs := reg.LifetimeCounters()
		rep.Runs = append(rep.Runs, OOCRunRow{
			Format:             format,
			Algo:               r.name,
			Seconds:            met.Total.Seconds(),
			SpilledWriteFrames: ctrs["spilled_write_frames"],
			SpilledWriteBytes:  ctrs["spilled_write_bytes"],
			SpillFileFrames:    ctrs["spill_file_frames"],
			DecodeHits:         ctrs["decode_hits"],
			DecodeMisses:       ctrs["decode_misses"],
			DecodedBytes:       ctrs["decoded_bytes"],
		})
	}
	return nil
}

// maxRelErr returns the worst per-node relative difference between two
// float64 result vectors given as raw bits.
func maxRelErr(a, b []uint64) float64 {
	worst := 0.0
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		x, y := math.Float64frombits(a[i]), math.Float64frombits(b[i])
		d := math.Abs(x - y)
		if x != 0 {
			d /= math.Abs(x)
		}
		if d > worst {
			worst = d
		}
	}
	if len(a) != len(b) {
		return math.Inf(1)
	}
	return worst
}

// readVmHWM returns the process peak resident set size in bytes from
// /proc/self/status (Linux). ok is false when the field is unavailable —
// callers then skip the cap assertion rather than fail.
func readVmHWM() (bytes int64, ok bool) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0, false
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0, false
		}
		return kb << 10, true
	}
	return 0, false
}

// WriteJSON writes the report to path (the BENCH_ooc.json artifact).
func (r *OOCReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
