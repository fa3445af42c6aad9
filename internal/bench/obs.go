package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/algorithms"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/obs"
)

// ObsReport is the JSON artifact (BENCH_obs.json) of the observability
// experiment: instrumentation overhead with the registry off vs. on, a full
// JobReport from a PageRank superstep over the TCP fabric, and the flight
// recorder's capture of a fault-injected abort.
type ObsReport struct {
	Dataset  string `json:"dataset"`
	Scale    int    `json:"scale"`
	Machines int    `json:"machines"`
	PRIters  int    `json:"pr_iters"`

	// Overhead section: PageRank-pull over the in-process fabric, best of
	// three, with Config.Obs nil vs. attached.
	OffSeconds  float64 `json:"off_seconds"`
	OnSeconds   float64 `json:"on_seconds"`
	OverheadPct float64 `json:"overhead_pct"`

	// TCP section: the final superstep's JobReport (spans, counters,
	// traffic matrix) and run-level aggregates.
	TCPSeconds        float64        `json:"tcp_seconds"`
	TCPSupersteps     int            `json:"tcp_supersteps"`
	TCPTotalSpans     int            `json:"tcp_total_spans"`
	TrafficTotalBytes int64          `json:"traffic_total_bytes"`
	ReadRTTp99NS      int64          `json:"read_rtt_p99_ns"`
	LastJob           *obs.JobReport `json:"last_job"`

	// Abort section: what the flight recorder captured when a read-request
	// frame was failed by injection.
	AbortCaptured bool   `json:"abort_captured"`
	AbortErr      string `json:"abort_err,omitempty"`
	AbortSpans    int    `json:"abort_spans"`
}

// ExpObs measures the observability subsystem itself: (1) the overhead of
// full instrumentation vs. the nil-registry fast path, (2) what a PageRank
// run over the TCP fabric yields — per-superstep spans, the per-(src,dst)
// traffic matrix, read round-trip tails — and (3) the flight recorder
// capturing a fault-injected abort.
func ExpObs(ds *Datasets, scale, machines, prIters int, prog Progress) (*Table, *ObsReport, error) {
	g, err := ds.Get(DSTwitter, scale)
	if err != nil {
		return nil, nil, err
	}
	rep := &ObsReport{Dataset: DSTwitter, Scale: scale, Machines: machines, PRIters: prIters}
	t := &Table{Title: fmt.Sprintf("Observability (PR-pull on TWT', %d machines)", machines)}
	t.Header = []string{"section", "config", "time", "detail"}

	// --- 1: overhead, in-process fabric, best of three per mode ------------
	runInProc := func(attach bool) (time.Duration, error) {
		best := time.Duration(0)
		for rep := 0; rep < 3; rep++ {
			cfg := core.DefaultConfig(machines)
			if attach {
				cfg.Obs = obs.NewRegistry()
			}
			c, err := core.NewCluster(cfg)
			if err != nil {
				return 0, err
			}
			if err := c.Load(g); err != nil {
				c.Shutdown()
				return 0, err
			}
			_, met, err := algorithms.PageRankPull(c, prIters, 0.85)
			c.Shutdown()
			if err != nil {
				return 0, err
			}
			if best == 0 || met.Total < best {
				best = met.Total
			}
		}
		return best, nil
	}
	prog.log("obs: overhead baseline (registry off)")
	off, err := runInProc(false)
	if err != nil {
		return nil, nil, err
	}
	prog.log("obs: overhead with registry attached")
	on, err := runInProc(true)
	if err != nil {
		return nil, nil, err
	}
	rep.OffSeconds = off.Seconds()
	rep.OnSeconds = on.Seconds()
	rep.OverheadPct = 100 * (on.Seconds() - off.Seconds()) / off.Seconds()
	t.AddRow("overhead", "registry off", fmtSecs(rep.OffSeconds), "nil fast path")
	t.AddRow("overhead", "registry on", fmtSecs(rep.OnSeconds),
		fmt.Sprintf("%+.1f%%", rep.OverheadPct))

	// --- 2: TCP fabric with full instrumentation ---------------------------
	prog.log("obs: instrumented PageRank over TCP")
	cfg := core.DefaultConfig(machines)
	reg := obs.NewRegistry()
	cfg.Obs = reg
	fabric, err := core.NewTCPFabric(cfg)
	if err != nil {
		return nil, nil, err
	}
	cfg.Fabric = fabric
	c, err := core.NewCluster(cfg)
	if err != nil {
		fabric.Close()
		return nil, nil, err
	}
	if err := c.Load(g); err != nil {
		c.Shutdown()
		fabric.Close()
		return nil, nil, err
	}
	_, met, err := algorithms.PageRankPull(c, prIters, 0.85)
	if err != nil {
		c.Shutdown()
		fabric.Close()
		return nil, nil, err
	}
	reports := reg.RecentReports()
	rep.TCPSeconds = met.Total.Seconds()
	rep.TCPSupersteps = len(reports)
	for _, r := range reports {
		rep.TCPTotalSpans += len(r.Spans)
		rep.TrafficTotalBytes += r.TotalBytes()
	}
	rep.LastJob = reg.LastReport()
	rtt := reg.LifetimeHistogram(obs.HistReadRTT)
	rep.ReadRTTp99NS = int64(rtt.Quantile(0.99))
	c.Shutdown()
	fabric.Close()
	if rep.LastJob == nil {
		return nil, nil, fmt.Errorf("obs: TCP run produced no job report")
	}
	if rep.TrafficTotalBytes == 0 {
		return nil, nil, fmt.Errorf("obs: traffic matrix stayed zero over TCP")
	}
	t.AddRow("tcp", "instrumented", fmtSecs(rep.TCPSeconds),
		fmt.Sprintf("%d supersteps, %d spans, %s matrix, rtt-p99<=%v",
			rep.TCPSupersteps, rep.TCPTotalSpans, fmtBytes(rep.TrafficTotalBytes),
			time.Duration(rep.ReadRTTp99NS).Round(time.Microsecond)))

	// --- 3: flight recorder under fault injection --------------------------
	prog.log("obs: flight recorder under injected fault")
	fcfg := core.DefaultConfig(machines)
	fcfg.RequestTimeout = 1500 * time.Millisecond
	fcfg.CollectiveTimeout = 1500 * time.Millisecond
	freg := obs.NewRegistry()
	fcfg.Obs = freg
	inj := comm.NewFaultInjector(
		core.NewInProcFabric(fcfg),
		comm.FaultPlan{Seed: 7, Rules: []comm.FaultRule{{
			Src: comm.AnyMachine, Dst: comm.AnyMachine,
			Type: int(comm.MsgReadReq), Kind: comm.FaultFail, Limit: 1,
		}}})
	fcfg.Fabric = inj
	fc, err := core.NewCluster(fcfg)
	if err != nil {
		inj.Close()
		return nil, nil, err
	}
	if err := fc.Load(g); err != nil {
		fc.Shutdown()
		inj.Close()
		return nil, nil, err
	}
	_, _, runErr := algorithms.PageRankPull(fc, prIters, 0.85)
	dump := freg.LastAbort()
	fc.Shutdown()
	inj.Close()
	if runErr == nil || !errors.Is(runErr, core.ErrJobAborted) {
		return nil, nil, fmt.Errorf("obs: injected fault did not abort the job (err=%v)", runErr)
	}
	if dump == nil {
		return nil, nil, fmt.Errorf("obs: abort produced no flight-recorder dump")
	}
	rep.AbortCaptured = true
	rep.AbortErr = dump.Err
	rep.AbortSpans = len(dump.Spans)
	t.AddRow("abort", "FaultFail(read_req)", "-",
		fmt.Sprintf("flight recorder: %d spans, err=%q", rep.AbortSpans, truncate(dump.Err, 48)))

	t.Notes = append(t.Notes,
		"overhead is full instrumentation (spans+histograms+matrix) vs. the nil-registry fast path",
		"the tcp section's traffic matrix is the mirrored pull pattern: one prefetch per referenced remote address per iteration",
		"the abort dump is what a post-mortem sees after ErrJobAborted")
	return t, rep, nil
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}

// WriteJSON writes the report to path (the BENCH_obs.json artifact).
func (r *ObsReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
