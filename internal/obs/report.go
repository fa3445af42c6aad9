package obs

import (
	"fmt"
	"strings"
	"time"
)

// JobReport is one job's observability snapshot: counter deltas, latency
// histograms, the per-(src,dst) traffic matrix, and every span the trace
// rings retained for the job. Built by Registry.EndJob; serializes cleanly
// for the bench harness and the debug HTTP surface.
type JobReport struct {
	Job      uint64        `json:"job"`
	Name     string        `json:"name"`
	Duration time.Duration `json:"duration_ns"`
	Machines int           `json:"machines"`
	// Counters sums each counter across machines; PerMachine has the split
	// (only nonzero entries are kept per machine).
	Counters   map[string]int64   `json:"counters"`
	PerMachine []map[string]int64 `json:"per_machine"`
	// TrafficBytes[src][dst] / TrafficFrames[src][dst] are the job's wire
	// traffic matrix: the difference of the sending endpoint's comm.Metrics
	// rows over the job, headers included.
	TrafficBytes  [][]int64 `json:"traffic_bytes"`
	TrafficFrames [][]int64 `json:"traffic_frames"`
	// Histograms maps histogram name to its merged cross-machine snapshot.
	Histograms map[string]HistSnapshot `json:"histograms"`
	// Spans is the job's trace, ordered by start time.
	Spans []Span `json:"spans"`
}

// TotalBytes sums the traffic matrix.
func (j *JobReport) TotalBytes() int64 {
	if j == nil {
		return 0
	}
	var n int64
	for _, row := range j.TrafficBytes {
		for _, v := range row {
			n += v
		}
	}
	return n
}

// SpanCount returns how many spans of kind k the report holds.
func (j *JobReport) SpanCount(k SpanKind) int {
	if j == nil {
		return 0
	}
	n := 0
	for _, s := range j.Spans {
		if s.Kind == k {
			n++
		}
	}
	return n
}

// PhaseTotals sums span durations by kind across machines, giving the
// per-phase time decomposition the paper's evaluation tables are built from.
func (j *JobReport) PhaseTotals() map[string]time.Duration {
	if j == nil {
		return nil
	}
	out := make(map[string]time.Duration)
	for _, s := range j.Spans {
		out[s.Kind.String()] += time.Duration(s.DurNS)
	}
	return out
}

// Line renders the one-line job report printed by pgxd-run:
// name, duration, traffic, phase split, and RTT tail latency.
func (j *JobReport) Line() string {
	if j == nil {
		return "obs: no report"
	}
	ph := j.PhaseTotals()
	line := fmt.Sprintf("job=%d name=%q dur=%s sent=%s/%d-frames task=%s barrier=%s drain=%s",
		j.Job, j.Name, j.Duration.Round(time.Microsecond),
		fmtBytes(j.TotalBytes()), j.Counters["frames_sent"],
		ph["task_phase"].Round(time.Microsecond),
		ph["barrier"].Round(time.Microsecond),
		ph["write_drain"].Round(time.Microsecond))
	if h, ok := j.Histograms["read_rtt_ns"]; ok && h.Count > 0 {
		line += fmt.Sprintf(" rtt-p99<=%s", h.Quantile(0.99).Round(time.Microsecond))
	}
	if n := j.Counters[CtrMirrorWords.String()]; n > 0 {
		// What a mirrored pull's prefetch cost: words fetched, summed worker time.
		line += fmt.Sprintf(" prefetch=%dw/%s", n, ph[SpanReadPrefetch.String()].Round(time.Microsecond))
	}
	if n := j.Counters[CtrAccumulatedWrites.String()]; n > 0 {
		// What accumulation saved an accumulated push: remote writes folded
		// locally → records its workers shipped.
		var shipped uint64
		for _, s := range j.Spans {
			if s.Kind == SpanWriteFlush {
				shipped += s.Arg
			}
		}
		line += fmt.Sprintf(" accum=%d→%d", n, shipped)
	}
	hits, misses := j.Counters[CtrDecodeHits.String()], j.Counters[CtrDecodeMisses.String()]
	if hits+misses > 0 {
		// What a compressed store cost the job: block pins that found their
		// block decoded / that decoded it, and the bytes those decoded.
		line += fmt.Sprintf(" store=%d/%d %s", hits, misses, fmtBytes(j.Counters[CtrDecodedBytes.String()]))
	}
	return line
}

// TrafficMatrixString renders the byte matrix as an aligned table with row
// and column sums — the EXPERIMENTS.md walkthrough reads this directly.
func (j *JobReport) TrafficMatrixString() string {
	if j == nil || len(j.TrafficBytes) == 0 {
		return "(no traffic recorded)"
	}
	p := len(j.TrafficBytes)
	var b strings.Builder
	fmt.Fprintf(&b, "%8s", "src\\dst")
	for d := 0; d < p; d++ {
		fmt.Fprintf(&b, "%12d", d)
	}
	fmt.Fprintf(&b, "%12s\n", "total")
	colSum := make([]int64, p)
	for s := 0; s < p; s++ {
		fmt.Fprintf(&b, "%8d", s)
		var rowSum int64
		for d := 0; d < p; d++ {
			v := j.TrafficBytes[s][d]
			rowSum += v
			colSum[d] += v
			fmt.Fprintf(&b, "%12s", fmtBytes(v))
		}
		fmt.Fprintf(&b, "%12s\n", fmtBytes(rowSum))
	}
	fmt.Fprintf(&b, "%8s", "total")
	var grand int64
	for d := 0; d < p; d++ {
		grand += colSum[d]
		fmt.Fprintf(&b, "%12s", fmtBytes(colSum[d]))
	}
	fmt.Fprintf(&b, "%12s", fmtBytes(grand))
	return b.String()
}

func fmtBytes(n int64) string {
	switch {
	case n >= 10*1024*1024:
		return fmt.Sprintf("%dMiB", n/(1024*1024))
	case n >= 10*1024:
		return fmt.Sprintf("%dKiB", n/1024)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
