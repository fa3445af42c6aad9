package obs

import (
	"fmt"
	"strings"
	"time"
)

// flightSpans caps how many trailing spans per machine an AbortDump keeps.
const flightSpans = 256

// AbortDump is the flight recorder's output: when a job aborts, the registry
// snapshots the most recent spans and the aborted job's counter deltas per
// machine, so the failure is diagnosable after the fact (which machine
// stalled, which link went quiet, how far the supersteps got).
type AbortDump struct {
	Job  uint64 `json:"job"`
	Name string `json:"name"`
	// Err is the abort error's message (errors don't marshal).
	Err string `json:"err"`
	// When is the wall-clock abort time.
	When time.Time `json:"when"`
	// Machines is the attached cluster size.
	Machines int `json:"machines"`
	// Counters holds the aborted job's partial counter deltas, summed
	// across machines; PerMachine has the per-machine split (nonzero only).
	Counters   map[string]int64   `json:"counters"`
	PerMachine []map[string]int64 `json:"per_machine"`
	// TrafficBytes[src][dst] is the aborted job's partial traffic matrix.
	TrafficBytes [][]int64 `json:"traffic_bytes"`
	// Spans is the flight-recorder tail: the most recent spans per machine
	// at abort time, merged and ordered by start.
	Spans []Span `json:"spans"`
}

// RecordAbort captures the flight recorder for aborted job id: the job's
// partial counters and traffic (what they gained since BeginJob) plus the
// recent span tail. The dump is published as LastAbort and returned.
func (r *Registry) RecordAbort(id uint64, name string, err error) *AbortDump {
	if r == nil {
		return nil
	}
	st := r.state.Load()
	if st == nil {
		return nil
	}
	rep := &JobReport{}
	r.mu.Lock()
	if name == "" {
		name = r.jobName
	}
	st.sinceBase(rep)
	r.mu.Unlock()

	d := &AbortDump{
		Job:      id,
		Name:     name,
		When:     time.Now(),
		Machines: len(st.machines),
	}
	if err != nil {
		d.Err = err.Error()
	}
	d.Counters = rep.Counters
	d.PerMachine = rep.PerMachine
	d.TrafficBytes = rep.TrafficBytes
	for _, mo := range st.machines {
		d.Spans = append(d.Spans, mo.trace.tail(flightSpans)...)
	}
	sortSpans(d.Spans)
	r.aborts.Add(1)
	r.lastAbort.Store(d)
	return d
}

// LastAbort returns the most recent flight-recorder dump, or nil if no job
// has aborted under this registry.
func (r *Registry) LastAbort() *AbortDump {
	if r == nil {
		return nil
	}
	return r.lastAbort.Load()
}

// Summary renders the dump as a compact multi-line report for logs and the
// pgxd-run abort path.
func (d *AbortDump) Summary() string {
	if d == nil {
		return "obs: no abort recorded"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "abort job=%d name=%q err=%q machines=%d spans=%d\n",
		d.Job, d.Name, d.Err, d.Machines, len(d.Spans))
	for _, c := range []string{"frames_sent", "bytes_sent", "reads_served", "writes_applied", "send_errors", "recv_errors"} {
		if v := d.Counters[c]; v != 0 {
			fmt.Fprintf(&b, "  %s=%d", c, v)
		}
	}
	b.WriteByte('\n')
	// The tail of the timeline is where the failure lives; show the last
	// few non-flush spans per machine.
	const show = 4
	perM := make(map[int16][]Span, d.Machines)
	for _, s := range d.Spans {
		if s.Kind == SpanFlush || s.Kind == SpanReadRTT || s.Kind == SpanCopierServe {
			continue
		}
		perM[s.Machine] = append(perM[s.Machine], s)
	}
	for m := 0; m < d.Machines; m++ {
		spans := perM[int16(m)]
		if len(spans) > show {
			spans = spans[len(spans)-show:]
		}
		for _, s := range spans {
			fmt.Fprintf(&b, "  %s\n", s)
		}
	}
	return strings.TrimRight(b.String(), "\n")
}
