package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one harness-side timing record: the benchmark's own timer around
// a call into a layer. Parent is the id of the enclosing span (-1 at the
// root); Round ties the spans of one round together (-1 outside rounds).
type span struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Round   int    `json:"round"`
}

// tracer keeps spans in memory and writes them out when the run ends. The
// open-span stack belongs to the harness goroutine; leaf() is the
// concurrent entry the served workload's clients use.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	stack []int
	round int
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), round: -1} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) top() int {
	if len(t.stack) == 0 {
		return -1
	}
	return t.stack[len(t.stack)-1]
}

// begin opens a span under the current one and returns its id.
func (t *tracer) begin(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, StartNS: t.now(), Parent: t.top(), Round: t.round})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open one, and returns its
// duration.
func (t *tracer) end(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.stack = t.stack[:len(t.stack)-1]
	s := &t.spans[id]
	s.EndNS = t.now()
	return time.Duration(s.EndNS - s.StartNS)
}

// timed runs fn inside a span and returns how long it took.
func (t *tracer) timed(name string, fn func()) time.Duration {
	id := t.begin(name)
	fn()
	return t.end(id)
}

// leaf records a finished span under parent from any goroutine.
func (t *tracer) leaf(name string, parent int, start time.Time, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := int64(start.Sub(t.epoch))
	t.spans = append(t.spans, span{ID: len(t.spans), Name: name, StartNS: st, EndNS: st + int64(d), Parent: parent, Round: t.round})
}

func (t *tracer) setRound(r int) {
	t.mu.Lock()
	t.round = r
	t.mu.Unlock()
}

// spanTotals is the per-name roll-up printed after a traced run: a span's
// self time is its duration minus the part its children cover.
type spanTotals struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func (t *tracer) totals() []spanTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	byName := map[string]*spanTotals{}
	for _, s := range t.spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanTotals{Name: s.Name}
			byName[s.Name] = st
		}
		d := s.EndNS - s.StartNS
		self := d - child[s.ID]
		if self < 0 { // concurrent children (client requests) can sum past the parent
			self = 0
		}
		st.Count++
		st.TotalMS += float64(d) / 1e6
		st.SelfMS += float64(self) / 1e6
	}
	out := make([]spanTotals, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalMS > out[j].TotalMS })
	return out
}

// engineSample is what one traced round took from the engine's obs
// registries: lifetime-counter and histogram-sum deltas (lossless), the
// machines' main-goroutine span time by kind over the job reports the poller
// caught, and the worker/copier span durations the p50s are read from.
type engineSample struct {
	Round    int              `json:"round"`
	WallNS   int64            `json:"wall_ns"`
	Counters map[string]int64 `json:"counters"`
	// MainNS sums main-goroutine span durations by kind over all machines,
	// over the jobs counted in Jobs only.
	MainNS map[string]int64 `json:"main_ns"`
	// FlushNS / ServeNS / ReadRTTNS are histogram-sum deltas: total worker
	// time in flushes, copier time serving, and summed read round trips.
	FlushNS   int64 `json:"flush_ns"`
	ServeNS   int64 `json:"serve_ns"`
	ReadRTTNS int64 `json:"read_rtt_ns"`
	// Jobs is how many job reports the poller folded in; JobsRun is how many
	// jobs the round ran, from the counts the algorithm calls return
	// (lossless). The shares derived from MainNS are scaled by JobsRun/Jobs, so
	// a missed report thins the sample instead of reading as time in no span.
	Jobs    int `json:"jobs"`
	JobsRun int `json:"jobs_run"`
	// Wrapped counts folded reports in which one machine's spans filled its
	// ring: the job's oldest spans were overwritten before EndJob read them.
	Wrapped int `json:"wrapped_jobs"`
	// MaxSpans is the most spans one machine recorded for one caught job.
	MaxSpans int `json:"max_spans_per_job"`

	flushDur, serveDur, rttDur []float64
}

// obsCollector drains the registries' recent job reports while a traced
// round runs. A registry keeps only its last 64 reports and microstep runs
// thousands of jobs per round, so a poller folds reports into per-kind
// totals every couple of milliseconds instead of reading them at the round
// boundary. On a busy 2-core box the poller can be kept off the CPU for
// longer than 64 jobs take; endRound records how many jobs it caught next to
// how many ran.
type obsCollector struct {
	regs    []*obs.Registry
	depth   int
	lastJob []uint64

	mu   sync.Mutex
	cur  engineSample
	stop chan struct{}
	done chan struct{}

	baseCtr  map[string]int64
	baseHist [3]int64
}

// spanDurCap bounds how many worker/copier span durations one round keeps
// for its p50s.
const spanDurCap = 1 << 16

// newObsCollector collects from regs, whose span rings hold depth spans per
// machine.
func newObsCollector(regs []*obs.Registry, depth int) *obsCollector {
	c := &obsCollector{regs: regs, depth: depth, lastJob: make([]uint64, len(regs))}
	c.cur.MainNS = map[string]int64{}
	for i, r := range regs {
		for _, rep := range r.RecentReports() {
			if rep.Job > c.lastJob[i] {
				c.lastJob[i] = rep.Job
			}
		}
	}
	return c
}

func (c *obsCollector) counters() map[string]int64 {
	out := map[string]int64{}
	for _, r := range c.regs {
		for k, v := range r.LifetimeCounters() {
			out[k] += v
		}
	}
	return out
}

func (c *obsCollector) histSums() (s [3]int64) {
	for _, r := range c.regs {
		s[0] += r.LifetimeHistogram(obs.HistFlush).SumNS
		s[1] += r.LifetimeHistogram(obs.HistServe).SumNS
		s[2] += r.LifetimeHistogram(obs.HistReadRTT).SumNS
	}
	return s
}

func (c *obsCollector) poll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, r := range c.regs {
		for _, rep := range r.RecentReports() {
			if rep.Job <= c.lastJob[i] {
				continue
			}
			c.lastJob[i] = rep.Job
			c.cur.Jobs++
			perMachine := map[int16]int{}
			for _, s := range rep.Spans {
				perMachine[s.Machine]++
				switch {
				case s.Worker == obs.WorkerMain:
					c.cur.MainNS[s.Kind.String()] += s.DurNS
				case s.Kind == obs.SpanFlush && len(c.cur.flushDur) < spanDurCap:
					c.cur.flushDur = append(c.cur.flushDur, float64(s.DurNS))
				case s.Kind == obs.SpanCopierServe && len(c.cur.serveDur) < spanDurCap:
					c.cur.serveDur = append(c.cur.serveDur, float64(s.DurNS))
				case s.Kind == obs.SpanReadRTT && len(c.cur.rttDur) < spanDurCap:
					c.cur.rttDur = append(c.cur.rttDur, float64(s.DurNS))
				}
			}
			wrapped := false
			for _, n := range perMachine {
				c.cur.MaxSpans = max(c.cur.MaxSpans, n)
				wrapped = wrapped || n >= c.depth
			}
			if wrapped {
				c.cur.Wrapped++
			}
		}
	}
}

// beginRound starts collecting for one round.
func (c *obsCollector) beginRound(round int) {
	c.poll() // fold anything older into the previous sample, then drop it
	c.mu.Lock()
	c.cur = engineSample{Round: round, MainNS: map[string]int64{}}
	c.mu.Unlock()
	c.baseCtr = c.counters()
	c.baseHist = c.histSums()
	c.stop = make(chan struct{})
	c.done = make(chan struct{})
	go func() {
		defer close(c.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-tick.C:
				c.poll()
			}
		}
	}()
}

// endRound stops the poller and returns the round's sample. rec supplies the
// lossless job count of the round.
func (c *obsCollector) endRound(rec *roundRec) engineSample {
	close(c.stop)
	<-c.done
	c.poll()
	s := c.cur
	s.WallNS = int64(rec.wall)
	s.JobsRun = rec.met.Jobs
	s.Counters = map[string]int64{}
	for k, v := range c.counters() {
		if d := v - c.baseCtr[k]; d != 0 {
			s.Counters[k] = d
		}
	}
	h := c.histSums()
	s.FlushNS, s.ServeNS, s.ReadRTTNS = h[0]-c.baseHist[0], h[1]-c.baseHist[1], h[2]-c.baseHist[2]
	return s
}

// traceFile is what a traced run leaves in -trace-out: the harness spans,
// their per-name roll-up, and one engine sample per traced round.
type traceFile struct {
	Workload string               `json:"workload"`
	Seed     int64                `json:"seed"`
	Env      envStamp             `json:"env"`
	Metrics  map[string]metricVal `json:"metrics"`
	Totals   []spanTotals         `json:"span_totals"`
	Engine   []engineSample       `json:"engine_rounds"`
	Spans    []span               `json:"spans"`
}

func writeTraceFile(dir string, tf traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+tf.Workload+".json")
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
