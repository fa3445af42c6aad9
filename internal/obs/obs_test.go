package obs

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
)

// wire is a p-machine in-process fabric whose endpoint ledgers a registry
// reads, as core.NewCluster attaches them.
type wire struct {
	eps  []comm.Endpoint
	pool *comm.Pool
}

func attachWire(r *Registry, p int) *wire {
	f := comm.NewInProcFabric(p, 4)
	w := &wire{eps: make([]comm.Endpoint, p), pool: comm.NewPool(2, 8192)}
	ledgers := make([]*comm.Metrics, p)
	for m := range w.eps {
		w.eps[m], _ = f.Endpoint(m)
		ledgers[m] = w.eps[m].Metrics()
	}
	r.Attach(p, ledgers...)
	return w
}

// send moves one n-byte frame (header included) from src to dst.
func (w *wire) send(t *testing.T, src, dst, n int) {
	t.Helper()
	buf := w.pool.Acquire()
	buf.Reset(comm.Header{Type: comm.MsgWriteReq, Src: uint16(src)})
	buf.Data = buf.Data[:n]
	if err := w.eps[src].Send(dst, buf); err != nil {
		t.Fatal(err)
	}
	got, _ := w.eps[dst].Recv()
	got.Release()
}

// TestRegistryConcurrency hammers the hot paths from many goroutines (run
// under -race) and checks the per-job report accounts for every recorded
// event exactly once.
func TestRegistryConcurrency(t *testing.T) {
	const machines, goroutines, rounds = 4, 8, 500
	r := NewRegistry()
	r.Attach(machines)
	r.BeginJob(1, "hammer")

	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			m := gi % machines
			for i := 0; i < rounds; i++ {
				r.Add(m, CtrReadsServed, 10)
				r.Observe(m, HistReadRTT, time.Microsecond)
				start := r.Clock()
				r.Span(m, gi, SpanFlush, 1, start, 0)
			}
		}(gi)
	}
	wg.Wait()

	rep := r.EndJob(1, time.Millisecond)
	if rep == nil {
		t.Fatal("EndJob returned nil report")
	}
	wantEvents := int64(goroutines * rounds)
	if got := rep.Counters["reads_served"]; got != 10*wantEvents {
		t.Errorf("reads_served = %d, want %d", got, 10*wantEvents)
	}
	if got := rep.Histograms[HistReadRTT.String()].Count; got != wantEvents {
		t.Errorf("rtt histogram count = %d, want %d", got, wantEvents)
	}
	// Lifetime view must survive the job boundary.
	if got := r.LifetimeCounters()["reads_served"]; got != 10*wantEvents {
		t.Errorf("lifetime reads_served = %d, want %d", got, 10*wantEvents)
	}
	// A second job starts from zero.
	r.BeginJob(2, "empty")
	rep2 := r.EndJob(2, time.Millisecond)
	if got := rep2.Counters["reads_served"]; got != 0 {
		t.Errorf("second job inherited %d reads_served, want 0", got)
	}
}

// TestSpanOrdering checks the trace ring's invariants: Seq strictly
// increases per machine, and sorted output is ordered by start time.
func TestSpanOrdering(t *testing.T) {
	r := NewRegistry()
	r.Attach(2)
	r.BeginJob(7, "spans")
	for i := 0; i < 50; i++ {
		start := r.Clock()
		r.Span(i%2, WorkerMain, SpanTaskPhase, 7, start, uint64(i))
	}
	rep := r.EndJob(7, time.Millisecond)
	if len(rep.Spans) != 50 {
		t.Fatalf("report has %d spans, want 50", len(rep.Spans))
	}
	lastSeq := map[int16]uint64{}
	for _, s := range rep.Spans {
		if prev, ok := lastSeq[s.Machine]; ok && s.Seq <= prev {
			t.Fatalf("machine %d seq not increasing: %d after %d", s.Machine, s.Seq, prev)
		}
		lastSeq[s.Machine] = s.Seq
		if s.Job != 7 {
			t.Fatalf("span for job %d leaked into job 7's report", s.Job)
		}
		if s.DurNS < 0 || s.StartNS < 0 {
			t.Fatalf("negative span timing: %+v", s)
		}
	}
	for i := 1; i < len(rep.Spans); i++ {
		if rep.Spans[i].StartNS < rep.Spans[i-1].StartNS {
			t.Fatalf("spans not sorted by start: %d before %d",
				rep.Spans[i-1].StartNS, rep.Spans[i].StartNS)
		}
	}
}

// TestTraceRingWraps ensures an overfull ring keeps the most recent spans.
func TestTraceRingWraps(t *testing.T) {
	r := NewRegistry()
	r.SetTraceDepth(16)
	r.Attach(1)
	r.BeginJob(1, "wrap")
	for i := 0; i < 100; i++ {
		r.Span(0, WorkerMain, SpanFlush, 1, r.Clock(), uint64(i))
	}
	spans := r.RecentSpans(1000)
	if len(spans) != 16 {
		t.Fatalf("ring kept %d spans, want 16", len(spans))
	}
	if got := spans[len(spans)-1].Arg; got != 99 {
		t.Errorf("newest span arg = %d, want 99", got)
	}
}

// TestNilRegistryZeroAlloc proves the disabled path allocates nothing — the
// guarantee that lets instrumentation stay compiled into the hot loops.
func TestNilRegistryZeroAlloc(t *testing.T) {
	var r *Registry
	allocs := testing.AllocsPerRun(100, func() {
		r.Add(0, CtrBytesSent, 1)
		r.Observe(0, HistReadRTT, time.Microsecond)
		start := r.Clock()
		r.Span(0, WorkerMain, SpanFlush, 1, start, 0)
		r.BeginJob(1, "x")
		r.EndJob(1, time.Millisecond)
	})
	if allocs != 0 {
		t.Errorf("nil registry allocated %.1f times per run, want 0", allocs)
	}
}

// TestAttachedRegistryHotPathZeroAlloc: even attached, the per-event paths
// (Add/Observe/Span) must not allocate.
func TestAttachedRegistryHotPathZeroAlloc(t *testing.T) {
	r := NewRegistry()
	r.Attach(2)
	r.BeginJob(1, "hot")
	allocs := testing.AllocsPerRun(100, func() {
		r.Add(0, CtrBytesSent, 1)
		r.Observe(0, HistReadRTT, time.Microsecond)
		r.Span(0, 3, SpanFlush, 1, r.Clock(), 0)
	})
	if allocs != 0 {
		t.Errorf("attached hot path allocated %.1f times per run, want 0", allocs)
	}
}

// TestHistogramQuantiles checks bucketed quantiles land within one
// power-of-two bucket of the true values.
func TestHistogramQuantiles(t *testing.T) {
	var h histogram
	for i := 1; i <= 1000; i++ {
		h.observe(int64(i) * 1000) // 1µs .. 1ms
	}
	s := h.snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d, want 1000", s.Count)
	}
	if mean := s.Mean(); mean < 400*time.Microsecond || mean > 700*time.Microsecond {
		t.Errorf("mean = %v, want ~500µs", mean)
	}
	p50 := s.Quantile(0.50)
	if p50 < 250*time.Microsecond || p50 > 1100*time.Microsecond {
		t.Errorf("p50 = %v, want within a bucket of 500µs", p50)
	}
	if p99 := s.Quantile(0.99); p99 < p50 {
		t.Errorf("p99 %v < p50 %v", p99, p50)
	}
	if q0 := s.Quantile(0); q0 > s.Quantile(1) {
		t.Errorf("q0 %v > q1 %v", q0, s.Quantile(1))
	}
}

// TestRecordAbort exercises the flight recorder: an abort captures counters,
// traffic and span tails, and the next job starts from the abort's state.
func TestRecordAbort(t *testing.T) {
	r := NewRegistry()
	w := attachWire(r, 2)
	r.BeginJob(3, "doomed")
	r.Add(0, CtrReadsServed, 777)
	w.send(t, 0, 1, 512)
	r.Span(0, WorkerMain, SpanBarrier, 3, r.Clock(), 0)
	dump := r.RecordAbort(3, "doomed", fmt.Errorf("injected fault"))
	if dump == nil {
		t.Fatal("RecordAbort returned nil")
	}
	if dump.Err != "injected fault" || dump.Job != 3 {
		t.Fatalf("dump mismatch: %+v", dump)
	}
	if dump.Counters["reads_served"] != 777 || dump.Counters["bytes_sent"] != 512 || dump.TrafficBytes[0][1] != 512 {
		t.Errorf("dump reads_served = %d, bytes_sent = %d, traffic %v; want 777, 512, [[0 512] [0 0]]",
			dump.Counters["reads_served"], dump.Counters["bytes_sent"], dump.TrafficBytes)
	}
	if len(dump.Spans) == 0 {
		t.Error("dump retained no spans")
	}
	if got := r.LastAbort(); got == nil || got.Job != 3 {
		t.Errorf("LastAbort = %+v", got)
	}
	if r.AbortsObserved() != 1 {
		t.Errorf("AbortsObserved = %d, want 1", r.AbortsObserved())
	}
	if s := dump.Summary(); s == "" {
		t.Error("Summary is empty")
	}
	// Recovery job must not see the aborted job's counters.
	r.BeginJob(4, "recovery")
	rep := r.EndJob(4, time.Millisecond)
	if got := rep.Counters["reads_served"]; got != 0 || rep.TotalBytes() != 0 {
		t.Errorf("recovery job inherited %d reads_served, %d bytes", got, rep.TotalBytes())
	}
	// But lifetime totals keep them.
	if got := r.LifetimeCounters()["reads_served"]; got != 777 {
		t.Errorf("lifetime lost aborted job's counters: %d", got)
	}
}

// TestReportFormatting smoke-tests the human-readable surfaces.
func TestReportFormatting(t *testing.T) {
	r := NewRegistry()
	w := attachWire(r, 2)
	r.BeginJob(1, "fmt")
	w.send(t, 0, 1, 4096)
	w.send(t, 1, 0, 1024)
	start := r.Clock()
	r.Span(0, WorkerMain, SpanTaskPhase, 1, start, 0)
	rep := r.EndJob(1, 5*time.Millisecond)
	if line := rep.Line(); line == "" {
		t.Error("Line is empty")
	}
	m := rep.TrafficMatrixString()
	if m == "" {
		t.Error("TrafficMatrixString is empty")
	}
	if rep.TotalBytes() != 5120 {
		t.Errorf("TotalBytes = %d, want 5120", rep.TotalBytes())
	}
	if got := rep.SpanCount(SpanTaskPhase); got != 1 {
		t.Errorf("SpanCount(task) = %d, want 1", got)
	}
	if tot := rep.PhaseTotals(); tot[SpanTaskPhase.String()] <= 0 {
		t.Errorf("PhaseTotals missing task phase: %v", tot)
	}
}

// TestHTTPHandler smoke-tests the debug endpoints.
func TestHTTPHandler(t *testing.T) {
	r := NewRegistry()
	h := r.Handler()

	// Not attached yet: metrics must refuse cleanly.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/metrics", nil))
	if rec.Code != 503 {
		t.Fatalf("unattached /debug/metrics = %d, want 503", rec.Code)
	}

	w := attachWire(r, 2)
	r.BeginJob(1, "http")
	w.send(t, 0, 1, 42)
	r.Span(0, WorkerMain, SpanTaskPhase, 1, r.Clock(), 0)
	r.EndJob(1, time.Millisecond)

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/metrics = %d, want 200", rec.Code)
	}
	var payload struct {
		Machines int              `json:"machines"`
		Lifetime map[string]int64 `json:"lifetime"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
		t.Fatalf("metrics payload is not JSON: %v", err)
	}
	if payload.Machines != 2 || payload.Lifetime["bytes_sent"] != 42 {
		t.Errorf("payload = %+v", payload)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?max=10", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/trace = %d, want 200", rec.Code)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/abort", nil))
	if rec.Code != 404 {
		t.Fatalf("/debug/abort with no abort = %d, want 404", rec.Code)
	}
	r.RecordAbort(2, "x", fmt.Errorf("boom"))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/abort", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/abort after abort = %d, want 200", rec.Code)
	}
}
