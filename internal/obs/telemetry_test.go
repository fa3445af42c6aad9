package obs

import (
	"errors"
	"testing"
	"time"

	"repro/internal/comm"
)

// TestBarrierHistogramSnapshotAndReset pins the job-boundary semantics the
// repartitioner depends on: per-job histograms drain into their lifetime twin
// at BeginJob/EndJob, the JobReport carries only that job's samples, and
// MachineHistogram returns the cumulative per-machine view including the
// running job.
func TestBarrierHistogramSnapshotAndReset(t *testing.T) {
	r := NewRegistry()
	r.Attach(3)

	// Two samples on machine 1 before any job: the next BeginJob folds them
	// into the lifetime histogram without attributing them to a job.
	r.Observe(1, HistBarrier, 2*time.Millisecond)
	r.Observe(1, HistBarrier, 4*time.Millisecond)

	r.BeginJob(1, "a")
	r.Observe(1, HistBarrier, time.Millisecond)
	r.Observe(1, HistBarrier, time.Millisecond)
	r.Observe(1, HistBarrier, time.Millisecond)
	r.Observe(2, HistBarrier, 8*time.Millisecond)
	rep := r.EndJob(1, 10*time.Millisecond)

	job := rep.Histograms[HistBarrier.String()]
	if job.Count != 4 {
		t.Errorf("job report barrier count = %d, want the 4 in-job samples only", job.Count)
	}
	if want := int64(11 * time.Millisecond); job.SumNS != want {
		t.Errorf("job report barrier sum = %v, want %v", job.SumNS, want)
	}

	// The per-machine lifetime view is cumulative: pre-job + in-job samples.
	if got := r.MachineHistogram(1, HistBarrier); got.Count != 5 || got.SumNS != int64(9*time.Millisecond) {
		t.Errorf("machine 1 lifetime barrier = {count %d, sum %d}, want {5, %d}",
			got.Count, got.SumNS, int64(9*time.Millisecond))
	}
	if got := r.MachineHistogram(2, HistBarrier).Count; got != 1 {
		t.Errorf("machine 2 lifetime barrier count = %d, want 1", got)
	}
	if got := r.MachineHistogram(0, HistBarrier).Count; got != 0 {
		t.Errorf("machine 0 lifetime barrier count = %d, want 0", got)
	}

	// A sample observed outside any job shows up in the lifetime view
	// immediately (running cell), not just after the next drain.
	r.Observe(1, HistBarrier, 16*time.Millisecond)
	if got := r.MachineHistogram(1, HistBarrier).Count; got != 6 {
		t.Errorf("machine 1 barrier count with a running sample = %d, want 6", got)
	}

	// A second job drains the straggler sample and reports none of its own:
	// drained history must never resurface in a later job's report.
	r.BeginJob(2, "b")
	rep2 := r.EndJob(2, time.Millisecond)
	if s, ok := rep2.Histograms[HistBarrier.String()]; ok && s.Count != 0 {
		t.Errorf("job 2 resurfaced %d drained barrier samples", s.Count)
	}
	if got := r.MachineHistogram(1, HistBarrier).Count; got != 6 {
		t.Errorf("machine 1 lifetime barrier count after job 2 = %d, want 6", got)
	}
}

// TestLifetimeTrafficAccumulatesAcrossJobs pins the traffic-matrix ledger:
// JobReport rows are per-job deltas, LifetimeTraffic is the cumulative matrix
// including the running job, and the diagonal stays zero.
func TestLifetimeTrafficAccumulatesAcrossJobs(t *testing.T) {
	r := NewRegistry()
	r.Attach(2)

	r.Traffic(0, 1, 100) // pre-job: drained to lifetime by BeginJob

	r.BeginJob(1, "a")
	r.Traffic(0, 1, 50)
	r.Traffic(1, 0, 70)
	rep := r.EndJob(1, time.Millisecond)

	if rep.TrafficBytes[0][1] != 50 || rep.TrafficBytes[1][0] != 70 {
		t.Errorf("job traffic = %v, want per-job deltas [[0 50] [70 0]]", rep.TrafficBytes)
	}

	r.Traffic(1, 0, 5) // running, outside any job

	lt := r.LifetimeTraffic()
	want := [][]int64{{0, 150}, {75, 0}}
	for s := range want {
		for d := range want[s] {
			if lt[s][d] != want[s][d] {
				t.Errorf("lifetime traffic[%d][%d] = %d, want %d (full matrix %v)",
					s, d, lt[s][d], want[s][d], lt)
			}
		}
	}
}

// holdEndpoint is the inner endpoint of TestWrapEndpointCountsBeforeHandOver:
// its Send keeps the frame — the peer has it — until release closes, and only
// then returns, failing with fail when set.
type holdEndpoint struct {
	comm.Endpoint // only Machine and Send are called
	held, release chan struct{}
	fail          error
}

func (e *holdEndpoint) Machine() int { return 0 }

func (e *holdEndpoint) Send(dst int, buf *comm.Buffer) error {
	buf.Release()
	close(e.held)
	<-e.release
	return e.fail
}

// TestWrapEndpointCountsBeforeHandOver: the wrapper bills a frame to the job
// sending it by the time the peer holds it, before the inner Send returns — the
// peer can finish the job with it, and that job's report is then read — so the
// traffic matrix and bytes_sent/frames_sent never carry a job's last frame into
// the next job. A send that fails stays counted and counts a send error.
func TestWrapEndpointCountsBeforeHandOver(t *testing.T) {
	for _, fail := range []error{nil, errors.New("peer gone")} {
		r := NewRegistry()
		r.Attach(2)
		r.BeginJob(1, "last-frame")
		inner := &holdEndpoint{held: make(chan struct{}), release: make(chan struct{}), fail: fail}
		ep := WrapEndpoint(inner, r)
		pool := comm.NewPool(1, 64)
		buf := pool.Acquire()
		buf.Reset(comm.Header{Type: comm.MsgWriteReq})
		buf.AppendU64(42)
		n := int64(len(buf.Data))
		done := make(chan error, 1)
		go func() { done <- ep.Send(1, buf) }()
		<-inner.held
		rep := r.EndJob(1, time.Millisecond) // the frame is with the peer; Send has not returned
		close(inner.release)
		if err := <-done; err != fail {
			t.Fatalf("Send = %v, want %v", err, fail)
		}
		if rep.TrafficBytes[0][1] != n || rep.TrafficFrames[0][1] != 1 || rep.Counters["bytes_sent"] != n || rep.Counters["frames_sent"] != 1 {
			t.Errorf("fail=%v: the job's report holds %v bytes / %v frames (bytes_sent %d, frames_sent %d) while the peer holds its %d-byte frame",
				fail, rep.TrafficBytes, rep.TrafficFrames, rep.Counters["bytes_sent"], rep.Counters["frames_sent"], n)
		}
		want := int64(0)
		if fail != nil {
			want = 1
		}
		if got := r.LifetimeCounters()["send_errors"]; got != want {
			t.Errorf("fail=%v: send_errors = %d, want %d", fail, got, want)
		}
	}
}
