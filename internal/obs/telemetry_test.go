package obs

import (
	"testing"
	"time"
)

// TestBarrierHistogramSnapshotAndReset pins the job-boundary semantics of a
// histogram: each machine's is cumulative, including the running job, and
// the JobReport carries only the samples recorded between its BeginJob and
// EndJob.
func TestBarrierHistogramSnapshotAndReset(t *testing.T) {
	r := NewRegistry()
	r.Attach(3)
	machineHist := func(m int) HistSnapshot { return r.machine(m).hists[HistBarrier].snapshot() }

	// Two samples on machine 1 before any job: they are in the next BeginJob's
	// base reading, so no job is billed for them.
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
	if got := machineHist(1); got.Count != 5 || got.SumNS != int64(9*time.Millisecond) {
		t.Errorf("machine 1 lifetime barrier = {count %d, sum %d}, want {5, %d}",
			got.Count, got.SumNS, int64(9*time.Millisecond))
	}
	if got := machineHist(2).Count; got != 1 {
		t.Errorf("machine 2 lifetime barrier count = %d, want 1", got)
	}
	if got := machineHist(0).Count; got != 0 {
		t.Errorf("machine 0 lifetime barrier count = %d, want 0", got)
	}

	// A sample observed outside any job shows up in the lifetime view
	// immediately.
	r.Observe(1, HistBarrier, 16*time.Millisecond)
	if got := machineHist(1).Count; got != 6 {
		t.Errorf("machine 1 barrier count with a running sample = %d, want 6", got)
	}

	// A second job starts past the straggler sample and reports none of its
	// own: earlier history must never resurface in a later job's report.
	r.BeginJob(2, "b")
	rep2 := r.EndJob(2, time.Millisecond)
	if s, ok := rep2.Histograms[HistBarrier.String()]; ok && s.Count != 0 {
		t.Errorf("job 2 resurfaced %d earlier barrier samples", s.Count)
	}
	if got := machineHist(1).Count; got != 6 {
		t.Errorf("machine 1 lifetime barrier count after job 2 = %d, want 6", got)
	}
}

// TestBetweenJobsInLifetimeOnly: a report is the difference of cumulative
// readings at its BeginJob and its EndJob, so traffic and counters recorded
// between two jobs — post-abort recovery, a driver-side collective — are in
// LifetimeCounters and in neither adjacent report, while each report holds
// exactly its own job's. The transport counters are the endpoints' ledgers:
// Add does not move them.
func TestBetweenJobsInLifetimeOnly(t *testing.T) {
	r := NewRegistry()
	w := attachWire(r, 2)

	r.BeginJob(1, "a")
	w.send(t, 0, 1, 100)
	r.Add(0, CtrReadsServed, 3)
	rep1 := r.EndJob(1, time.Millisecond)

	w.send(t, 1, 0, 70) // between the jobs
	r.Add(1, CtrReadsServed, 5)
	r.Add(1, CtrBytesSent, 1000) // not the registry's counter: ignored

	r.BeginJob(2, "b")
	w.send(t, 0, 1, 50)
	r.Add(0, CtrReadsServed, 7)
	rep2 := r.EndJob(2, time.Millisecond)

	for _, c := range []struct {
		rep          *JobReport
		bytes, reads int64
	}{{rep1, 100, 3}, {rep2, 50, 7}} {
		got := c.rep.Counters
		if c.rep.TrafficBytes[0][1] != c.bytes || c.rep.TrafficFrames[0][1] != 1 || c.rep.TotalBytes() != c.bytes {
			t.Errorf("job %d: traffic %v bytes / %v frames, want only [0][1] = %d bytes / 1 frame",
				c.rep.Job, c.rep.TrafficBytes, c.rep.TrafficFrames, c.bytes)
		}
		if got["bytes_sent"] != c.bytes || got["frames_sent"] != 1 || got["bytes_recv"] != c.bytes || got["frames_recv"] != 1 || got["reads_served"] != c.reads {
			t.Errorf("job %d: counters %v, want %d bytes / 1 frame each way and %d reads_served", c.rep.Job, got, c.bytes, c.reads)
		}
	}
	life := r.LifetimeCounters()
	if life["bytes_sent"] != 220 || life["frames_sent"] != 3 || life["bytes_recv"] != 220 || life["reads_served"] != 15 {
		t.Errorf("lifetime %v, want 220 bytes / 3 frames each way and 15 reads_served", life)
	}
}
