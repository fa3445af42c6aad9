package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/graph"
)

// TestCancelAbortsRunningJob: Cancel fires the job-scoped abort latch, so a
// driver loop issuing jobs stops promptly with ErrJobCanceled; the latch is
// sticky until Uncancel, after which the same cluster computes again.
func TestCancelAbortsRunningJob(t *testing.T) {
	g, err := graph.RMAT(8, 6, graph.TwitterLike(), 5)
	if err != nil {
		t.Fatal(err)
	}
	c := bootCluster(t, g, DefaultConfig(2))
	src, _ := c.AddPropF64("src")
	dst, _ := c.AddPropF64("dst")
	c.FillF64(src, 1)

	spec := JobSpec{
		Name:      "cancel-pull",
		Iter:      IterInEdges,
		Task:      &pullSumTask{src: src, dst: dst},
		ReadProps: []PropID{src},
	}
	errCh := make(chan error, 1)
	ran := make(chan struct{}) // closed after the loop's first completed job
	go func() {
		// An algorithm-style driver loop: without cancellation this would
		// run for a long time.
		for i := 0; i < 100000; i++ {
			if _, err := c.RunJob(spec); err != nil {
				errCh <- err
				return
			}
			if i == 0 {
				close(ran)
			}
		}
		errCh <- nil
	}()
	select {
	case <-ran:
	case err := <-errCh:
		t.Fatalf("driver loop stopped before Cancel: %v", err)
	}
	cause := errors.New("operator said stop")
	c.Cancel(cause)

	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("driver loop ran to completion despite Cancel")
		}
		if !errors.Is(err, ErrJobCanceled) {
			t.Fatalf("error %v does not wrap ErrJobCanceled", err)
		}
		if !errors.Is(err, ErrJobAborted) {
			t.Fatalf("error %v does not wrap ErrJobAborted", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("driver loop did not stop within 10s of Cancel")
	}

	// The latch is sticky: new jobs fail fast without running.
	if _, err := c.RunJob(spec); !errors.Is(err, ErrJobCanceled) {
		t.Fatalf("RunJob while canceled = %v, want ErrJobCanceled", err)
	}
	if cc := c.CancelCause(); !errors.Is(cc, ErrJobCanceled) {
		t.Fatalf("CancelCause = %v, want ErrJobCanceled wrap", cc)
	}

	// Uncancel restores the cluster for the next lease.
	c.Uncancel()
	if cc := c.CancelCause(); cc != nil {
		t.Fatalf("CancelCause after Uncancel = %v, want nil", cc)
	}
	settleQuiescent(t, c)
	if err := runPull(t, c, g, src, dst, true); err != nil {
		t.Fatalf("clean run after Uncancel: %v", err)
	}
}

// TestCancelBeforeRun: cancellation between jobs is caught by the RunJob
// entry check — no machine ever starts the job.
func TestCancelBeforeRun(t *testing.T) {
	g, err := graph.RMAT(7, 4, graph.TwitterLike(), 11)
	if err != nil {
		t.Fatal(err)
	}
	c := bootCluster(t, g, DefaultConfig(2))
	src, _ := c.AddPropF64("src")
	dst, _ := c.AddPropF64("dst")

	c.Cancel(errors.New("pre-canceled"))
	_, err = c.RunJob(JobSpec{
		Name:      "never-runs",
		Iter:      IterInEdges,
		Task:      &pullSumTask{src: src, dst: dst},
		ReadProps: []PropID{src},
	})
	if !errors.Is(err, ErrJobCanceled) {
		t.Fatalf("RunJob = %v, want ErrJobCanceled", err)
	}
	c.Uncancel()
	if err := runPull(t, c, g, src, dst, true); err != nil {
		t.Fatalf("run after Uncancel: %v", err)
	}
}

// snapshotHookFabric runs a one-shot hook the first time any endpoint's
// Metrics is read after arm. RunJob reads every endpoint's metrics right after
// its entry check for a canceled cluster and before it fans the job out, so
// an armed hook runs exactly in the window between the two.
type snapshotHookFabric struct {
	comm.Fabric
	armed atomic.Bool
	hook  func()
}

func (f *snapshotHookFabric) InMemory() bool { return comm.InMemoryFabric(f.Fabric) }

func (f *snapshotHookFabric) Endpoint(m int) (comm.Endpoint, error) {
	ep, err := f.Fabric.Endpoint(m)
	if err != nil {
		return nil, err
	}
	return &snapshotHookEndpoint{Endpoint: ep, f: f}, nil
}

type snapshotHookEndpoint struct {
	comm.Endpoint
	f *snapshotHookFabric
}

func (e *snapshotHookEndpoint) Metrics() *comm.Metrics {
	if e.f.armed.CompareAndSwap(true, false) {
		e.f.hook()
	}
	return e.Endpoint.Metrics()
}

func (e *snapshotHookEndpoint) Quiesce() {
	if q, ok := e.Endpoint.(interface{ Quiesce() }); ok {
		q.Quiesce()
	}
}

// TestCancelBetweenEntryAndPublish: a Cancel that lands after RunJob's entry
// check and before any machine has published the job finds no current job to
// abort. No watcher retries it: each machine reads the latch as it publishes,
// so the job aborts there — long before a timeout could — and the cluster
// reruns exactly after Uncancel.
func TestCancelBetweenEntryAndPublish(t *testing.T) {
	g, err := graph.RMAT(8, 6, graph.TwitterLike(), 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(3)
	cfg.Timeout = time.Minute
	fab := &snapshotHookFabric{Fabric: innerFabric(t, cfg, false)}
	defer fab.Close()
	cfg.Fabric = fab
	c := bootCluster(t, g, cfg)
	src, _ := c.AddPropF64("src")
	dst, _ := c.AddPropF64("dst")

	cause := errors.New("deadline between entry and publish")
	fab.hook = func() {
		for _, m := range c.machines {
			if m.curJob.Load() != nil {
				t.Error("a machine had published before the hook ran")
			}
		}
		c.Cancel(cause)
	}
	launched := c.sections
	fab.armed.Store(true)
	start := time.Now()
	err = runPull(t, c, g, src, dst, false)
	if !errors.Is(err, ErrJobAborted) || !errors.Is(err, ErrJobCanceled) || !errors.Is(err, cause) {
		t.Fatalf("RunJob = %v, want ErrJobAborted wrapping ErrJobCanceled and the cause", err)
	}
	if c.sections != launched+1 {
		t.Fatal("the job was refused at RunJob's entry: the Cancel did not land inside the window")
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("the job took %v to abort: a timeout caught it, not publish", d)
	}
	c.Uncancel()
	settleQuiescent(t, c)
	if err := runPull(t, c, g, src, dst, true); err != nil {
		t.Fatalf("rerun after Uncancel: %v", err)
	}
}
