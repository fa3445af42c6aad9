package algorithms

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/graph"
)

// trafficTrace is what one fabric's run of traceTraffic's catalog leaves
// behind: per job, in order, the data bytes it moved; per algorithm, the
// push/pull step counts.
type trafficTrace struct {
	jobs  []string
	steps []string
}

// TestTrafficIdenticalAcrossFabrics: a frame over loopback TCP is byte for
// byte the frame the in-process fabric carries, and both endpoints count it
// before handing it over. So with one worker per machine — frame boundaries
// then depend on nothing but the graph and the cut — every job of the adaptive
// traversals and of both PageRanks moves the same request, response and write
// bytes on either fabric, and the traversals take the same push/pull steps.
// Data bytes only: a job's control frames include however many allreduce
// rounds its write drain spun through (ten or five thousand, for the same
// job), which no fabric makes repeatable.
func TestTrafficIdenticalAcrossFabrics(t *testing.T) {
	rmat, err := graph.RMAT(10, 8, graph.TwitterLike(), 12345)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := graph.Grid(24, 24, 8, 99)
	if err != nil {
		t.Fatal(err)
	}
	for _, tg := range []struct {
		name string
		g    *graph.Graph
	}{{"rmat", rmat.WithUniformWeights(1, 10, 7)}, {"grid", grid.WithUniformWeights(1, 10, 7)}} {
		for p := 2; p <= 3; p++ {
			t.Run(fmt.Sprintf("%s/p=%d", tg.name, p), func(t *testing.T) {
				inproc := traceTraffic(t, tg.g, p, false)
				tcp := traceTraffic(t, tg.g, p, true)
				if !slices.Equal(inproc.steps, tcp.steps) {
					t.Errorf("push/pull steps differ:\n inproc %v\n    tcp %v", inproc.steps, tcp.steps)
				}
				if len(inproc.jobs) != len(tcp.jobs) {
					t.Fatalf("%d jobs in process, %d over TCP", len(inproc.jobs), len(tcp.jobs))
				}
				for i := range inproc.jobs {
					if inproc.jobs[i] != tcp.jobs[i] {
						t.Fatalf("job %d: in process %s, over TCP %s", i, inproc.jobs[i], tcp.jobs[i])
					}
				}
			})
		}
	}
}

// traceTraffic runs the catalog on a fresh p-machine, one-worker cluster over
// the chosen fabric. A job's bytes are the difference of the cluster's traffic
// snapshots at its start and at the next job's (kernelHook runs just ahead of
// every RunJob): JobStats.Traffic plus whatever was counted between the two
// jobs — nothing, unless a sent counter trails delivery.
func traceTraffic(t *testing.T, g *graph.Graph, p int, useTCP bool) trafficTrace {
	cfg := latticeConfig(t, p, useTCP, 0)
	cfg.Workers = 1
	c, err := core.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if err := c.Load(g); err != nil {
		t.Fatal(err)
	}
	var tr trafficTrace
	var last comm.Snapshot
	var name string
	cut := func(next string) {
		now := c.TrafficSnapshot()
		if name != "" {
			d := now.Sub(last)
			tr.jobs = append(tr.jobs, fmt.Sprintf("%s: %d data bytes, %d read-request, %d read-response", name, d.DataBytesSent, d.ReadReqBytes, d.ReadRespBytes))
		}
		last, name = now, next
	}
	n := 0
	kernelHook = func(task core.Task) core.Task {
		cut(fmt.Sprintf("#%d %T", n, task))
		n++
		return task
	}
	defer func() { kernelHook = nil }()
	nodes := c.NumNodes()
	for _, run := range []struct {
		name string
		fn   func() (Metrics, error)
	}{
		{"hopdist", func() (Metrics, error) { _, m, err := HopDist(c, 0, nodes); return m, err }},
		{"sssp", func() (Metrics, error) { _, m, err := SSSP(c, 0, nodes); return m, err }},
		{"wcc", func() (Metrics, error) { _, m, err := WCC(c, nodes); return m, err }},
		{"pr-pull", func() (Metrics, error) { _, m, err := PageRankPull(c, 4, 0.85); return m, err }},
		{"pr-push", func() (Metrics, error) { _, m, err := PageRankPush(c, 4, 0.85); return m, err }},
	} {
		m, err := run.fn()
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		tr.steps = append(tr.steps, fmt.Sprintf("%s %d push/%d pull", run.name, m.PushSteps, m.PullSteps))
	}
	cut("")
	return tr
}
