package core

import (
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/reduce"
)

// TestLoadPlanValidation: LoadPlan rejects layouts that do not match the
// cluster or graph, and a ghost set naming a node outside the graph.
func TestLoadPlanValidation(t *testing.T) {
	g := testGraph(t)
	c, err := NewCluster(DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	if err := c.LoadPlan(g, partition.Layout{NumMachines: 2, Starts: []uint32{0, 1, uint32(g.NumNodes())}}, nil); err == nil {
		t.Error("accepted layout with wrong machine count")
	}
	if err := c.LoadPlan(g, partition.Layout{NumMachines: 3, Starts: []uint32{0, 1, 2, 3}}, nil); err == nil {
		t.Error("accepted layout not covering the graph")
	}
	layout, err := partition.Compute(g, 3, partition.EdgeBalanced)
	if err != nil {
		t.Fatal(err)
	}
	outside := &partition.GhostSet{Nodes: []graph.NodeID{0, graph.NodeID(g.NumNodes())}}
	if err := c.LoadPlan(g, layout, outside); err == nil {
		t.Error("accepted a ghost outside the graph")
	}
}

// TestLoadPlanRefusesMalformedStarts: a plan layout whose starts decrease or
// do not begin at node 0 is refused before anything is built — the first used
// to wrap a machine's node count and die out of memory, the second left nodes
// owned by nobody — while a layout with an empty machine loads and computes
// exactly.
func TestLoadPlanRefusesMalformedStarts(t *testing.T) {
	g, err := graph.RMAT(6, 8, graph.TwitterLike(), 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Shutdown)
	for _, starts := range [][]uint32{{0, 40, 20, 64}, {10, 30, 50, 64}} {
		if err := c.LoadPlan(g, partition.Layout{NumMachines: 3, Starts: starts}, nil); err == nil {
			t.Errorf("accepted starts %v", starts)
		}
	}
	if err := c.LoadPlan(g, partition.Layout{NumMachines: 3, Starts: []uint32{0, 30, 30, 64}}, nil); err != nil {
		t.Fatalf("refused a layout with an empty machine: %v", err)
	}
	dst, _ := c.AddPropI64("dst")
	src, _ := c.AddPropF64("src")
	if _, err := c.RunJob(JobSpec{Name: "count", Iter: IterOutEdges, Task: &pushOneTask{counter: dst},
		ReadProps: []PropID{src}, WriteProps: []WriteSpec{{Prop: dst, Op: reduce.Sum}}}); err != nil {
		t.Fatal(err)
	}
	if got := c.GatherI64(dst); !slices.Equal(got, refInDegree(g)) {
		t.Error("the job over a layout with an empty machine differs from the reference")
	}
}
