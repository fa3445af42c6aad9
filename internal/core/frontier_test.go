package core

import (
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/reduce"
)

// frontierMembers gathers the global ids of every member, via the bitmap (the
// representation-independent truth).
func frontierMembers(f *Frontier) []graph.NodeID {
	var out []graph.NodeID
	for mid, mf := range f.machines {
		for i := 0; i < mf.st.numLocal; i++ {
			if mf.has(uint32(i)) {
				out = append(out, f.c.layout.GlobalOf(mid, uint32(i)))
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// checkInvariants verifies each machine partition's representation
// invariants: count matches set bits, degree sums cover exactly the members,
// and when sparse the list is sorted, duplicate-free, and mirrors the bitmap.
func checkInvariants(t *testing.T, f *Frontier) {
	t.Helper()
	for mid, mf := range f.machines {
		count := 0
		var outDeg, inDeg int64
		for i := 0; i < mf.st.numLocal; i++ {
			if mf.has(uint32(i)) {
				count++
				outDeg += int64(mf.st.outDeg[i])
				inDeg += int64(mf.st.inDeg[i])
			}
		}
		if count != mf.count || outDeg != mf.outDegSum || inDeg != mf.inDegSum {
			t.Fatalf("machine %d: count/outDeg/inDeg %d/%d/%d, bitmap says %d/%d/%d",
				mid, mf.count, mf.outDegSum, mf.inDegSum, count, outDeg, inDeg)
		}
		if mf.dense {
			if len(mf.sparse) != 0 {
				t.Fatalf("machine %d: dense with %d-entry sparse list", mid, len(mf.sparse))
			}
			continue
		}
		if len(mf.sparse) != count {
			t.Fatalf("machine %d: sparse list %d entries, bitmap %d", mid, len(mf.sparse), count)
		}
		for i, v := range mf.sparse {
			if i > 0 && mf.sparse[i-1] >= v {
				t.Fatalf("machine %d: sparse list unsorted at %d: %d >= %d", mid, i, mf.sparse[i-1], v)
			}
			if !mf.has(v) {
				t.Fatalf("machine %d: sparse entry %d not in bitmap", mid, v)
			}
		}
	}
}

// TestFrontierSparseDenseFlip drives one machine partition across the density
// threshold and back: the flip must happen exactly at the threshold, drop the
// sparse list, and clear must return to sparse.
func TestFrontierSparseDenseFlip(t *testing.T) {
	g := testGraph(t)
	c := bootCluster(t, g, DefaultConfig(1))
	f := c.NewFrontier("flip")
	mf := f.machines[0]
	threshold := mf.st.numLocal / 32 // frontierDenseFraction
	if threshold < 2 {
		t.Fatalf("graph too small: threshold %d", threshold)
	}
	for i := 0; i < threshold-1; i++ {
		f.Add(graph.NodeID(i))
		f.Add(graph.NodeID(i)) // duplicate adds must be idempotent
	}
	if mf.dense {
		t.Fatalf("dense below threshold (%d of %d)", mf.count, threshold)
	}
	checkInvariants(t, f)
	f.Add(graph.NodeID(threshold - 1))
	if !mf.dense {
		t.Fatalf("still sparse at threshold %d", threshold)
	}
	checkInvariants(t, f)
	if got := f.Count(); got != int64(threshold) {
		t.Fatalf("count %d after flip, want %d", got, threshold)
	}
	f.Reset()
	if mf.dense || mf.count != 0 || f.Count() != 0 {
		t.Fatalf("reset left dense=%v count=%d", mf.dense, mf.count)
	}
	checkInvariants(t, f)
}

// TestFrontierFillSubtractRoundTrip exercises the driver-side mutators across
// machines: Fill with a predicate, Subtract an overlapping set (including the
// dense→sparse flip-back when a dense frontier shrinks), and membership
// round-trips through the hybrid representation.
func TestFrontierFillSubtractRoundTrip(t *testing.T) {
	g := testGraph(t)
	cfg := DefaultConfig(3)
	c := bootCluster(t, g, cfg)

	all := c.NewFrontier("all")
	all.Fill(nil) // dense everywhere
	for _, mf := range all.machines {
		if !mf.dense && mf.st.numLocal >= mf.denseThreshold {
			t.Fatal("full frontier not dense")
		}
	}
	odd := c.NewFrontier("odd")
	odd.Fill(func(v graph.NodeID) bool { return v%2 == 1 })
	checkInvariants(t, all)
	checkInvariants(t, odd)

	all.Subtract(odd)
	checkInvariants(t, all)
	want := int64(0)
	for v := 0; v < g.NumNodes(); v += 2 {
		want++
	}
	if got := all.Count(); got != want {
		t.Fatalf("after subtract: count %d, want %d", got, want)
	}
	for _, v := range frontierMembers(all) {
		if v%2 == 1 {
			t.Fatalf("odd node %d survived subtract", v)
		}
	}

	// Subtract down to a handful of members: every partition must flip back
	// to sparse (and stay consistent).
	evens := c.NewFrontier("evens")
	evens.Fill(func(v graph.NodeID) bool { return v%2 == 0 && v >= 16 })
	all.Subtract(evens)
	checkInvariants(t, all)
	members := frontierMembers(all)
	if len(members) != 8 {
		t.Fatalf("expected the 8 low even nodes, got %d members", len(members))
	}
	for mid, mf := range all.machines {
		if mf.dense && mf.count < mf.denseThreshold {
			t.Fatalf("machine %d still dense at %d members (threshold %d)", mid, mf.count, mf.denseThreshold)
		}
	}
	// Subtracting a disjoint (and an empty) frontier is a no-op.
	before := all.Count()
	all.Subtract(odd)
	empty := c.NewFrontier("empty")
	all.Subtract(empty)
	if all.Count() != before {
		t.Fatalf("disjoint/empty subtract changed count %d -> %d", before, all.Count())
	}
}

// activatePush pushes a fixed value into every out-neighbor with MIN; paired
// with WriteSpec.ActivateInto it must activate exactly the nodes whose stored
// word the reduction changed.
type activatePush struct {
	NoReads
	dst PropID
	val int64
}

func (k *activatePush) RunRows(c *Ctx, rows *Cursor) { perRow(c, rows, k.row) }

func (k *activatePush) row(c *Ctx, row Row) {
	for _, ref := range row.Refs {
		c.Writer(k.dst, reduce.Min).Write(ref, WordI64(k.val))
	}
}

// TestActivateIntoChangedOnly: a MIN push with ActivateInto activates exactly
// the improved nodes — across local, ghost, and remote write paths — and a
// second identical push activates nobody (nothing changes). Runs over both
// transports so the drain's activation path is exercised for real frames.
func TestActivateIntoChangedOnly(t *testing.T) {
	eachFabric(t, func(t *testing.T, useTCP bool) {
		g := faultGraph(t)
		cfg := faultCfg(3)
		cfg.Fabric = faultFabric(t, cfg, useTCP, comm.FaultPlan{})
		c := bootCluster(t, g, cfg)
		dst, err := c.AddPropI64("act_dst")
		if err != nil {
			t.Fatal(err)
		}
		c.FillI64(dst, math.MaxInt64)

		src := c.NewFrontier("act_src")
		next := c.NewFrontier("act_next")
		roots := []graph.NodeID{0, 1, 5, 9}
		rootSet := map[graph.NodeID]bool{}
		for _, v := range roots {
			src.Add(v)
			rootSet[v] = true
		}
		spec := JobSpec{
			Name:       "act-push",
			Iter:       IterOutEdges,
			Source:     src,
			Task:       &activatePush{dst: dst, val: 7},
			WriteProps: []WriteSpec{{Prop: dst, Op: reduce.Min, ActivateInto: 1}},
			Build:      []*Frontier{next},
		}
		st, err := c.RunJob(spec)
		if err != nil {
			t.Fatal(err)
		}
		wantSet := map[graph.NodeID]bool{}
		for _, r := range roots {
			for _, v := range g.Out.Neighbors(r) {
				wantSet[v] = true
			}
		}
		got := frontierMembers(next)
		if int64(len(wantSet)) != st.Frontiers[0].Count || len(got) != len(wantSet) {
			t.Fatalf("activated %d (stats %d), want %d", len(got), st.Frontiers[0].Count, len(wantSet))
		}
		for _, v := range got {
			if !wantSet[v] {
				t.Fatalf("node %d activated but no root points at it", v)
			}
		}
		checkInvariants(t, next)
		// Every activated node's value changed; everyone else's did not.
		vals := c.GatherI64(dst)
		for v, val := range vals {
			if wantSet[graph.NodeID(v)] != (val == 7) {
				t.Fatalf("node %d: value %d, in-frontier %v", v, val, wantSet[graph.NodeID(v)])
			}
		}
		// Second identical push: MIN(7, 7) changes nothing, so nothing may
		// activate — receiver-side change detection, not write detection.
		st, err = c.RunJob(spec)
		if err != nil {
			t.Fatal(err)
		}
		if st.Frontiers[0].Count != 0 || next.Count() != 0 {
			t.Fatalf("re-push activated %d nodes, want 0", st.Frontiers[0].Count)
		}
	})
}

// TestFrontierEmptyMachineSkip: a frontier whose members all live on one
// machine must still run collectives everywhere and produce correct results —
// machines with empty partitions skip chunk dispatch but not the protocol.
func TestFrontierEmptyMachineSkip(t *testing.T) {
	g := testGraph(t)
	cfg := DefaultConfig(3)
	c := bootCluster(t, g, cfg)
	dst, err := c.AddPropI64("skip_dst")
	if err != nil {
		t.Fatal(err)
	}
	c.FillI64(dst, math.MaxInt64)

	src := c.NewFrontier("skip_src")
	// All members on machine 0.
	mf0 := src.machines[0]
	var roots []graph.NodeID
	for i := 0; i < 4 && i < mf0.st.numLocal; i++ {
		v := c.layout.GlobalOf(0, uint32(i))
		src.Add(v)
		roots = append(roots, v)
	}
	for mid, mf := range src.machines {
		if mid != 0 && mf.count != 0 {
			t.Fatalf("machine %d unexpectedly has %d members", mid, mf.count)
		}
	}
	next := c.NewFrontier("skip_next")
	st, err := c.RunJob(JobSpec{
		Name:       "skip-push",
		Iter:       IterOutEdges,
		Source:     src,
		Task:       &activatePush{dst: dst, val: 3},
		WriteProps: []WriteSpec{{Prop: dst, Op: reduce.Min, ActivateInto: 1}},
		Build:      []*Frontier{next},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantSet := map[graph.NodeID]bool{}
	for _, r := range roots {
		for _, v := range g.Out.Neighbors(r) {
			wantSet[v] = true
		}
	}
	if st.Frontiers[0].Count != int64(len(wantSet)) {
		t.Fatalf("activated %d, want %d", st.Frontiers[0].Count, len(wantSet))
	}
	vals := c.GatherI64(dst)
	for v := range vals {
		want := int64(math.MaxInt64)
		if wantSet[graph.NodeID(v)] {
			want = 3
		}
		if vals[v] != want {
			t.Fatalf("node %d: value %d, want %d", v, vals[v], want)
		}
	}
}

// TestStaleFrontierRefused: a frontier indexes the local numbering of the load
// it was built over — sourced after a reload of a smaller graph, a sparse one
// would send a worker past the new rows and a dense one would run the wrong
// nodes — so RunJob refuses a frontier from an earlier load as a Source or a
// Build slot, and one built over the new load runs exactly.
func TestStaleFrontierRefused(t *testing.T) {
	big, err := graph.RMAT(10, 8, graph.TwitterLike(), 1)
	if err != nil {
		t.Fatal(err)
	}
	small, err := graph.RMAT(6, 8, graph.TwitterLike(), 1)
	if err != nil {
		t.Fatal(err)
	}
	c := bootCluster(t, big, DefaultConfig(2))
	sparse := c.NewFrontier("sparse")
	sparse.Add(graph.NodeID(big.NumNodes() - 1))
	dense := c.NewFrontier("dense")
	dense.Fill(nil)
	if err := c.Load(small); err != nil {
		t.Fatal(err)
	}
	counter, _ := c.AddPropI64("counter")
	spec := JobSpec{Name: "push", Iter: IterOutEdges, Task: &pushOneTask{counter: counter},
		WriteProps: []WriteSpec{{Prop: counter, Op: reduce.Sum}}}
	for _, f := range []*Frontier{sparse, dense} {
		source, build := spec, spec
		source.Source, build.Build = f, []*Frontier{f}
		for _, stale := range []JobSpec{source, build} {
			if _, err := c.RunJob(stale); err == nil || !strings.Contains(err.Error(), "earlier load") {
				t.Errorf("frontier %q of the earlier load: RunJob = %v, want a refusal", f.name, err)
			}
		}
	}
	c.FillI64(counter, 0)
	spec.Source = c.NewFrontier("fresh")
	spec.Source.Fill(nil)
	if _, err := c.RunJob(spec); err != nil {
		t.Fatal(err)
	}
	if got := c.GatherI64(counter); !slices.Equal(got, refInDegree(small)) {
		t.Error("the job over a frontier of the new load differs from the reference")
	}
}
