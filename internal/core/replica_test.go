package core

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/store"
)

// refRecorder is a pull-sum that records every row it is handed, by machine,
// orientation and node, before it reads the row through the view and ReadRef.
// Aux, zeroed by the engine before a node's first row, counts the node's rows
// handed so far: the second row of an IterBothEdges node is its in-row.
type refRecorder struct {
	src, dst PropID
	rows     [][2][][]int64
}

func (k *refRecorder) RunRows(c *Ctx, rows *Cursor) { perRow(c, rows, k.row) }

func (k *refRecorder) row(c *Ctx, row Row) {
	o := store.OrientOut
	if c.w.job.spec.Iter == IterInEdges || c.Aux == 1 {
		o = store.OrientIn
	}
	c.Aux++
	k.rows[c.Machine()][o][c.Node] = slices.Clone(row.Refs)
	src := c.F64(k.src)
	var sum float64
	for _, ref := range row.Refs {
		if v, ok := src.At(ref); ok {
			sum += v
		} else {
			c.ReadRef(ref, k.src)
		}
	}
	c.SetF64(k.dst, c.GetF64(k.dst)+sum)
}

func (k *refRecorder) ReadDone(c *Ctx, val uint64) {
	c.SetF64(k.dst, c.GetF64(k.dst)+F64Word(val))
}

// TestResolvedRowsRoundTrip: over seeded random graphs cut two to four ways,
// with the remote set uncapped and capped at the top 1 and 8 vertices, loaded
// from memory, a raw store file and a compressed one, every ref a kernel is
// handed — in a mirrored job over each edge iterator, and in a sparse-frontier
// job the set does not serve — leads back to the ref packedViews writes: an
// owned index is itself, a replica's slot lies inside the set and its address
// is the packed ref, and a packed ref is the packed ref and no member. Every
// load's rows, read as they lie before any job, lead back the same way. Every
// sum is exact, so the view read each replica's owner's word; and the sparse
// job read every remote neighbour of its members, replica refs among them, on
// demand.
func TestResolvedRowsRoundTrip(t *testing.T) {
	seen := map[string][2]int{} // by load: replica refs handed to mirrored and to sparse jobs
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var g *graph.Graph
		var err error
		if n := 256 + rng.Intn(384); seed%2 == 0 {
			g, err = graph.Uniform(n, n*(2+rng.Intn(4)), seed)
		} else {
			g, err = graph.RMAT(8+rng.Intn(2), 4+rng.Intn(6), graph.TwitterLike(), seed)
		}
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]float64, g.NumNodes())
		for v := range vals {
			vals[v] = float64(v%97 + 1)
		}
		for p := 2; p <= 4; p++ {
			paths := map[string]string{"memory": "", "csr2": storePath(t, g, p), "csr3": storePath3(t, g, p)}
			for _, load := range []string{"memory", "csr2", "csr3"} {
				// An in-memory load uncapped and capped; a store file's numbering is its set.
				caps := []*partition.GhostSet{nil}
				if load == "memory" {
					caps = append(caps, partition.SelectTopGhosts(g, 1), partition.SelectTopGhosts(g, 8))
				}
				for _, ghosts := range caps {
					where := fmt.Sprintf("seed %d p=%d %s cap=%s", seed, p, load, capLabel(ghosts))
					cfg := DefaultConfig(p)
					cfg.Obs = obs.NewRegistry()
					var c *Cluster
					if load == "memory" {
						c = bootGhosts(t, g, cfg, ghosts)
					} else {
						c = bootStore(t, paths[load], cfg)
					}
					mirrored, sparse := roundTripLoad(t, where, c, g, vals)
					seen[load] = [2]int{seen[load][0] + mirrored, seen[load][1] + sparse}
					c.Shutdown()
				}
			}
		}
	}
	// The paths the test is about were taken: on every load, mirrored jobs read
	// replica refs and the sparse job read some on demand.
	for load, n := range seen {
		if n[0] == 0 || n[1] == 0 {
			t.Errorf("%s: the mirrored jobs were handed %d replica refs, the sparse ones %d", load, n[0], n[1])
		}
	}
}

// capLabel names a load's replica cap: "all" for none, else the set's size.
func capLabel(ghosts *partition.GhostSet) string {
	if ghosts == nil {
		return "all"
	}
	return fmt.Sprint(len(ghosts.Nodes))
}

// roundTripLoad runs TestResolvedRowsRoundTrip's jobs on one loaded cluster and
// returns how many replica refs the mirrored jobs and the sparse one were handed.
func roundTripLoad(t *testing.T, where string, c *Cluster, g *graph.Graph, vals []float64) (mirroredReplicas, sparseReplicas int) {
	t.Helper()
	src, _ := c.AddPropF64("src")
	dst, _ := c.AddPropF64("dst")
	c.FillByNodeF64(src, func(v graph.NodeID) float64 { return vals[v] })
	raw := make([][2]orientView, len(c.machines))
	for _, m := range c.machines {
		raw[m.id] = packedViews(g, c.layout, m.id)
		rowsLeadBack(t, where, c, m, raw[m.id])
	}
	// run runs one recorded job and checks what its kernel was handed, and its
	// sums, on every node it iterated.
	run := func(spec JobSpec, nodes func(m *Machine) []uint32) (replicas int) {
		t.Helper()
		rec := &refRecorder{src: src, dst: dst, rows: make([][2][][]int64, len(c.machines))}
		for _, m := range c.machines {
			for o := range rec.rows[m.id] {
				rec.rows[m.id][o] = make([][]int64, m.store.numLocal)
			}
		}
		c.FillF64(dst, 0)
		spec.Task, spec.ReadProps = rec, []PropID{src}
		if _, err := c.RunJob(spec); err != nil {
			t.Fatalf("%s %s: %v", where, spec.Name, err)
		}
		sums := c.GatherF64(dst)
		span := iterViews[spec.Iter]
		for _, m := range c.machines {
			set := m.store.remote
			for _, node := range nodes(m) {
				v, want := m.store.globalOf(node), 0.0
				for o := span[0]; o < span[1]; o++ {
					rv := &raw[m.id][o]
					got, rawRow := rec.rows[m.id][o][node], rv.refs[rv.rows[node]:rv.rows[node+1]]
					if len(got) != len(rawRow) {
						t.Fatalf("%s %s: machine %d node %d orientation %d: %d refs, want %d", where, spec.Name, m.id, node, o, len(got), len(rawRow))
					}
					for i, ref := range got {
						back := ref
						switch {
						case m.store.owns(ref):
						case ref >= 0:
							slot := int(ref) - m.store.numLocal
							if slot >= len(set.addr) {
								t.Fatalf("%s %s: machine %d holds replica ref %d past the set's slots", where, spec.Name, m.id, ref)
							}
							back, replicas = set.addr[slot], replicas+1
						default:
							if mach, off := store.UnpackRef(ref); slotOf(set, mach, off) >= 0 {
								t.Fatalf("%s %s: machine %d was handed member (%d, %d) packed in a resolved row", where, spec.Name, m.id, mach, off)
							}
						}
						if back != rawRow[i] {
							t.Fatalf("%s %s: machine %d node %d orientation %d ref %d: %d leads back to %d, want %d", where, spec.Name, m.id, node, o, i, ref, back, rawRow[i])
						}
					}
					nbrs := g.Out.Neighbors(v)
					if o == store.OrientIn {
						nbrs = g.In.Neighbors(v)
					}
					for _, u := range nbrs {
						want += vals[u]
					}
				}
				if sums[v] != want {
					t.Fatalf("%s %s: node %d summed %g, want %g", where, spec.Name, v, sums[v], want)
				}
			}
		}
		return replicas
	}
	all := func(m *Machine) []uint32 {
		nodes := make([]uint32, m.store.numLocal)
		for i := range nodes {
			nodes[i] = uint32(i)
		}
		return nodes
	}
	for it := IterOutEdges; it <= IterBothEdges; it++ {
		mirroredReplicas += run(JobSpec{Name: "mirrored-" + it.String(), Iter: it}, all)
	}

	// One member per machine with room for a sparse frontier: its in-row is
	// read on demand, through the set's addresses where it holds replica refs.
	front := c.NewFrontier("one")
	members := make([][]uint32, len(c.machines))
	var remote int64
	for _, m := range c.machines {
		if m.store.numLocal < 64 {
			continue
		}
		rv := &raw[m.id][store.OrientIn]
		for node := uint32(0); int(node) < m.store.numLocal; node++ {
			n := int64(0) // the row's remote refs, packed as loaded
			for _, ref := range rv.refs[rv.rows[node]:rv.rows[node+1]] {
				if ref < 0 {
					n++
				}
			}
			if n > 0 {
				members[m.id], remote = []uint32{node}, remote+n
				front.Add(m.store.globalOf(node))
				break
			}
		}
		if front.machines[m.id].dense {
			t.Fatalf("%s: machine %d's one-member frontier is dense", where, m.id)
		}
	}
	served := c.Obs().LifetimeCounters()["reads_served"]
	sparseReplicas = run(JobSpec{Name: "sparse", Iter: IterInEdges, Source: front}, func(m *Machine) []uint32 { return members[m.id] })
	if got := c.Obs().LifetimeCounters()["reads_served"] - served; got != remote {
		t.Fatalf("%s: the sparse job had %d reads served, want its members' %d remote refs", where, got, remote)
	}
	return mirroredReplicas, sparseReplicas
}

// rowsLeadBack reads machine m's rows as the load installed them — the views'
// refs, or a cursor's rows on a compressed store load — and checks that every
// ref, mapped back through the load's remote set, is the ref packedViews writes
// (raw) for the same edge, and that a packed ref is left only where the set
// does not hold the node.
func rowsLeadBack(t *testing.T, where string, c *Cluster, m *Machine, raw [2]orientView) {
	t.Helper()
	st := m.store
	for o := range st.views {
		rv := &raw[o]
		for node, refs := range loadedRows(t, c, m, o) {
			want := rv.refs[rv.rows[node]:rv.rows[node+1]]
			for i, ref := range refs {
				back := ref
				switch {
				case ref < 0:
					if mach, off := store.UnpackRef(ref); slotOf(st.remote, mach, off) >= 0 {
						t.Fatalf("%s: machine %d orientation %d node %d holds member (%d, %d) packed", where, m.id, o, node, mach, off)
					}
				case !st.owns(ref):
					back = st.remote.addr[ref-int64(st.numLocal)]
				}
				if back != want[i] {
					t.Fatalf("%s: machine %d orientation %d node %d ref %d: %d leads back to %d, want %d", where, m.id, o, node, i, ref, back, want[i])
				}
			}
		}
	}
}

// loadedRows returns machine m's rows of orientation o as the load installed
// them: views of the refs, or on a compressed store load each row decoded.
func loadedRows(t *testing.T, c *Cluster, m *Machine, o int) [][]int64 {
	t.Helper()
	v, rows := &m.store.views[o], make([][]int64, m.store.numLocal)
	var cur store.Cursor
	if v.refs == nil {
		cur = c.ooc.Cursor(m.id, o)
		defer cur.Release()
	}
	for node := range rows {
		if v.refs != nil {
			rows[node] = v.refs[v.rows[node]:v.rows[node+1]]
			continue
		}
		row, err := cur.Row(int64(node))
		if err != nil {
			t.Fatal(err)
		}
		rows[node] = slices.Clone(row)
	}
	return rows
}

// packedViews is the test's oracle of machine me's rows before any numbering:
// both orientations of its partition of g, rebased to local indexing, with
// every remote neighbour a packed ref and the weights alongside.
func packedViews(g *graph.Graph, layout partition.Layout, me int) [2]orientView {
	lo, hi := layout.Range(me)
	var views [2]orientView
	for o, csr := range [2]*graph.CSR{&g.Out, &g.In} {
		base := csr.Rows[lo]
		rows := make([]int64, hi-lo+1)
		for u := range rows {
			rows[u] = csr.Rows[int(lo)+u] - base
		}
		m := rows[len(rows)-1]
		refs := make([]int64, m)
		for i := range refs {
			if v := csr.Cols[base+int64(i)]; v >= lo && v < hi {
				refs[i] = int64(v - lo)
			} else {
				refs[i] = RemoteRef(layout.Owner(v), layout.LocalOffset(v))
			}
		}
		var weights []float64
		if csr.Weights != nil {
			weights = slices.Clone(csr.Weights[base : base+m])
		}
		views[o] = orientView{rows: rows, refs: refs, weights: weights, orient: o}
	}
	return views
}

// slotOf returns the slot set holds (mach, off) in, or -1 when it does not.
func slotOf(set *remoteSet, mach int, off uint32) int {
	lo := set.base[mach]
	i, ok := slices.BinarySearchFunc(set.addr[lo:set.base[mach+1]], off, func(a int64, off uint32) int {
		_, o := store.UnpackRef(a)
		return cmp.Compare(o, off)
	})
	if !ok {
		return -1
	}
	return lo + i
}

// TestRemoteSetMatchesOracle: every load's section — in memory uncapped and
// capped at the top 0 (the empty ghost set: no slot on any machine, every
// remote ref packed), 1 and 8 vertices, a raw and a compressed store file (the
// first four seeds: both generators, weighted and not) — over seeded random
// graphs cut two to four ways, weighted and not, equals a
// brute-force oracle built from the global graph, straight after the load and
// before any job: rows, refs already numbered (a member of either orientation
// by replica ref, every other remote neighbour packed), weights, the slot →
// address table, both orientations' slot bitmaps and replica counts. The set
// the engine derives from it holds each owner's slots from its base, per
// iterator the members (their union for both edges) with exact size, refs and
// edges, and a worker's share of an owner's slots visits them in order. A heap
// section keeps the rules Open enforces on a file: addresses strictly
// ascending, none naming its own machine, every slot referenced, every ref
// below numLocal + S.
func TestRemoteSetMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var g *graph.Graph
		var err error
		if n := 50 + rng.Intn(400); seed%2 == 0 {
			g, err = graph.Uniform(n, n*(1+rng.Intn(6)), seed)
		} else {
			g, err = graph.RMAT(6+rng.Intn(4), 4+rng.Intn(8), graph.TwitterLike(), seed)
		}
		if err != nil {
			t.Fatal(err)
		}
		if seed%4 >= 2 {
			g = g.WithUniformWeights(0.5, 2, seed)
		}
		// Vertices by max(in, out) degree, ties toward the lower id; isolated
		// ones never count.
		ranked := make([]graph.NodeID, 0, g.NumNodes())
		deg := func(v graph.NodeID) int64 { return max(g.InDegree(v), g.OutDegree(v)) }
		for v := 0; v < g.NumNodes(); v++ {
			if deg(graph.NodeID(v)) > 0 {
				ranked = append(ranked, graph.NodeID(v))
			}
		}
		sort.SliceStable(ranked, func(i, j int) bool { return deg(ranked[i]) > deg(ranked[j]) })
		for p := 2; p <= 4; p++ {
			type load struct {
				name   string
				capped bool // the remote sets hold only the top k vertices (partition.SelectTopGhosts)
				k      int
				path   string
			}
			loads := []load{{"memory", false, 0, ""}, {"memory", true, 0, ""}, {"memory", true, 1, ""}, {"memory", true, 8, ""}}
			if seed <= 4 { // both generators, weighted and not: the files' syncs are this test's time
				loads = append(loads, load{"csr2", false, 0, storePath(t, g, p)}, load{"csr3", false, 0, storePath3(t, g, p)})
			}
			for _, ld := range loads {
				cfg := DefaultConfig(p)
				var ghosts *partition.GhostSet
				if ld.capped {
					ghosts = partition.SelectTopGhosts(g, ld.k)
				}
				var c *Cluster
				if ld.path == "" {
					c = bootGhosts(t, g, cfg, ghosts)
				} else {
					c = bootStore(t, ld.path, cfg)
				}
				keep := map[graph.NodeID]bool{}
				for _, v := range ranked[:min(ld.k, len(ranked))] {
					keep[v] = true
				}
				for _, m := range c.machines {
					where := fmt.Sprintf("seed %d p=%d %s cap=%s machine %d", seed, p, ld.name, capLabel(ghosts), m.id)
					want := sectionOracle(g, c.layout, m.id, func(v graph.NodeID) bool { return !ld.capped || keep[v] })
					checkSectionRules(t, where, c.layout, m.id, want)
					checkLoadedSection(t, where, c, m, want, ld.capped)
					if ld.capped && ld.k == 0 {
						emptySetLoad(t, where, m)
					}
				}
				c.Shutdown()
			}
		}
	}
}

// emptySetLoad checks machine m of an in-memory load under the empty ghost set:
// no slot, and every remote ref in its rows packed.
func emptySetLoad(t *testing.T, where string, m *Machine) {
	t.Helper()
	if n := len(m.store.remote.addr); n != 0 {
		t.Fatalf("%s: the empty ghost set left %d slots", where, n)
	}
	for o, v := range m.store.views {
		for _, ref := range v.refs {
			if ref >= int64(m.store.numLocal) {
				t.Fatalf("%s: orientation %d holds replica ref %d", where, o, ref)
			}
		}
	}
}

// TestStoreRemoteSetMatchesLoad: the section a store load reads off its file —
// no row read — is the section an uncapped in-memory load of the same cut
// installs, field for field: the remote set (slot addresses, per-owner
// bases, every iterator's members, size, refs and edges), and per orientation
// the rows, refs and weights; a compressed section's rows, decoded, are too.
// Two to four machines, both encodings, weighted and not.
func TestStoreRemoteSetMatchesLoad(t *testing.T) {
	base, err := graph.RMAT(10, 8, graph.TwitterLike(), 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, weighted := range []bool{false, true} {
		g := base
		if weighted {
			g = base.WithUniformWeights(0.5, 2, 7)
		}
		for p := 2; p <= 4; p++ {
			mem := bootCluster(t, g, DefaultConfig(p))
			for format, path := range map[string]string{"csr2": storePath(t, g, p), "csr3": storePath3(t, g, p)} {
				c := bootStore(t, path, DefaultConfig(p))
				for _, m := range c.machines {
					where := fmt.Sprintf("weighted=%v p=%d %s machine %d", weighted, p, format, m.id)
					want, got := mem.machines[m.id].store, m.store
					if !reflect.DeepEqual(got.remote, want.remote) {
						t.Fatalf("%s: the store load's remote set differs from the in-memory load's: %d vs %d slots, iterator sizes %v vs %v",
							where, len(got.remote.addr), len(want.remote.addr), iterSizes(got.remote), iterSizes(want.remote))
					}
					for o := range got.views {
						what := fmt.Sprintf("orientation %d", o)
						sameSlices(t, where, what+" rows", got.views[o].rows, want.views[o].rows)
						sameSlices(t, where, what+" refs", slices.Concat(loadedRows(t, c, m, o)...), want.views[o].refs)
						sameSlices(t, where, what+" weights", got.views[o].weights, want.views[o].weights)
					}
				}
				c.Shutdown()
			}
			mem.Shutdown()
		}
	}
}

// iterSizes returns a remote set's member count per edge iterator.
func iterSizes(s *remoteSet) [3]int {
	return [3]int{s.iters[IterOutEdges].size, s.iters[IterInEdges].size, s.iters[IterBothEdges].size}
}

// sectionOracle is machine me's section of g by brute force: the members are
// the distinct remote neighbours of either orientation that member accepts,
// numbered by ascending global id.
func sectionOracle(g *graph.Graph, layout partition.Layout, me int, member func(graph.NodeID) bool) store.Section {
	lo, hi := layout.Range(me)
	slot := map[graph.NodeID]int{}
	var ids []graph.NodeID
	for _, csr := range []*graph.CSR{&g.Out, &g.In} {
		for _, v := range csr.Cols[csr.Rows[lo]:csr.Rows[hi]] {
			if _, ok := slot[v]; !ok && (v < lo || v >= hi) && member(v) {
				slot[v] = 0
				ids = append(ids, v)
			}
		}
	}
	slices.Sort(ids)
	var sec store.Section
	for s, v := range ids {
		slot[v] = s
		sec.Addr = append(sec.Addr, RemoteRef(layout.Owner(v), layout.LocalOffset(v)))
	}
	numLocal := int64(hi - lo)
	views := packedViews(g, layout, me)
	var slots [2][]uint64
	var replicas [2]int64
	for o := range views {
		slots[o] = make([]uint64, (len(ids)+63)/64)
		for i, ref := range views[o].refs {
			if ref >= 0 {
				continue
			}
			mach, off := store.UnpackRef(ref)
			if s, ok := slot[layout.GlobalOf(mach, off)]; ok {
				views[o].refs[i] = numLocal + int64(s)
				slots[o][s>>6] |= 1 << (s & 63)
				replicas[o]++
			}
		}
	}
	out, in := views[store.OrientOut], views[store.OrientIn]
	sec.OutRows, sec.OutRefs, sec.OutWeights, sec.OutSlots, sec.OutReplicas = out.rows, out.refs, out.weights, slots[0], replicas[0]
	sec.InRows, sec.InRefs, sec.InWeights, sec.InSlots, sec.InReplicas = in.rows, in.refs, in.weights, slots[1], replicas[1]
	return sec
}

// checkSectionRules holds sec, machine me's, to the rules Open enforces on a
// file's.
func checkSectionRules(t *testing.T, where string, layout partition.Layout, me int, sec store.Section) {
	t.Helper()
	numLocal, S := int64(layout.NumLocal(me)), len(sec.Addr)
	for s, a := range sec.Addr {
		mach, _ := store.UnpackRef(a)
		switch {
		case mach == me:
			t.Fatalf("%s: slot %d names this machine", where, s)
		case s > 0 && ^a <= ^sec.Addr[s-1]:
			t.Fatalf("%s: slot %d does not ascend", where, s)
		case (sec.OutSlots[s>>6]|sec.InSlots[s>>6])>>(s&63)&1 == 0:
			t.Fatalf("%s: slot %d is named by no ref", where, s)
		}
	}
	for _, refs := range [][]int64{sec.OutRefs, sec.InRefs} {
		for _, ref := range refs {
			if ref >= numLocal+int64(S) {
				t.Fatalf("%s: ref %d past numLocal + S = %d", where, ref, numLocal+int64(S))
			}
		}
	}
}

// checkLoadedSection compares what machine m's load installed with want, the
// oracle's section, and the remote set derived from it with want's members;
// capped says a ghost set may have left packed refs in the rows.
func checkLoadedSection(t *testing.T, where string, c *Cluster, m *Machine, want store.Section, capped bool) {
	t.Helper()
	st, set := m.store, m.store.remote
	got := store.Section{
		OutRows: st.views[store.OrientOut].rows, OutRefs: slices.Concat(loadedRows(t, c, m, store.OrientOut)...), OutWeights: st.views[store.OrientOut].weights,
		InRows: st.views[store.OrientIn].rows, InRefs: slices.Concat(loadedRows(t, c, m, store.OrientIn)...), InWeights: st.views[store.OrientIn].weights,
		Addr: set.addr, OutSlots: set.iters[IterOutEdges].slots, InSlots: set.iters[IterInEdges].slots,
		OutReplicas: set.iters[IterOutEdges].refs, InReplicas: set.iters[IterInEdges].refs,
	}
	sameSlices(t, where, "out rows", got.OutRows, want.OutRows)
	sameSlices(t, where, "out refs", got.OutRefs, want.OutRefs)
	sameSlices(t, where, "out weights", got.OutWeights, want.OutWeights)
	sameSlices(t, where, "in rows", got.InRows, want.InRows)
	sameSlices(t, where, "in refs", got.InRefs, want.InRefs)
	sameSlices(t, where, "in weights", got.InWeights, want.InWeights)
	sameSlices(t, where, "addr", got.Addr, want.Addr)
	sameSlices(t, where, "out slots", got.OutSlots, want.OutSlots)
	sameSlices(t, where, "in slots", got.InSlots, want.InSlots)
	sameSlices(t, where, "replica counts", []int64{got.OutReplicas, got.InReplicas}, []int64{want.OutReplicas, want.InReplicas})
	// The rows come numbered before any job: replica refs wherever the set
	// has members, and a packed ref only where a cap left a node out.
	var replicas, packed int
	for _, ref := range slices.Concat(got.OutRefs, got.InRefs) {
		if ref >= int64(st.numLocal) {
			replicas++
		} else if ref < 0 {
			packed++
		}
	}
	if len(set.addr) > 0 && replicas == 0 || !capped && packed > 0 {
		t.Fatalf("%s: %d slots, and the rows hold %d replica and %d packed refs", where, len(set.addr), replicas, packed)
	}
	wantBase := make([]int, c.layout.NumMachines+1)
	for _, a := range want.Addr {
		mach, _ := store.UnpackRef(a)
		wantBase[mach+1]++
	}
	for d := range c.layout.NumMachines {
		wantBase[d+1] += wantBase[d]
	}
	if !slices.Equal(set.base, wantBase) {
		t.Fatalf("%s: owners' slot bases %v, want %v", where, set.base, wantBase)
	}
	numLocal := int64(st.numLocal)
	edges := [2]int64{want.OutRows[numLocal], want.InRows[numLocal]}
	var both []uint64
	for w := range want.OutSlots {
		both = append(both, want.OutSlots[w]|want.InSlots[w])
	}
	for it, is := range map[IterKind]struct {
		slots       []uint64
		refs, edges int64
	}{
		IterOutEdges:  {want.OutSlots, want.OutReplicas, edges[0]},
		IterInEdges:   {want.InSlots, want.InReplicas, edges[1]},
		IterBothEdges: {both, want.OutReplicas + want.InReplicas, edges[0] + edges[1]},
	} {
		members := 0
		for _, w := range is.slots {
			members += bits.OnesCount64(w)
		}
		sameSlices(t, where, it.String()+" slots", set.iters[it].slots, is.slots)
		if g := &set.iters[it]; g.size != members || g.refs != is.refs || g.edges != is.edges {
			t.Fatalf("%s %v: size/refs/edges = %d/%d/%d, want %d/%d/%d", where, it, g.size, g.refs, g.edges, members, is.refs, is.edges)
		}
		// Three workers' shares of each owner's slots visit exactly its members of this iterator, in slot order.
		for d := 0; d < c.layout.NumMachines; d++ {
			var wantSlots, gotSlots []int
			for s, a := range want.Addr {
				if mach, _ := store.UnpackRef(a); mach == d && is.slots[s>>6]>>(s&63)&1 != 0 {
					wantSlots = append(wantSlots, s)
				}
			}
			lo, span := set.base[d], set.base[d+1]-set.base[d]
			for w := 0; w < 3; w++ {
				eachSlot(set.iters[it].slots, lo+span*w/3, lo+span*(w+1)/3, func(s int) { gotSlots = append(gotSlots, s) })
			}
			if !slices.Equal(gotSlots, wantSlots) {
				t.Fatalf("%s %v: owner %d's shares visited slots %v, its members are %v", where, it, d, gotSlots, wantSlots)
			}
		}
	}
}

// sameSlices fails the test when got and want differ; nil and empty are equal.
func sameSlices[T comparable](t *testing.T, where, what string, got, want []T) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("%s: %s differ from the oracle's", where, what)
	}
}
