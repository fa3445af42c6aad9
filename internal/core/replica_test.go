package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/store"
)

// refRecorder is a pull-sum that records every row it is handed, by machine,
// orientation and node, before it reads the row through the view and ReadRef.
type refRecorder struct {
	RowOnly
	src, dst PropID
	rows     [][2][][]int64
}

func (k *refRecorder) RunRow(c *Ctx, row Row) {
	o := store.OrientOut
	if c.w.job.spec.Iter == IterInEdges || row.second {
		o = store.OrientIn
	}
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
// job the set does not serve — leads back to the ref buildLocalCSR writes: an
// owned index is itself, a replica's slot lies inside the set and its address
// is the raw ref, and a packed ref is the raw ref and, once the set exists, no
// member. A store load's rows, read as they lie in the file before any job,
// lead back the same way. Every sum is exact, so the view read each replica's
// owner's word; and the sparse job read every remote neighbour of its members,
// replica refs among them, on demand.
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
				for _, k := range []int{0, 1, 8} {
					where := fmt.Sprintf("seed %d p=%d %s cap=%d", seed, p, load, k)
					cfg := DefaultConfig(p)
					cfg.GhostCount = k // store-file loads ignore it
					cfg.Obs = obs.NewRegistry()
					var c *Cluster
					if load == "memory" {
						c = bootCluster(t, g, cfg)
					} else {
						c = bootStore(t, paths[load], cfg)
					}
					mirrored, sparse := roundTripLoad(t, where, c, g, vals, load == "memory")
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

// roundTripLoad runs TestResolvedRowsRoundTrip's jobs on one loaded cluster and
// returns how many replica refs the mirrored jobs and the sparse one were handed.
func roundTripLoad(t *testing.T, where string, c *Cluster, g *graph.Graph, vals []float64, inMemory bool) (mirroredReplicas, sparseReplicas int) {
	t.Helper()
	src, _ := c.AddPropF64("src")
	dst, _ := c.AddPropF64("dst")
	c.FillByNodeF64(src, func(v graph.NodeID) float64 { return vals[v] })
	raw := make([][2]orientView, len(c.machines))
	for _, m := range c.machines {
		raw[m.id] = buildLocalStore(g, c.layout, m.id).views
		if !inMemory {
			storeRowsLeadBack(t, where, c, m, raw[m.id])
		}
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
							if set == nil || slot >= len(set.addr) {
								t.Fatalf("%s %s: machine %d holds replica ref %d past the set's slots", where, spec.Name, m.id, ref)
							}
							back, replicas = set.addr[slot], replicas+1
						case set != nil:
							if mach, off := unpackRemote(ref); set.peers[mach].slot(off) >= 0 {
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
	if got := jobCounter(c.Obs(), "reads_served", served+remote) - served; got != remote {
		t.Fatalf("%s: the sparse job had %d reads served, want its members' %d remote refs", where, got, remote)
	}
	return mirroredReplicas, sparseReplicas
}

// storeRowsLeadBack reads machine m's rows of a store load as they lie in the
// file — the views' refs, or a cursor's rows on a compressed load — and checks
// that every ref, mapped back through the load's remote set, is the ref
// buildLocalCSR writes (raw) for the same edge.
func storeRowsLeadBack(t *testing.T, where string, c *Cluster, m *Machine, raw [2]orientView) {
	t.Helper()
	st := m.store
	for o := range st.views {
		v, rv := &st.views[o], &raw[o]
		cur := c.ooc.Cursor(m.id, o)
		for node := 0; node < st.numLocal; node++ {
			row := v.refs
			if row == nil {
				var err error
				if row, err = cur.Row(int64(node)); err != nil {
					t.Fatal(err)
				}
			} else {
				row = row[v.rows[node]:v.rows[node+1]]
			}
			want := rv.refs[rv.rows[node]:rv.rows[node+1]]
			for i, ref := range row {
				back := ref
				if ref < 0 {
					t.Fatalf("%s: machine %d orientation %d node %d holds packed ref %d in the file", where, m.id, o, node, ref)
				} else if !st.owns(ref) {
					back = st.remote.addr[ref-int64(st.numLocal)]
				}
				if back != want[i] {
					t.Fatalf("%s: machine %d orientation %d node %d ref %d: %d leads back to %d, want %d", where, m.id, o, node, i, ref, back, want[i])
				}
			}
		}
		cur.Release()
	}
}

// TestStoreRemoteSetMatchesLoad: the remote set a store load reads off its
// file — no row read — is the set an in-memory load of the same cut builds by
// scanning its rows at GhostCount 0, field for field (slot addresses, per-owner
// bitmaps, ranks and bases, every iterator's members, size, refs and edges),
// and a raw section's refs are the in-memory rows after their rewrite, ref for
// ref; a compressed section's rows, decoded, are too. Two to four machines,
// both encodings, weighted and not.
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
			for _, m := range mem.machines {
				m.store.remote = m.buildRemoteSet(m.newJobRuntime(&JobSpec{Iter: IterOutEdges, Task: &pushOneTask{}}, 0))
			}
			for format, path := range map[string]string{"csr2": storePath(t, g, p), "csr3": storePath3(t, g, p)} {
				where := fmt.Sprintf("weighted=%v p=%d %s", weighted, p, format)
				c := bootStore(t, path, DefaultConfig(p))
				for _, m := range c.machines {
					want, got := mem.machines[m.id].store, m.store
					if !reflect.DeepEqual(got.remote, want.remote) {
						t.Fatalf("%s machine %d: the store load's remote set differs from the in-memory load's: %d vs %d slots, iterator sizes %v vs %v",
							where, m.id, len(got.remote.addr), len(want.remote.addr), iterSizes(got.remote), iterSizes(want.remote))
					}
					for o := range got.views {
						refs := got.views[o].refs
						if refs == nil { // compressed: decode the rows
							cur := c.ooc.Cursor(m.id, o)
							for node := 0; node < got.numLocal; node++ {
								row, err := cur.Row(int64(node))
								if err != nil {
									t.Fatal(err)
								}
								refs = append(refs, row...)
							}
							cur.Release()
						}
						if !slices.Equal(refs, want.views[o].refs) {
							t.Fatalf("%s machine %d orientation %d: the section's refs differ from the rewritten in-memory rows", where, m.id, o)
						}
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
