package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/graph"
	"repro/internal/store"
)

// rowVisit is one row a cursor handed orderProbe: the node, the orientation
// of the view it came from, its length, and Ctx.Aux as the row began.
type rowVisit struct {
	node   uint32
	orient int
	n      int
	aux    uint64
}

// cursorOrient is the orientation (store.OrientOut/OrientIn) of the row the
// cursor is at.
func cursorOrient(r *Cursor) int {
	if r.sliced {
		return r.dense[r.side].orient
	}
	return r.views[r.view].orient
}

// orderProbe records every row its machine's (single) worker is handed, in
// order, and marks each row in Aux; inside a row it reads every neighbor the
// view does not hold, and after the row's loop — the fold — it checks that
// Node and Aux are the row's again, whatever continuations ran meanwhile.
type orderProbe struct {
	val       PropID
	seq       [][]rowVisit // per machine
	inRow     []bool       // per machine: inside a row's loop
	reentered []int        // per machine: continuations run inside a row
	badFold   []int        // per machine: rows whose fold saw another Node or Aux
}

func newOrderProbe(val PropID, p int) *orderProbe {
	return &orderProbe{val: val, seq: make([][]rowVisit, p), inRow: make([]bool, p), reentered: make([]int, p), badFold: make([]int, p)}
}

func (k *orderProbe) RunRows(c *Ctx, rows *Cursor) {
	m := c.Machine()
	view := c.F64(k.val)
	for rows.Next() {
		row := rows.Row()
		if row.Weights != nil && len(row.Weights) != len(row.Refs) {
			k.badFold[m]++
		}
		node := c.Node
		k.seq[m] = append(k.seq[m], rowVisit{node: node, orient: cursorOrient(rows), n: len(row.Refs), aux: c.Aux})
		mark := uint64(len(k.seq[m]))
		c.Aux = mark
		k.inRow[m] = true
		for _, ref := range row.Refs {
			if _, ok := view.At(ref); !ok {
				c.ReadRef(ref, k.val)
			}
		}
		k.inRow[m] = false
		if c.Node != node || c.Aux != mark {
			k.badFold[m]++
		}
	}
}

func (k *orderProbe) ReadDone(c *Ctx, val uint64) {
	if m := c.Machine(); k.inRow[m] {
		k.reentered[m]++
	}
}

// TestCursorVisitOrder pins the order a kernel's cursor walks a job: every
// chunk form — a dense range, a dense frontier's bitmap, a sparse frontier's
// member list, over in-memory, csr2 and csr3 (decoded) loads — under each edge
// iterator, on three machines with one worker each, hands each machine's
// kernel exactly the per-node reference: its members in ascending local
// order, each with one row per orientation of the iterator (out before in),
// of the node's degree in that orientation. Aux reads 0 at a node's first row
// and, at its second, what the kernel left in it at the first. On the
// in-memory loads nothing is replicated and the request pool holds one
// buffer of eight reads, so remote reads stall inside rows and run queued
// continuations there; after each row's loop Node and Aux must be the row's.
func TestCursorVisitOrder(t *testing.T) {
	g, err := graph.RMAT(11, 8, graph.TwitterLike(), 4242)
	if err != nil {
		t.Fatal(err)
	}
	g = g.WithUniformWeights(1, 10, 3)
	const p = 3
	cfg := DefaultConfig(p)
	cfg.Workers = 1
	cfg.BufferSize = comm.HeaderSize + 8*readRecSize
	cfg.Timeout = 20 * time.Second
	loads := []struct {
		name string
		boot func(t *testing.T) *Cluster
	}{
		{"memory", func(t *testing.T) *Cluster {
			c := bootGhosts(t, g, cfg, noGhosts)
			c.setPools(1, 0)
			return c
		}},
		{"csr2", func(t *testing.T) *Cluster { return bootStore(t, storePath(t, g, p), cfg) }},
		{"csr3", func(t *testing.T) *Cluster { return bootStore(t, storePath3(t, g, p), cfg) }},
	}
	sources := []struct {
		name  string
		dense bool
		pred  func(graph.NodeID) bool // nil: a full scan, no Source
	}{
		{"range", true, nil},
		// Runs of 128 nodes with no member: whole bitmap words to skip.
		{"bitmap", true, func(v graph.NodeID) bool { return v%5 == 0 && v/128%2 == 0 }},
		{"list", false, func(v graph.NodeID) bool { return v%101 == 0 }},
	}
	iters := map[IterKind][]int{
		IterOutEdges:  {store.OrientOut},
		IterInEdges:   {store.OrientIn},
		IterBothEdges: {store.OrientOut, store.OrientIn},
	}
	for _, ld := range loads {
		t.Run(ld.name, func(t *testing.T) {
			c := ld.boot(t)
			val, _ := c.AddPropF64("val")
			for _, src := range sources {
				var source *Frontier
				if src.pred != nil {
					source = c.NewFrontier(src.name)
					source.Fill(src.pred)
					for m, mf := range source.machines {
						if mf.dense != src.dense {
							t.Fatalf("%s frontier on machine %d: dense = %v", src.name, m, mf.dense)
						}
					}
				}
				for _, it := range []IterKind{IterOutEdges, IterInEdges, IterBothEdges} {
					name := fmt.Sprintf("%s/%v", src.name, it)
					k := newOrderProbe(val, p)
					spec := JobSpec{Name: name, Iter: it, Task: k, ReadProps: []PropID{val}, Source: source}
					if _, err := c.RunJob(spec); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					reentered := 0
					for m, mach := range c.machines {
						var want []rowVisit
						for u := 0; u < mach.store.numLocal; u++ {
							v := mach.store.globalOf(uint32(u))
							if src.pred != nil && !src.pred(v) {
								continue
							}
							for _, o := range iters[it] {
								deg := g.OutDegree(v)
								if o == store.OrientIn {
									deg = g.InDegree(v)
								}
								want = append(want, rowVisit{node: uint32(u), orient: o, n: int(deg)})
							}
						}
						got := k.seq[m]
						if len(got) != len(want) {
							t.Fatalf("%s machine %d: %d rows, want %d", name, m, len(got), len(want))
						}
						for i, w := range want {
							if i == 0 || want[i-1].node != w.node {
								w.aux = 0 // a node's first row
							} else {
								w.aux = uint64(i) // the mark its previous row left
							}
							if got[i] != w {
								t.Fatalf("%s machine %d row %d: (node, orient, len, aux) = %v, want %v", name, m, i, got[i], w)
							}
						}
						if k.badFold[m] != 0 {
							t.Errorf("%s machine %d: %d rows folded with another Node or Aux than their own", name, m, k.badFold[m])
						}
						reentered += k.reentered[m]
					}
					if ld.name == "memory" && src.pred == nil && reentered == 0 {
						t.Errorf("%s: no continuation ran inside a row: the pool never stalled mid-row", name)
					}
				}
			}
		})
	}
}
