// Custom kernel: using the run-to-complete task API directly (paper §4.1)
// instead of a built-in algorithm. The kernel computes, for every node, the
// average out-degree of its in-neighbors ("how prolific are my followers?")
// with the pull pattern in row form: RunRows loops over a chunk's rows and
// over each node's in-neighbors itself, reading every one the typed view
// holds in place and handing only the rest to ReadRef, whose continuation
// ReadDone runs on the same worker when the value arrives. The result is
// checked against the same computation done directly on the graph.
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/pgxd"
)

// avgNbrDegree pulls each in-neighbor's out-degree (stored in degProp) and
// accumulates sum and count into two node properties. The engine calls
// RunRows once per chunk; the kernel resolves its typed view once, then for
// each node's in-neighbor row keeps the sum and count in registers and touches
// the node's own properties once per row instead of once per edge. No atomics
// are needed: the engine runs all callbacks of one node on one worker. Two
// rules keep it correct when a remote read stalls and the worker runs earlier
// responses — possibly this node's — inside ReadRef: the accumulators are
// locals, and they are folded into the properties with a read-modify-write
// after the row's loop, never from a value read before it.
type avgNbrDegree struct {
	degProp  pgxd.PropID // read: out-degree of the neighbor
	sumProp  pgxd.PropID // written: running sum for the current node
	seenProp pgxd.PropID // written: number of neighbors seen
}

func (k *avgNbrDegree) RunRows(c *pgxd.Ctx, rows *pgxd.Cursor) {
	// The view holds the local in-neighbors and, because the job declares
	// degProp and the engine mirrored it before the region, the remote ones.
	deg := c.F64(k.degProp)
	for rows.Next() {
		var sum float64
		var seen int64
		for _, ref := range rows.Row().Refs {
			if d, ok := deg.At(ref); ok {
				sum += d
				seen++
			} else {
				// Not held (a job that was not mirrored): the read is buffered
				// toward the owner, and ReadDone adds the value when it arrives,
				// on this same worker.
				c.ReadRef(ref, k.degProp)
			}
		}
		c.SetF64(k.sumProp, c.GetF64(k.sumProp)+sum)
		c.SetI64(k.seenProp, c.GetI64(k.seenProp)+seen)
	}
}

// ReadDone is the continuation for the row's remote neighbors, one value each.
func (k *avgNbrDegree) ReadDone(c *pgxd.Ctx, val uint64) {
	c.SetF64(k.sumProp, c.GetF64(k.sumProp)+pgxd.F64Word(val))
	c.SetI64(k.seenProp, c.GetI64(k.seenProp)+1)
}

// initDegree records each node's own out-degree so neighbors can read it.
type initDegree struct {
	pgxd.NoReads
	degProp pgxd.PropID
}

func (k *initDegree) RunNodes(c *pgxd.Ctx, nodes *pgxd.Cursor) {
	for nodes.Next() {
		c.SetF64(k.degProp, float64(c.OutDegree()))
	}
}

// nbrDegrees runs the two jobs on a cluster of machines over g and returns,
// per node, the sum of its in-neighbors' out-degrees and their count, with the
// pull job's stats.
func nbrDegrees(g *pgxd.Graph, machines int) (sums []float64, counts []int64, stats pgxd.JobStats, err error) {
	cluster, err := pgxd.NewCluster(pgxd.DefaultConfig(machines))
	if err != nil {
		return nil, nil, stats, err
	}
	defer cluster.Shutdown()
	if err := cluster.LoadGraph(g); err != nil {
		return nil, nil, stats, err
	}
	deg, err := cluster.AddPropF64("out_degree")
	if err != nil {
		return nil, nil, stats, err
	}
	sum, err := cluster.AddPropF64("nbr_deg_sum")
	if err != nil {
		return nil, nil, stats, err
	}
	seen, err := cluster.AddPropI64("nbr_seen")
	if err != nil {
		return nil, nil, stats, err
	}

	// Job 1: node iterator — publish each node's out-degree.
	if _, err := cluster.RunJob(pgxd.JobSpec{
		Name: "init-degree",
		Iter: pgxd.IterNodes,
		Task: &initDegree{degProp: deg},
	}); err != nil {
		return nil, nil, stats, err
	}

	// Job 2: in-edge iterator with data pulling. Declaring deg as a read
	// property makes the engine mirror the remote in-neighbors' values before
	// the region, so their reads resolve locally.
	stats, err = cluster.RunJob(pgxd.JobSpec{
		Name:      "avg-nbr-degree",
		Iter:      pgxd.IterInEdges,
		Task:      &avgNbrDegree{degProp: deg, sumProp: sum, seenProp: seen},
		ReadProps: []pgxd.PropID{deg},
	})
	if err != nil {
		return nil, nil, stats, err
	}
	return cluster.Core().GatherF64(sum), cluster.Core().GatherI64(seen), stats, nil
}

// verify holds the engine's sums and counts to a direct computation on the
// raw graph. Degrees are small integers, so the sums are exact in any order.
func verify(g *pgxd.Graph, sums []float64, counts []int64) error {
	if len(sums) != g.NumNodes() || len(counts) != g.NumNodes() {
		return fmt.Errorf("engine returned %d sums and %d counts for %d nodes", len(sums), len(counts), g.NumNodes())
	}
	for i := range sums {
		in := g.In.Neighbors(pgxd.NodeID(i))
		var want float64
		for _, t := range in {
			want += float64(g.OutDegree(t))
		}
		if sums[i] != want || counts[i] != int64(len(in)) {
			return fmt.Errorf("node %d: engine %g over %d in-neighbors, direct %g over %d", i, sums[i], counts[i], want, len(in))
		}
	}
	return nil
}

func main() {
	g, err := pgxd.RMAT(13, 16, pgxd.TwitterLike(), 11)
	if err != nil {
		log.Fatal(err)
	}
	sums, counts, stats, err := nbrDegrees(g, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("custom pull kernel over %d edges: %v, %d frames (%d data bytes)\n",
		g.NumEdges(), stats.Duration.Round(1000), stats.Traffic.FramesSent, stats.Traffic.DataBytesSent)

	type row struct {
		node pgxd.NodeID
		avg  float64
		n    int64
	}
	var rows []row
	for i := range sums {
		if counts[i] >= 10 { // only nodes with enough followers
			rows = append(rows, row{pgxd.NodeID(i), sums[i] / float64(counts[i]), counts[i]})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].avg > rows[j].avg })
	fmt.Println("nodes whose followers are most prolific (>=10 followers):")
	for i := 0; i < 5 && i < len(rows); i++ {
		r := rows[i]
		fmt.Printf("  node %6d: followers average %.1f out-edges (over %d followers)\n", r.node, r.avg, r.n)
	}

	if err := verify(g, sums, counts); err != nil {
		log.Fatal(err)
	}
	fmt.Println("verified: engine results match a direct single-machine computation")
}
