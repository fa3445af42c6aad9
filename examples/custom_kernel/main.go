// Custom kernel: using the run-to-complete task API directly (paper §4.1)
// instead of a built-in algorithm. The kernel computes, for every node, the
// average out-degree of its in-neighbors ("how prolific are my followers?")
// with the pull pattern, written twice: per edge, the paper's shape — Run
// issues a read per edge, ReadDone continues on the same worker when the
// value arrives — and per row, the engine's fast shape — RunRow loops over
// the node's in-neighbors itself, reading every one the typed view holds in
// place and handing only the rest to ReadRef. Both run below and must agree.
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/pgxd"
)

// avgNbrDegree pulls each in-neighbor's out-degree (stored in degProp) and
// accumulates sum and count into two node properties. No atomics are needed:
// the engine guarantees all callbacks of one node run on one worker.
type avgNbrDegree struct {
	degProp  pgxd.PropID // read: out-degree of the neighbor
	sumProp  pgxd.PropID // written: running sum for the current node
	seenProp pgxd.PropID // written: number of neighbors seen
}

func (k *avgNbrDegree) Run(c *pgxd.Ctx) {
	// Request the neighbor's degree; for local or mirrored neighbors
	// ReadDone runs synchronously, otherwise the request is buffered into
	// the per-destination message and continues later.
	c.NbrRead(k.degProp)
}

func (k *avgNbrDegree) ReadDone(c *pgxd.Ctx, val uint64) {
	c.SetF64(k.sumProp, c.GetF64(k.sumProp)+pgxd.F64Word(val))
	c.SetI64(k.seenProp, c.GetI64(k.seenProp)+1)
}

// avgNbrDegreeRow is the same kernel in row form. The engine calls RunRow
// once per node with the whole in-neighbor row, so the sum and count live in
// registers and the node's own properties are touched once per row instead of
// once per edge. Two rules keep it correct when a remote read stalls and the
// worker runs earlier responses — possibly this node's — inside ReadRef: the
// accumulators are locals, and they are folded into the properties with a
// read-modify-write after the loop, never from a value read before it.
type avgNbrDegreeRow struct {
	pgxd.RowOnly // Run is never called on an edge iterator's RowTask
	degProp      pgxd.PropID
	sumProp      pgxd.PropID
	seenProp     pgxd.PropID
}

func (k *avgNbrDegreeRow) RunRow(c *pgxd.Ctx, row pgxd.Row) {
	// The view holds the local in-neighbors and, because the job declares
	// degProp and the engine mirrored it before the region, the remote ones.
	deg := c.F64(k.degProp)
	var sum float64
	var seen int64
	for _, ref := range row.Refs {
		if d, ok := deg.At(ref); ok {
			sum += d
			seen++
		} else {
			// Not held (a job that was not mirrored): ReadDone adds it, later,
			// when the read buffered toward the owner is answered.
			c.ReadRef(ref, k.degProp)
		}
	}
	c.SetF64(k.sumProp, c.GetF64(k.sumProp)+sum)
	c.SetI64(k.seenProp, c.GetI64(k.seenProp)+seen)
}

// ReadDone is the continuation for the row's remote neighbors, one value each.
func (k *avgNbrDegreeRow) ReadDone(c *pgxd.Ctx, val uint64) {
	c.SetF64(k.sumProp, c.GetF64(k.sumProp)+pgxd.F64Word(val))
	c.SetI64(k.seenProp, c.GetI64(k.seenProp)+1)
}

// initDegree records each node's own out-degree so neighbors can read it.
type initDegree struct {
	pgxd.NoReads
	degProp pgxd.PropID
}

func (k *initDegree) Run(c *pgxd.Ctx) {
	c.SetF64(k.degProp, float64(c.OutDegree()))
}

func main() {
	g, err := pgxd.RMAT(13, 16, pgxd.TwitterLike(), 11)
	if err != nil {
		log.Fatal(err)
	}
	cluster, err := pgxd.NewCluster(pgxd.DefaultConfig(4))
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Shutdown()
	if err := cluster.LoadGraph(g); err != nil {
		log.Fatal(err)
	}

	deg, err := cluster.AddPropF64("out_degree")
	if err != nil {
		log.Fatal(err)
	}
	sum, err := cluster.AddPropF64("nbr_deg_sum")
	if err != nil {
		log.Fatal(err)
	}
	seen, err := cluster.AddPropI64("nbr_seen")
	if err != nil {
		log.Fatal(err)
	}

	// Job 1: node iterator — publish each node's out-degree.
	if _, err := cluster.RunJob(pgxd.JobSpec{
		Name: "init-degree",
		Iter: pgxd.IterNodes,
		Task: &initDegree{degProp: deg},
	}); err != nil {
		log.Fatal(err)
	}

	// Job 2: in-edge iterator with data pulling. Declaring deg as a read
	// property makes the engine mirror the remote in-neighbors' values before
	// the region, so their reads resolve locally.
	stats, err := cluster.RunJob(pgxd.JobSpec{
		Name:      "avg-nbr-degree",
		Iter:      pgxd.IterInEdges,
		Task:      &avgNbrDegree{degProp: deg, sumProp: sum, seenProp: seen},
		ReadProps: []pgxd.PropID{deg},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("custom pull kernel, per edge, over %d edges: %v, %d frames (%d data bytes)\n",
		g.NumEdges(), stats.Duration.Round(1000), stats.Traffic.FramesSent, stats.Traffic.DataBytesSent)
	sums := cluster.Core().GatherF64(sum)
	counts := cluster.Core().GatherI64(seen)

	// Job 3: the same computation with the row-form kernel.
	cluster.Core().FillF64(sum, 0)
	cluster.Core().FillI64(seen, 0)
	stats, err = cluster.RunJob(pgxd.JobSpec{
		Name:      "avg-nbr-degree-row",
		Iter:      pgxd.IterInEdges,
		Task:      &avgNbrDegreeRow{degProp: deg, sumProp: sum, seenProp: seen},
		ReadProps: []pgxd.PropID{deg},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("custom pull kernel, per row:  over %d edges: %v, %d frames (%d data bytes)\n",
		g.NumEdges(), stats.Duration.Round(1000), stats.Traffic.FramesSent, stats.Traffic.DataBytesSent)
	rowCounts := cluster.Core().GatherI64(seen)
	for i, s := range cluster.Core().GatherF64(sum) {
		// Degrees are small integers, so the sums are exact in any order.
		if s != sums[i] || rowCounts[i] != counts[i] {
			log.Fatalf("node %d: row kernel (%g over %d) vs per-edge kernel (%g over %d)", i, s, rowCounts[i], sums[i], counts[i])
		}
	}
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

	// Verify against a direct computation on the raw graph.
	for i := 0; i < len(sums); i++ {
		var want float64
		for _, t := range g.In.Neighbors(pgxd.NodeID(i)) {
			want += float64(g.OutDegree(t))
		}
		if diff := want - sums[i]; diff > 1e-9 || diff < -1e-9 {
			log.Fatalf("node %d: engine %g vs direct %g", i, sums[i], want)
		}
	}
	fmt.Println("verified: engine results match a direct single-machine computation")
}
