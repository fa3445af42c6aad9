package bench

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// Table4Opts parameterizes the loading-time experiment (paper Table 4):
// reading a graph from its on-disk format and building the distributed data
// structures. The text path stands in for GraphX/GraphLab ("load from a
// text file"), the binary path for PGX.D ("loads from a binary file
// format"); both then pay cluster-wide partitioning and the per-machine
// CSR build.
type Table4Opts struct {
	Scale    int
	Machines int
	Progress Progress
}

// DefaultTable4Opts returns laptop-scale defaults.
func DefaultTable4Opts() Table4Opts {
	return Table4Opts{Scale: DefaultScale, Machines: 4}
}

// ExpTable4 measures text-format and binary-format loading (parse +
// distributed build) for each dataset.
func ExpTable4(ds *Datasets, opts Table4Opts) (*Table, error) {
	t := &Table{Title: "Table 4: graph sizes and loading time per format"}
	t.Header = []string{"graph", "nodes", "edges", "text load (GX/GL-style)", "binary load (PGX-style)"}
	for _, name := range []string{DSLive, DSWiki, DSTwitter, DSWeb} {
		opts.Progress.log("table4: %s", name)
		g, err := ds.Get(name, opts.Scale)
		if err != nil {
			return nil, err
		}
		// Serialize both formats up front (excluded from timing, like the
		// paper's pre-existing files on disk).
		var text, bin bytes.Buffer
		if err := graph.WriteEdgeList(&text, g); err != nil {
			return nil, err
		}
		if err := graph.WriteBinary(&bin, g); err != nil {
			return nil, err
		}

		textSecs, err := timeLoad(text.Bytes(), graph.ReadEdgeList, opts.Machines)
		if err != nil {
			return nil, err
		}
		binSecs, err := timeLoad(bin.Bytes(), graph.ReadBinary, opts.Machines)
		if err != nil {
			return nil, err
		}
		t.AddRow(name, fmt.Sprint(g.NumNodes()), fmt.Sprint(g.NumEdges()),
			fmtSecs(textSecs), fmtSecs(binSecs))
	}
	t.Notes = append(t.Notes,
		"loading = parse file bytes + partition + build per-machine CSR stores",
		"text parsing dominates, reproducing Table 4's format gap")
	return t, nil
}

func timeLoad(data []byte, parse func(r io.Reader) (*graph.Graph, error), machines int) (float64, error) {
	start := time.Now()
	g, err := parse(bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	c, err := core.NewCluster(core.DefaultConfig(machines))
	if err != nil {
		return 0, err
	}
	defer c.Shutdown()
	if err := c.Load(g); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}
