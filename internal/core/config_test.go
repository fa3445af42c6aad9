package core

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strings"
	"testing"
)

// TestConfigSurface ratchets the configuration surface: every exported field
// is a value tests and benchmarks must cover, so a new one has to displace an
// old one, on/off switches beyond the one real deployment choice belong in
// Ablate, and nothing is phrased as a Disable* negative.
func TestConfigSurface(t *testing.T) {
	typ := reflect.TypeOf(Config{})
	if n := typ.NumField(); n > 12 {
		t.Errorf("Config has %d exported fields, ratchet is 12", n)
	}
	bools := map[string]bool{"SpillWrites": true}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			t.Errorf("Config.%s is unexported: derived state belongs on Cluster/Machine", f.Name)
		}
		if strings.HasPrefix(f.Name, "Disable") {
			t.Errorf("Config.%s: ablations are Ablation members, not Disable* fields", f.Name)
		}
		if f.Type.Kind() == reflect.Bool && !bools[f.Name] {
			t.Errorf("Config.%s is a new bool switch", f.Name)
		}
	}
}

// TestAblationSurface ratchets the ablation set: three members in a byte, read
// off config.go's declarations. A mechanism worth switching off for an
// evaluation is one a benchmark row moves with; a new member has to displace
// an old one.
func TestAblationSurface(t *testing.T) {
	if k := reflect.TypeOf(Ablation(0)).Kind(); k != reflect.Uint8 {
		t.Errorf("Ablation is a %v, ratchet is uint8", k)
	}
	file, err := parser.ParseFile(token.NewFileSet(), "config.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var members []string
	ast.Inspect(file, func(n ast.Node) bool {
		if vs, ok := n.(*ast.ValueSpec); ok {
			for _, name := range vs.Names {
				if strings.HasPrefix(name.Name, "Ablate") {
					members = append(members, name.Name)
				}
			}
		}
		return true
	})
	if len(members) > 3 {
		t.Errorf("Ablation has %d members %v, ratchet is 3", len(members), members)
	}
}

// TestDerivedShapeMatchesDefaults: the pools, router queues and scheduling
// chunks the machine shape derives are, for every P in 1..4, W in {1, 2, 4}
// and C in {1, 2}, the values the same shapes got when the request and
// response pools and the chunk target were Config fields left at their
// defaults. A line reads: request/response/control/abort pool sizes, then
// worker-response/request/control/abort queue depths, then each machine's
// chunk count per iterator (nodes, out-, in-, both edges) over testGraph.
func TestDerivedShapeMatchesDefaults(t *testing.T) {
	want := []string{
		"p1 w1 c1: pools 6/6/12/3 queues 8/10/12/12 chunks [8 9 9 9]",
		"p1 w1 c2: pools 6/8/12/3 queues 8/10/12/12 chunks [8 9 9 9]",
		"p1 w2 c1: pools 8/6/12/3 queues 10/12/12/12 chunks [16 17 17 18]",
		"p1 w2 c2: pools 8/8/12/3 queues 10/12/12/12 chunks [16 17 17 18]",
		"p1 w4 c1: pools 12/6/12/3 queues 14/16/12/12 chunks [31 36 36 36]",
		"p1 w4 c2: pools 12/8/12/3 queues 14/16/12/12 chunks [31 36 36 36]",
		"p2 w1 c1: pools 8/8/16/4 queues 10/20/16/16 chunks [8 8 9 9] [8 9 9 9]",
		"p2 w1 c2: pools 8/12/16/4 queues 10/20/16/16 chunks [8 8 9 9] [8 9 9 9]",
		"p2 w2 c1: pools 12/8/16/4 queues 14/28/16/16 chunks [14 18 18 18] [16 18 18 18]",
		"p2 w2 c2: pools 12/12/16/4 queues 14/28/16/16 chunks [14 18 18 18] [16 18 18 18]",
		"p2 w4 c1: pools 20/8/16/4 queues 22/44/16/16 chunks [23 27 27 28] [32 34 35 36]",
		"p2 w4 c2: pools 20/12/16/4 queues 22/44/16/16 chunks [23 27 27 28] [32 34 35 36]",
		"p3 w1 c1: pools 10/10/20/5 queues 12/34/20/20 chunks [7 8 8 8] [8 10 9 9] [8 9 9 9]",
		"p3 w1 c2: pools 10/16/20/5 queues 12/34/20/20 chunks [7 8 8 8] [8 10 9 9] [8 9 9 9]",
		"p3 w2 c1: pools 16/10/20/5 queues 18/52/20/20 chunks [13 13 13 13] [15 19 18 19] [16 17 19 19]",
		"p3 w2 c2: pools 16/16/20/5 queues 18/52/20/20 chunks [13 13 13 13] [15 19 18 19] [16 17 19 19]",
		"p3 w4 c1: pools 28/10/20/5 queues 30/88/20/20 chunks [25 19 19 20] [30 34 35 35] [31 33 36 36]",
		"p3 w4 c2: pools 28/16/20/5 queues 30/88/20/20 chunks [25 19 19 20] [30 34 35 35] [31 33 36 36]",
		"p4 w1 c1: pools 12/12/24/6 queues 14/52/24/24 chunks [7 8 8 8] [7 11 10 10] [8 9 9 9] [8 10 9 9]",
		"p4 w1 c2: pools 12/20/24/6 queues 14/52/24/24 chunks [7 8 8 8] [7 11 10 10] [8 9 9 9] [8 10 9 9]",
		"p4 w2 c1: pools 20/12/24/6 queues 22/84/24/24 chunks [13 11 10 11] [14 17 17 18] [16 19 20 19] [16 17 16 17]",
		"p4 w2 c2: pools 20/20/24/6 queues 22/84/24/24 chunks [13 11 10 11] [14 17 17 18] [16 19 20 19] [16 17 16 17]",
		"p4 w4 c1: pools 36/12/24/6 queues 38/148/24/24 chunks [13 13 13 13] [28 26 28 28] [29 34 33 34] [31 33 34 32]",
		"p4 w4 c2: pools 36/20/24/6 queues 38/148/24/24 chunks [13 13 13 13] [28 26 28 28] [29 34 33 34] [31 33 34 32]",
	}
	g := testGraph(t)
	i := 0
	for p := 1; p <= 4; p++ {
		for _, w := range []int{1, 2, 4} {
			for _, cp := range []int{1, 2} {
				cfg := DefaultConfig(p)
				cfg.Workers, cfg.Copiers = w, cp
				c := bootCluster(t, g, cfg)
				if got := shapeLine(c); got != want[i] {
					t.Errorf("got  %s\nwant %s", got, want[i])
				}
				c.Shutdown()
				i++
			}
		}
	}
}

// shapeLine prints c's derived shape as TestDerivedShapeMatchesDefaults
// reads it.
func shapeLine(c *Cluster) string {
	m0, cfg := c.machines[0], c.cfg
	s := fmt.Sprintf("p%d w%d c%d: pools %d/%d/%d/%d queues %d/%d/%d/%d chunks", cfg.NumMachines, cfg.Workers, cfg.Copiers,
		cap(m0.reqPool.C()), cap(m0.respPool.C()), cap(m0.ctrlPool.C()), cap(m0.abortPool.C()),
		cap(m0.router.WorkerResp(0)), cap(m0.router.ReqQueue()), cap(m0.router.Ctrl()), cap(m0.router.AbortQueue()))
	for _, m := range c.machines {
		n := make([]int, 0, len(m.chunks))
		for _, chunks := range m.chunks {
			n = append(n, len(chunks))
		}
		s += fmt.Sprint(" ", n)
	}
	return s
}
