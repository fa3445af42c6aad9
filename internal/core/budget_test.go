package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestFunctionBudget ratchets function length across the engine packages, the
// paper-figure harness (internal/bench), the pgxd facade and the pgxd-gen,
// pgxd-run and pgxd-server commands: a protocol that grows past a screen or two
// stops being checkable by reading (Machine.runJob reached 338 lines before it
// was cut into phases). No
// non-test function may exceed 100 lines, and runJob itself — the job
// schedule — stays under 60 with no loop or switch of its own, so which
// collectives run, and in which order, is readable in one place.
func TestFunctionBudget(t *testing.T) {
	const budget, runJobBudget = 100, 60
	fset := token.NewFileSet()
	sawRunJob := false
	// Package directories relative to internal/; the facade and the commands
	// sit beside it.
	for _, pkg := range []string{"core", "comm", "store", "server", "partition", "obs", "algorithms", "graph", "reduce", "bench",
		"../pgxd", "../cmd/pgxd-gen", "../cmd/pgxd-run", "../cmd/pgxd-server"} {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no sources for %s (err=%v)", filepath.Join("internal", pkg), err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				lines := fset.Position(fn.End()).Line - fset.Position(fn.Pos()).Line + 1
				if lines > budget {
					t.Errorf("%s: %s is %d lines, budget is %d", fset.Position(fn.Pos()), fn.Name.Name, lines, budget)
				}
				if pkg != "core" || fn.Name.Name != "runJob" || filepath.Base(path) != "machine.go" {
					continue // worker.go has a runJob too: the worker's, not the schedule
				}
				sawRunJob = true
				if lines > runJobBudget {
					t.Errorf("Machine.runJob is %d lines, budget is %d: add a phase, not a block", lines, runJobBudget)
				}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					switch n.(type) {
					case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
						t.Errorf("%s: Machine.runJob has a loop or switch of its own; it belongs in a phase", fset.Position(n.Pos()))
					}
					return true
				})
			}
		}
	}
	if !sawRunJob {
		t.Error("Machine.runJob not found in internal/core/machine.go")
	}
}
