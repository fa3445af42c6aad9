package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/algorithms"
	"repro/internal/graph"
)

// TestAlgoFlagIsTheCatalog: -algo accepts exactly the catalog's names. Every
// entry runs to a "done:" line on a small weighted graph, and any other name
// exits non-zero naming the whole list. A -source past the 32-bit node id
// space exits non-zero naming the flag instead of wrapping to another vertex.
func TestAlgoFlagIsTheCatalog(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "pgxd-run")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	g, err := graph.RMAT(8, 8, graph.TwitterLike(), 7)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "g.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteBinary(f, g.WithUniformWeights(1, 5, 7)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, spec := range algorithms.Catalog() {
		out, err := exec.Command(bin, "-graph", path, "-algo", spec.Name, "-machines", "2", "-iters", "2").CombinedOutput()
		if err != nil || !strings.Contains(string(out), "done:") {
			t.Errorf("-algo %s: %v\n%s", spec.Name, err, out)
		}
	}
	out, err := exec.Command(bin, "-graph", path, "-algo", "bogus").CombinedOutput()
	if err == nil {
		t.Fatalf("-algo bogus exited 0:\n%s", out)
	}
	for _, spec := range algorithms.Catalog() {
		if !strings.Contains(string(out), spec.Name) {
			t.Errorf("unknown -algo message does not list %q:\n%s", spec.Name, out)
		}
	}
	out, err = exec.Command(bin, "-graph", path, "-algo", "hopdist", "-machines", "2", "-source", "4294967296").CombinedOutput()
	if err == nil || !strings.Contains(string(out), "-source") {
		t.Errorf("-source 4294967296: exit %v, want non-zero naming the flag:\n%s", err, out)
	}
}
