//go:build linux

package store

import (
	"syscall"
	"testing"

	"repro/internal/graph"
)

// minorFaults returns the process's minor page faults so far.
func minorFaults(b *testing.B) int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return ru.Minflt
}

// BenchmarkDecode is the budget of one decoded edge on the benchmark's graph
// shape (TWT16, p = 2): ns per edge, and minor faults per pass, of Open's
// validation scan, of a cold pass — every block decoded — through a pool a
// quarter of the decoded size, and of a warm pass through a pool that holds
// everything, where a row costs a cursor step and nothing else.
func BenchmarkDecode(b *testing.B) {
	g, err := graph.RMAT(16, 16, graph.TwitterLike(), 20151115)
	if err != nil {
		b.Fatal(err)
	}
	comp := writeOpen(b, g, 2, WriteGraphCompressed)
	edges := float64(2 * g.NumEdges()) // both orientations
	report := func(b *testing.B, faults int64) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/edges, "ns/edge")
		b.ReportMetric(float64(minorFaults(b)-faults)/float64(b.N), "faults/pass")
	}
	pass := func(b *testing.B, ld *Load) {
		for mach := 0; mach < 2; mach++ {
			for orient := 0; orient < 2; orient++ {
				cur := ld.Cursor(mach, orient)
				for u := int64(0); u+1 < int64(len(ld.sf.secs[mach][orient].rows)); u++ {
					if _, err := cur.Row(u); err != nil {
						b.Fatal(err)
					}
				}
				cur.Release()
			}
		}
	}
	b.Run("open", func(b *testing.B) {
		faults := minorFaults(b)
		for i := 0; i < b.N; i++ {
			sf, err := Open(comp.Path())
			if err != nil {
				b.Fatal(err)
			}
			sf.Close()
		}
		report(b, faults)
	})
	for _, bc := range []struct {
		name   string
		budget int64
	}{{"cold-quarter-pool", 4 * g.NumEdges()}, {"warm-whole-pool", -1}} {
		b.Run(bc.name, func(b *testing.B) {
			sf, err := Open(comp.Path())
			if err != nil {
				b.Fatal(err)
			}
			defer sf.Close()
			ld, err := sf.NewLoad(0, bc.budget)
			if err != nil {
				b.Fatal(err)
			}
			pass(b, ld) // materialize the pool's pages
			b.ResetTimer()
			faults := minorFaults(b)
			for i := 0; i < b.N; i++ {
				pass(b, ld)
			}
			report(b, faults)
		})
	}
}
