package store

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

// FuzzOpen feeds arbitrary bytes to Open, the store's trust boundary: it must
// return or error — never panic, never size an allocation by a number the
// file made up — and a file it accepts must be fully usable: every section
// reads, every block decodes, every ref is an owned index or a slot of the
// machine's addr table. Beside the valid images, the seeds break each rule of
// the replica numbering once (addrCorruptions).
func FuzzOpen(f *testing.F) {
	small, err := graph.Uniform(12, 40, 3)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ringImage(f, 8, WriteGraph))
	f.Add(fileImage(f, small, 2, WriteGraphCompressed))
	f.Add(fileImage(f, small.WithUniformWeights(0.5, 2, 7), 2, WriteGraph))
	f.Add(wrapLastRow(ringImage(f, 8, WriteGraph)))
	f.Add(hugeDegreeCrasher(f))
	raw := fileImage(f, testGraph(f, false), 2, WriteGraph)
	for _, c := range addrCorruptions(f) {
		d := append([]byte(nil), raw...)
		f.Add(c.corrupt(d, locate(d)))
	}
	path := filepath.Join(f.TempDir(), "fuzz.csr")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		sf, err := Open(path)
		if err != nil {
			return
		}
		defer sf.Close()
		ld, err := sf.NewLoad(0, -1)
		if err != nil {
			t.Fatal(err)
		}
		for mach := 0; mach < sf.NumMachines(); mach++ {
			for orient := 0; orient < 2; orient++ {
				rd := newRowReader(ld, mach, orient)
				var n int64
				limit := int64(sf.layout.NumLocal(mach) + len(sf.addrs[mach]))
				for u := int64(0); u+1 < int64(len(rd.rows)); u++ {
					row := rd.row(t, u)
					n += int64(len(row))
					for _, ref := range row {
						if ref < 0 || ref >= limit {
							t.Fatalf("accepted file decodes to an unresolvable ref: machine %d row %d: %d outside [0, %d)", mach, u, ref, limit)
						}
					}
				}
				rd.release()
				if m := rd.rows[len(rd.rows)-1]; n != m {
					t.Fatalf("machine %d: %d refs under rows ending at %d", mach, n, m)
				}
			}
		}
	})
}
