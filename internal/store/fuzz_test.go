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
// claims, every block decodes, every ref resolves.
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
		defer pinAll(t, ld)()
		for mach := 0; mach < sf.NumMachines(); mach++ {
			sec := ld.Section(mach)
			for _, o := range [2]struct{ rows, refs []int64 }{{sec.OutRows, sec.OutRefs}, {sec.InRows, sec.InRefs}} {
				if m := o.rows[len(o.rows)-1]; int64(len(o.refs)) != m {
					t.Fatalf("machine %d: %d refs under rows ending at %d", mach, len(o.refs), m)
				}
				if err := sf.checkRefs(o.refs, mach); err != nil {
					t.Fatalf("accepted file decodes to an unresolvable ref: machine %d %v", mach, err)
				}
			}
		}
	})
}
