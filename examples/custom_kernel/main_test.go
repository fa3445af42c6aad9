package main

import (
	"fmt"
	"testing"

	"repro/pgxd"
)

// TestCustomKernelMatchesDirect runs the example's two jobs — its node kernel
// and its row kernel — on one to four machines and holds the result to the
// direct computation over the same graph, the check the example ends with.
func TestCustomKernelMatchesDirect(t *testing.T) {
	g, err := pgxd.RMAT(11, 16, pgxd.TwitterLike(), 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			sums, counts, _, err := nbrDegrees(g, p)
			if err != nil {
				t.Fatal(err)
			}
			if err := verify(g, sums, counts); err != nil {
				t.Fatal(err)
			}
		})
	}
}
