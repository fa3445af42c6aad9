package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (mean of the two middle values for
// an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method: position
// q*(n+1) on the 1-based sorted sample, linearly interpolated, clamped to
// the ends) — the same rule the driver applies across runs, so the spread
// printed here is the spread it will compute. Fewer than two samples have
// no spread: both quartiles equal the single value (or 0).
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sorted(xs)
	n := len(s)
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 { // i-th quartile cut, i in {1,3}
		j := i * (n + 1) / 4 // floor of the 1-based position
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median — the
// steadiness figure every end-to-end metric is held to.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// nearestRank returns the q-quantile (0 < q <= 1) of xs by the nearest-rank
// rule: the smallest sample such that at least q·n samples are <= it, i.e.
// 0-based index ceil(q·n)−1. (Truncating q·n instead returns the maximum for
// the p50 of two samples — the bug PR 6 fixed in the server.)
func nearestRank(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	// The epsilon keeps float products like 0.95*20 = 19.000000000000004
	// from rounding up a rank.
	i := int(math.Ceil(q*float64(len(s))-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// sum adds xs.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
