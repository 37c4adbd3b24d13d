package main

import (
	"fmt"
	"math"
	"slices"
)

// minBeyond is the fewest samples that must lie above a reported
// percentile. With fewer, the value is one or two stray samples, not a
// tail, so the helper refuses instead of reporting it.
const minBeyond = 10

// median returns the median of xs (the mean of the middle two for an
// even count). It needs at least one sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the exact nearest-rank q-quantile of xs, computed
// from every kept sample. It refuses when fewer than minBeyond samples
// lie above the rank, so a declared percentile is only ever reported
// when the run actually supports it.
func percentile(xs []float64, q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0, 1)", q)
	}
	n := len(xs)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, n, beyond, minBeyond)
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank-1], nil
}

// quartileSpread returns the distance between the first and third
// quartiles of xs as a share of their median, the spread measure
// run.sh reports (Python's statistics.quantiles(xs, n=4), exclusive
// method).
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	q1, q3 := quartile(s, 1), quartile(s, 3)
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// quartile returns the i-th quartile (i in 1..3) of sorted xs exactly
// as Python's statistics.quantiles(xs, n=4) computes it, including its
// clamping and extrapolation for very small samples.
func quartile(sorted []float64, i int) float64 {
	const n = 4
	ld := len(sorted)
	m := ld + 1
	j := i * m / n
	j = max(1, min(j, ld-1))
	delta := i*m - j*n
	return (sorted[j-1]*float64(n-delta) + sorted[j]*float64(delta)) / n
}
