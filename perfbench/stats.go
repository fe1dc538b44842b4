package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted: the smallest sample with at least p% of the samples at or below
// it. It returns 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(n) / 100))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// tailLadder lists the percentiles a reported tail may take, highest first.
var tailLadder = []float64{99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// tailPercentile returns the highest percentile of tailLadder that has at
// least minBeyond of n samples strictly above its nearest rank, or 50 when
// no rung qualifies.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-int(math.Ceil(p*float64(n)/100)) >= minBeyond {
			return p
		}
	}
	return 50
}

// sortedCopy returns xs sorted ascending without changing xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs: the middle value, or the mean of the
// two middle values for an even count (0 for none).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the three cut points dividing xs into quarters, computed
// exactly as Python's statistics.quantiles(xs, n=4) does (the "exclusive"
// method). It needs at least two samples; with fewer it returns xs[0] three
// times (or zeros for none).
func quartiles(xs []float64) [3]float64 {
	d := sortedCopy(xs)
	ld := len(d)
	switch ld {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{d[0], d[0], d[0]}
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q
}

// spreadShare is the interquartile distance of xs as a share of its median
// (quartiles' middle cut point); 0 when the median is 0.
func spreadShare(xs []float64) float64 {
	q := quartiles(xs)
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}
