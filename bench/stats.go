package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle sample, or the mean of the two middle samples
// for an even count; 0 for no samples.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first, second and third quartile of xs by the
// exclusive method of Python's statistics.quantiles(xs, n=4), the rule the
// acceptance spread is computed with, extrapolating past the extremes as it
// does. It needs at least two samples.
func quartiles(xs []float64) (q [3]float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return q, false
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q, true
}

// iqrShare is the distance between the first and third quartile as a share
// of the median: the run-to-run spread the benchmark's bounds are set from.
func iqrShare(xs []float64) float64 {
	q, ok := quartiles(xs)
	if !ok || q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailPercentile is the highest percentile of n samples that has at least
// minBeyond samples beyond it under the nearest-rank rule; 0 when n is too
// small for any.
func tailPercentile(n int) float64 {
	if n <= minBeyond {
		return 0
	}
	return 100 * float64(n-minBeyond) / float64(n)
}

// percentile returns the nearest-rank p-th percentile of xs, and false when
// fewer than minBeyond samples lie beyond it.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 || p > tailPercentile(len(xs)) {
		return 0, false
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], true
}
