package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: the helpers must sort
	}
	return xs
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestQuartiles pins the values Python's statistics.quantiles(xs, n=4)
// gives, the rule the acceptance spread uses.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{seq(5), [3]float64{1.5, 3, 4.5}},
		{seq(2), [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 4, 8}, [3]float64{1.25, 3, 7}},
	} {
		got, ok := quartiles(c.xs)
		if !ok || got != c.want {
			t.Errorf("quartiles(%v) = %v, %v; want %v", c.xs, got, ok, c.want)
		}
	}
	if _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample reported ok")
	}
	if got := iqrShare(seq(10)); got != 1 {
		t.Errorf("iqrShare(1..10) = %v, want 1", got)
	}
	if got := iqrShare([]float64{5, 5, 5}); got != 0 {
		t.Errorf("iqrShare of equal samples = %v, want 0", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {10, 0}, {11, 100.0 / 11}, {100, 90}, {160, 93.75}, {1000, 99}, {2000, 99.5},
	} {
		if got := tailPercentile(c.n); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		want   float64
		wantOK bool
	}{
		{100, 90, 90, true}, // exactly ten samples beyond
		{99, 90, 0, false},  // nine beyond
		{160, 90, 144, true},
		{2000, 99, 1980, true},
		{999, 99, 0, false},
		{20, 50, 10, true},
	} {
		got, ok := percentile(seq(c.n), c.p)
		if got != c.want || ok != c.wantOK {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.wantOK)
		}
	}
}
