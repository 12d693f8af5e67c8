package main

import (
	"math"
	"testing"
)

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.median and
	// statistics.quantiles(xs, n=4).
	cases := []struct {
		xs     []float64
		med    float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{1, 2}, 1.5, 0.75, 2.25},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{5, 1.5, 9.25, 2, 7.5, 3, 4}, 4, 2, 7.5},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		if got := median(c.xs); got != c.med {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

func TestMedianLeavesInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	median(xs)
	quartiles(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input reordered: %v", xs)
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, so tail must sort
		}
		return xs
	}
	cases := []struct {
		n, pct int
		value  float64
	}{
		{600, 98, 588}, // p98 leaves 12 beyond, p99 only 6
		{100, 90, 90},  // exactly 10 beyond
		{101, 90, 91},
		{30, 66, 20}, // rank ceil(19.8) = 20, 10 beyond
		{15, 100, 15},
		{1, 100, 1},
	}
	for _, c := range cases {
		v, pct := tail(seq(c.n))
		if v != c.value || pct != c.pct {
			t.Errorf("tail(1..%d) = %v at p%d, want %v at p%d", c.n, v, pct, c.value, c.pct)
		}
		if pct < 100 {
			if beyond := c.n - int(v); beyond < minBeyond {
				t.Errorf("tail(1..%d) leaves %d samples beyond", c.n, beyond)
			}
		}
	}
}
