package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the "exclusive"
// method of Python's statistics.quantiles(xs, n=4), the rule the benchmark's
// spread bounds are stated in. One sample is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	switch len(xs) {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0]
	}
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// minBeyond is how many samples a reported tail percentile must leave above
// it.
const minBeyond = 10

// tail returns the highest whole percentile of xs (nearest rank) that leaves
// at least minBeyond samples above it, and that percentile. A run too short
// to have such a percentile at or above the median reports its largest
// sample as percentile 100.
func tail(xs []float64) (value float64, pct int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := sorted(xs)
	n := len(s)
	for p := 99; p >= 50; p-- {
		rank := (p*n + 99) / 100 // ceil(p·n/100), 1-based
		if n-rank >= minBeyond {
			return s[rank-1], p
		}
	}
	return s[n-1], 100
}
