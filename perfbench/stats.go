package main

import (
	"math"
	"slices"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile: a tail read off fewer samples is one outlier, not a
// percentile.
const minBeyond = 10

// nearestRank returns the 1-based nearest-rank index of percentile p
// (0 < p ≤ 100) in n sorted samples.
func nearestRank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of xs, or NaN
// when xs is empty. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[nearestRank(p, len(s))-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// beyond returns how many of n samples rank above the nearest rank of
// percentile p.
func beyond(p float64, n int) int {
	if n == 0 {
		return 0
	}
	return n - nearestRank(p, n)
}
