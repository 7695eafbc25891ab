package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before it
// is reported: a p99 needs at least 1000 samples.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of sorted and
// whether at least minBeyond samples lie above it.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	i := int(math.Ceil(p/100*float64(n))) - 1
	i = min(max(i, 0), n-1)
	return sorted[i], n-1-i >= minBeyond
}

// median returns the median of xs (0 for none); xs is left unchanged.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
