package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quartiles returns the first quartile, the median and the third quartile
// of xs the way Python's statistics.quantiles(xs, n=4) does (the exclusive
// method: cut point k sits at position k*(n+1)/4, interpolated linearly and
// clamped to the sample range), so the spreads printed here are the ones the
// acceptance procedure computes. Fewer than two samples collapse to the one
// value (zero for none).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return cut(1), cut(2), cut(3)
}

// median returns the median of xs (zero for none).
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quiet returns the first decile of xs, interpolated linearly between the
// two samples around rank 0.1*(n-1) so that it does not jump when a run fits
// one repeat more or less: the time the program takes when the box leaves it
// alone. Every end-to-end timing is one. On this shared box a run's median
// follows what the neighbours do — ten runs of the same code spread 12 to
// 16 % by their medians and 4 to 6 % by their first deciles — so the median
// is printed beside it, not gated.
func quiet(xs []float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	pos := 0.1 * float64(len(s)-1)
	j := int(pos)
	if j+1 >= len(s) {
		return s[j]
	}
	return s[j] + (pos-float64(j))*(s[j+1]-s[j])
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 1) of xs:
// the smallest sample with at least a share p of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// sum adds xs.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
