package main

import (
	"fmt"
	"math"
	"sort"
)

// quantile is the linearly interpolated q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// tail is the highest percentile of xs with at least ten samples beyond it,
// never below the median: with fewer than twenty samples no percentile above
// the median has ten beyond it, and the tail is then reported as the median.
// It returns the value and a label naming the percentile and sample count.
func tail(xs []float64) (float64, string) {
	n := len(xs)
	q := 1 - 10/float64(n)
	if q < 0.5 {
		q = 0.5
	}
	return quantile(xs, q), fmt.Sprintf("p%.1f of %d samples", 100*q, n)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
