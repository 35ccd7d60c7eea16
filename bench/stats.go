package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0 <= p <= 100) of xs by linear
// interpolation between closest ranks; NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// tailBeyond is the "ten samples beyond" rule: a percentile is reported
// only when at least this many samples lie above it.
const tailBeyond = 10

// supportsPercentile reports whether n samples leave at least tailBeyond
// of them beyond the p-th percentile (p95 needs 200 samples).
func supportsPercentile(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= tailBeyond
}

// spread is the interquartile range as a share of the median — the
// run-to-run noise measure the regression bounds are compared against.
// Fewer than two samples have no spread.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (percentile(xs, 75) - percentile(xs, 25)) / math.Abs(m)
}
