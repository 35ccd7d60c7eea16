package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestMedianAndPercentile(t *testing.T) {
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{4, 1, 3, 2}, 50, 2.5},
		{[]float64{7}, 95, 7},
		{seq(101), 95, 96},
		{seq(101), 0, 1},
		{seq(101), 100, 101},
		{[]float64{10, 20}, 25, 12.5},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Errorf("median of an empty sample must be NaN")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

// TestTenSamplesBeyond pins the rule that decides when op_ms_p95 is a
// p95: a percentile needs ten samples beyond it.
func TestTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want bool
	}{
		{199, 95, false}, {200, 95, true}, {400, 95, true},
		{19, 50, false}, {20, 50, true},
		{999, 99, false}, {1000, 99, true},
		{3, 95, false},
	}
	for _, c := range cases {
		if got := supportsPercentile(c.n, c.p); got != c.want {
			t.Errorf("supportsPercentile(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{5}); got != 0 {
		t.Errorf("spread of one sample = %v, want 0", got)
	}
	// Quartiles of 1..5 are 2 and 4, the median 3.
	if got := spread(seq(5)); math.Abs(got-2.0/3) > 1e-9 {
		t.Errorf("spread(1..5) = %v, want 2/3", got)
	}
}
