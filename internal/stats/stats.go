// Package stats provides the small statistical toolkit used throughout the
// EMPoWER reproduction: empirical CDFs, summary statistics, ratio
// distributions and seeded random-number helpers.
//
// All functions are deterministic given their inputs; randomness is always
// injected through an explicit *rand.Rand so that every experiment in the
// repository can be reproduced from a seed.
package stats

import (
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
)

// Summary holds the usual first and second moment statistics of a sample.
type Summary struct {
	Mean float64
	Std  float64 // sample standard deviation (n-1 denominator)
	Min  float64
	Max  float64
}

// Summarize computes summary statistics over xs. It returns the zero Summary
// for an empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	return s
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. The input is not modified.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// CDF is an empirical cumulative distribution function: for each X[i],
// P[i] is the fraction of samples ≤ X[i]. X is sorted ascending.
type CDF struct {
	X []float64
	P []float64
}

// NewCDF builds the empirical CDF of xs. The input is not modified.
func NewCDF(xs []float64) CDF {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	c := CDF{X: sorted, P: make([]float64, n)}
	for i := range sorted {
		c.P[i] = float64(i+1) / float64(n)
	}
	return c
}

// Points down-samples the CDF to at most n points for printing, always
// keeping the first and last point.
func (c CDF) Points(n int) CDF {
	if n <= 0 || len(c.X) <= n {
		return c
	}
	out := CDF{X: make([]float64, 0, n), P: make([]float64, 0, n)}
	step := float64(len(c.X)-1) / float64(n-1)
	for i := 0; i < n; i++ {
		j := int(math.Round(float64(i) * step))
		out.X = append(out.X, c.X[j])
		out.P = append(out.P, c.P[j])
	}
	return out
}

// WriteTSV writes the CDF as a plottable two-column table: a
// "# value<TAB>cdf" header, then one "x<TAB>p" row per point at six
// significant digits.
func (c CDF) WriteTSV(w io.Writer) error {
	b := []byte("# value\tcdf\n")
	for i := range c.X {
		b = strconv.AppendFloat(b, c.X[i], 'g', 6, 64)
		b = append(b, '\t')
		b = strconv.AppendFloat(b, c.P[i], 'g', 6, 64)
		b = append(b, '\n')
	}
	_, err := w.Write(b)
	return err
}

// Ratios returns elementwise a[i]/b[i], skipping pairs where both are zero
// and mapping x/0 (x>0) to +Inf, matching how the paper treats
// no-connectivity cases in Figure 5.
func Ratios(a, b []float64) []float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		switch {
		case a[i] == 0 && b[i] == 0:
			continue
		case b[i] == 0:
			out = append(out, math.Inf(1))
		default:
			out = append(out, a[i]/b[i])
		}
	}
	return out
}

// BottomFractionByMin selects the indices of the bottom fraction frac of
// flows ranked by min(a[i], b[i]), the paper's "worst flows" criterion
// (Figure 5). Pairs where both entries are zero are excluded.
func BottomFractionByMin(a, b []float64, frac float64) []int {
	type entry struct {
		idx int
		key float64
	}
	var entries []entry
	for i := range a {
		if i >= len(b) {
			break
		}
		if a[i] == 0 && b[i] == 0 {
			continue
		}
		entries = append(entries, entry{i, math.Min(a[i], b[i])})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
	k := int(math.Ceil(frac * float64(len(entries))))
	if k > len(entries) {
		k = len(entries)
	}
	out := make([]int, 0, k)
	for _, e := range entries[:k] {
		out = append(out, e.idx)
	}
	sort.Ints(out)
	return out
}

// NewRand returns a deterministic RNG for the given seed. A dedicated
// constructor keeps all experiment seeding in one place.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// SplitSeed derives the seed of replication index from a base seed, so a
// parallel sweep can hand every replication its own independent RNG
// stream (NewRand(SplitSeed(base, i))) without the streams overlapping
// the way raw base+i seeding of adjacent sweeps does. The mix is the
// splitmix64 finalizer over the base advanced by the golden-gamma
// increment; the result depends only on (base, index), never on
// scheduling, so it is safe for any worker count.
func SplitSeed(base int64, index int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*(uint64(index)+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Mean is a convenience over Summarize for the common case.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
