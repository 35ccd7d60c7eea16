package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.Std != 0 {
		t.Fatalf("empty summary not zero: %+v", s)
	}
}

func TestSummarizeBasic(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 {
		t.Fatalf("N = %d, want 8", s.N)
	}
	if !almostEqual(s.Mean, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", s.Mean)
	}
	// sample std of this classic dataset is sqrt(32/7)
	if !almostEqual(s.Std, math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("Std = %v, want %v", s.Std, math.Sqrt(32.0/7.0))
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("Min/Max = %v/%v, want 2/9", s.Min, s.Max)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{3.5})
	if s.Mean != 3.5 || s.Std != 0 || s.Median != 3.5 {
		t.Fatalf("single-element summary wrong: %+v", s)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
		{-0.5, 1}, {1.5, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile of empty slice should be NaN")
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Quantile(xs, 0.3); !almostEqual(got, 3, 1e-12) {
		t.Errorf("Quantile(0.3) = %v, want 3", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	Quantile(xs, 0.5)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Errorf("Quantile mutated input: %v", xs)
	}
}

func TestCDFBasic(t *testing.T) {
	c := NewCDF([]float64{3, 1, 2})
	if !sort.Float64sAreSorted(c.X) {
		t.Fatal("CDF X not sorted")
	}
	if c.At(0.5) != 0 {
		t.Errorf("At(0.5) = %v, want 0", c.At(0.5))
	}
	if !almostEqual(c.At(1), 1.0/3, 1e-12) {
		t.Errorf("At(1) = %v, want 1/3", c.At(1))
	}
	if !almostEqual(c.At(2.5), 2.0/3, 1e-12) {
		t.Errorf("At(2.5) = %v, want 2/3", c.At(2.5))
	}
	if c.At(3) != 1 {
		t.Errorf("At(3) = %v, want 1", c.At(3))
	}
}

func TestCDFPoints(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	c := NewCDF(xs)
	p := c.Points(10)
	if len(p.X) != 10 {
		t.Fatalf("Points(10) returned %d points", len(p.X))
	}
	if p.X[0] != c.X[0] || p.X[9] != c.X[99] {
		t.Error("Points must keep first and last samples")
	}
	// Down-sampling a smaller CDF is the identity.
	small := NewCDF([]float64{1, 2})
	if got := small.Points(10); len(got.X) != 2 {
		t.Errorf("Points on small CDF changed size: %d", len(got.X))
	}
}

func TestCDFPropertyMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		c := NewCDF(xs)
		for i := 1; i < len(c.P); i++ {
			if c.P[i] < c.P[i-1] || c.X[i] < c.X[i-1] {
				return false
			}
		}
		return c.P[len(c.P)-1] == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantilePropertyWithinRange(t *testing.T) {
	f := func(raw []float64, q float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		q = math.Abs(math.Mod(q, 1))
		v := Quantile(xs, q)
		s := Summarize(xs)
		return v >= s.Min-1e-9 && v <= s.Max+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRatios(t *testing.T) {
	got := Ratios([]float64{4, 0, 3, 0}, []float64{2, 0, 0, 5})
	if len(got) != 3 {
		t.Fatalf("Ratios len = %d, want 3 (0/0 skipped)", len(got))
	}
	if got[0] != 2 {
		t.Errorf("got[0] = %v, want 2", got[0])
	}
	if !math.IsInf(got[1], 1) {
		t.Errorf("got[1] = %v, want +Inf", got[1])
	}
	if got[2] != 0 {
		t.Errorf("got[2] = %v, want 0", got[2])
	}
}

func TestBottomFractionByMin(t *testing.T) {
	a := []float64{10, 1, 5, 0, 8}
	b := []float64{12, 2, 4, 0, 9}
	// keys: min -> 10, 1, 4, (skip 0/0), 8 ; bottom 50% of 4 entries = 2
	idx := BottomFractionByMin(a, b, 0.5)
	if len(idx) != 2 {
		t.Fatalf("got %d indices, want 2", len(idx))
	}
	if idx[0] != 1 || idx[1] != 2 {
		t.Errorf("got indices %v, want [1 2]", idx)
	}
}

func TestBottomFractionFull(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{3, 4}
	idx := BottomFractionByMin(a, b, 1.0)
	if len(idx) != 2 {
		t.Fatalf("frac=1 should select everything, got %v", idx)
	}
}

func TestNewRandDeterministic(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must give same sequence")
		}
	}
}

func TestMeanStd(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if !almostEqual(Mean([]float64{1, 2, 3}), 2, 1e-12) {
		t.Error("Mean wrong")
	}
	if !almostEqual(Summarize([]float64{1, 2, 3}).Std, 1, 1e-12) {
		t.Error("Std wrong")
	}
}

// TestCDFWriteTSV pins the plottable TSV to the bytes the former
// trace.WriteCDF wrote for the same inputs: sorted values, six
// significant digits, and the down-sampled form -out files use.
func TestCDFWriteTSV(t *testing.T) {
	var b strings.Builder
	if err := NewCDF([]float64{3, 1, 2}).WriteTSV(&b); err != nil {
		t.Fatal(err)
	}
	if want := "# value\tcdf\n1\t0.333333\n2\t0.666667\n3\t1\n"; b.String() != want {
		t.Errorf("TSV = %q, want %q", b.String(), want)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	b.Reset()
	if err := NewCDF(xs).Points(10).WriteTSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "# value\tcdf\n0\t0.01\n11\t0.12\n22\t0.23\n33\t0.34\n44\t0.45\n55\t0.56\n66\t0.67\n77\t0.78\n88\t0.89\n99\t1\n"
	if b.String() != want {
		t.Errorf("down-sampled TSV = %q, want %q", b.String(), want)
	}
}
