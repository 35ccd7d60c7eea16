package optimal

import (
	"math"
	"math/rand"
	"testing"
)

// TestMulTinyIsTheHardwareProduct holds the integer product to c*x, bit for
// bit, over subnormal and near-subnormal x: random ones, exact ties (an odd
// count of 2⁻¹⁰⁷⁴ units times 0.5 or 1.5), products that round up into the
// normal range or past 2⁻¹⁰²¹, zero, the smallest subnormal, and the
// operands the integer path must hand back to the hardware.
func TestMulTinyIsTheHardwareProduct(t *testing.T) {
	check := func(c, x float64) {
		t.Helper()
		// The conversion keeps an architecture with fused multiply-add from
		// contracting the product into the comparison's operands.
		if got, want := mulTiny(c, x), float64(c*x); !sameBits(got, want) {
			t.Fatalf("mulTiny(%v, %v) = %v (%#x), want %v (%#x)", c, x, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	factors := []float64{0.95, 0.05, 0.5, 0.999, 1.5, 1 - 0x1p-53, 0x1p-30, 3e-4, 3e-5, 1e-18, 0x1p-60, 1000, 0x1p60}
	edges := []float64{
		0, math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64, 10 * math.SmallestNonzeroFloat64,
		0x1p-1022, 0x1p-1022 - math.SmallestNonzeroFloat64, 0x1p-1022 + math.SmallestNonzeroFloat64,
		0x1p-1021, math.Nextafter(0x1p-1021, 0), math.Nextafter(0x1p-1020, 0),
		tinyFactor, math.Nextafter(tinyFactor, 0), 1, math.Inf(1), math.NaN(), -math.SmallestNonzeroFloat64, math.Copysign(0, -1),
	}
	for _, c := range append(factors, 0, -0.95, math.Inf(1), math.NaN(), math.SmallestNonzeroFloat64, 0x1p-1022) {
		for _, x := range edges {
			check(c, x)
		}
	}
	n := 1_000_000
	if testing.Short() {
		n = 100_000
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		// Bit patterns below tinyFactor, weighted towards the subnormals
		// and the boundary of the normal range.
		var x float64
		switch i % 4 {
		case 0:
			x = math.Float64frombits(uint64(rng.Int63n(1 << 52)))
		case 1:
			x = math.Float64frombits(uint64(rng.Int63n(1 << 54)))
		case 2:
			x = math.Float64frombits(uint64(rng.Int63n(int64(math.Float64bits(tinyFactor)))))
		default:
			x = math.Float64frombits(uint64(rng.Int63n(1<<12)) | 1) // small odd counts: ties
		}
		for _, c := range factors[:5] {
			check(c, x)
		}
		check(rng.Float64(), x)
		check(math.Float64frombits(uint64(rng.Int63n(0x7ff<<52))), x) // any positive finite factor
	}
}

// TestAddRepeatedIsTheLoop holds the closed form to n additions on both
// sides of the range where it applies.
func TestAddRepeatedIsTheLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := [][2]float64{
		{0, 10 * math.SmallestNonzeroFloat64},
		{0x1p-1022, math.SmallestNonzeroFloat64},
		{math.Nextafter(0x1p-1021, 0), math.SmallestNonzeroFloat64}, // leaves the range on the first add
		{0x1p-1021, 3 * math.SmallestNonzeroFloat64},
		{1.5, 10 * math.SmallestNonzeroFloat64}, // absorbed at once
		{0, 0},
		{0x1p-1030, 0x1p-1030},
		{1, 0x1p-52},
	}
	for i := 0; i < 2000; i++ {
		cases = append(cases, [2]float64{
			math.Float64frombits(uint64(rng.Int63n(1 << 54))),
			math.Float64frombits(uint64(rng.Int63n(1 << uint(1+rng.Intn(53))))),
		})
	}
	for _, c := range cases {
		for _, n := range []int{1, 2, 7, 1000, 7193} {
			want := c[0]
			for i := 0; i < n; i++ {
				want += c[1]
			}
			if got := addRepeated(c[0], c[1], n); !sameBits(got, want) {
				t.Fatalf("addRepeated(%v, %v, %d) = %v, want %v", c[0], c[1], n, got, want)
			}
		}
	}
}

// TestFinishMatchesAdvance holds the read-out's replay of x alone to
// advance's avg, bit for bit: from x above, at and below tinyFactor, at its
// fixed point and at 0, from iterates before, at and after avgFrom, and for
// factors that reach the fixed point fast, slowly, and one ulp at a time.
func TestFinishMatchesAdvance(t *testing.T) {
	const iters, avgFrom = 3000, 2000
	for _, keep := range []float64{0.5, 0.95, 1 - 0x1p-53} {
		fixed := 1e-310
		for mulTiny(keep, fixed) != fixed {
			fixed = mulTiny(keep, fixed)
		}
		starts := []float64{
			1, 1e-300, tinyFactor, math.Nextafter(tinyFactor, 0), math.Nextafter(tinyFactor, 1),
			0x1p-1022, 3 * math.SmallestNonzeroFloat64, fixed, math.Nextafter(fixed, 1), 0,
		}
		for _, x := range starts {
			for _, at := range []int{0, avgFrom - 5, avgFrom, avgFrom + 1, avgFrom + 700, iters - 1, iters} {
				for _, avg := range []float64{0, 1e-3 * x, 3 * x} {
					if at <= avgFrom && avg != 0 {
						continue
					}
					route := func() *kernel {
						return &kernel{keep: keep, alpha: 1 - keep, iters: iters, avgFrom: avgFrom,
							x: []float64{x}, xbar: []float64{2 * x}, avg: []float64{avg}, at: []int{at}}
					}
					want, got := route(), route()
					want.advance(0, iters)
					got.finish(0)
					if !sameBits(got.avg[0], want.avg[0]) {
						t.Fatalf("keep %v, x %v from iterate %d, avg %v: finish gives %v, advance %v", keep, x, at, avg, got.avg[0], want.avg[0])
					}
				}
			}
		}
	}
}
