package optimal

import (
	"math"
	"math/bits"
)

// Exact float64 arithmetic near the bottom of the range. A route the
// optimum drops decays through the subnormals to the fixed point of
// x ↦ fl((1−α)·x), and a hardware multiply with a subnormal operand or
// result takes a microcode assist (≈ 85 cycles on the benchmark machine).
// Below 2⁻¹⁰²¹ every float64 is an integer multiple of 2⁻¹⁰⁷⁴ whose bit
// pattern is that integer, so the correctly rounded product is an integer
// multiply, a shift and a round-half-even. Neither helper can change a
// result: outside its range each falls back to the hardware operation.

const (
	mantissaBits = 52
	mantissaMask = 1<<mantissaBits - 1
	// gridLimit is 2⁻¹⁰²¹ as a bit pattern and as a count of 2⁻¹⁰⁷⁴ units:
	// below it the spacing of float64 is one unit.
	gridLimit = 1 << (mantissaBits + 1)
	// tinyFactor bounds the second operand for which mulTiny leaves the
	// hardware path: below it a product with a factor ≤ 1 may be subnormal.
	// The value only decides which exact path runs.
	tinyFactor = 0x1p-969
)

// mulTiny returns fl(c·x), the product the hardware computes, bit for bit.
func mulTiny(c, x float64) float64 {
	if x >= tinyFactor {
		return float64(c * x)
	}
	return mulGrid(c, x)
}

// mulGrid is mulTiny's slow path: the integer product when c is a positive
// normal number, 0 ≤ x < tinyFactor and c·x < 2⁻¹⁰²¹, the hardware product
// otherwise (negative, NaN or infinite operands included).
func mulGrid(c, x float64) float64 {
	cb, xb := math.Float64bits(c), math.Float64bits(x)
	ce, xe := int(cb>>mantissaBits), int(xb>>mantissaBits)
	if ce == 0 || ce >= 2047 || xb >= math.Float64bits(tinyFactor) {
		return float64(c * x)
	}
	// c = mc·2^(ce−1075), x = mx·2^(xe−1075) with xe = 1 for a subnormal.
	mc, mx := cb&mantissaMask|1<<mantissaBits, xb&mantissaMask
	if xe == 0 {
		xe = 1
	} else {
		mx |= 1 << mantissaBits
	}
	// c·x = mc·mx·2^(−s) units of 2⁻¹⁰⁷⁴.
	shift := 1076 - ce - xe
	if shift < 1 {
		return float64(c * x)
	}
	s := uint(shift)
	if mx == 0 || s >= 128 {
		return 0 // mc·mx < 2¹⁰⁶: below a quarter unit
	}
	hi, lo := bits.Mul64(mc, mx)
	var q, half, rest uint64 // quotient, the bit below it, the bits below that
	switch {
	case s < 64:
		if hi>>s != 0 {
			return float64(c * x)
		}
		q = hi<<(64-s) | lo>>s
		half = lo >> (s - 1) & 1
		rest = lo & (1<<(s-1) - 1)
	case s == 64:
		q, half, rest = hi, lo>>63, lo<<1
	default:
		q = hi >> (s - 64)
		half = hi >> (s - 65) & 1
		rest = hi&(1<<(s-65)-1) | lo
	}
	if q >= gridLimit {
		return float64(c * x) // a normal product whose spacing is wider than a unit
	}
	if half == 1 && (rest != 0 || q&1 == 1) {
		q++ // round to nearest, ties to even; gridLimit itself is 2⁻¹⁰²¹
	}
	return math.Float64frombits(q)
}

// addRepeated returns a after n times a += x, bit for bit, for a, x ≥ 0.
// While the sum stays below 2⁻¹⁰²¹ every addition is exact, so the result is
// the integer a + n·x; anywhere else it adds until the sum absorbs x.
func addRepeated(a, x float64, n int) float64 {
	ab, xb := math.Float64bits(a), math.Float64bits(x)
	if ab < gridLimit && xb < gridLimit {
		if hi, lo := bits.Mul64(xb, uint64(n)); hi == 0 && lo <= gridLimit-ab {
			return math.Float64frombits(ab + lo)
		}
	}
	for ; n > 0; n-- {
		s := a + x
		if s == a {
			break
		}
		a = s
	}
	return a
}
