// Package congestion implements the EMPoWER congestion-control algorithms
// (paper §4): a distributed utility-maximizing rate controller under the
// airtime interference constraint
//
//	Σ_{l'∈I_l} d_{l'} Σ_{r: l'∈r} x_r ≤ 1 − δ   ∀ l ∈ L,
//
// in its single-path form (dual subgradient, eqs. 7–10) and its multipath
// form (proximal optimization, eq. 11 with the corresponding update rules).
// The package also provides the step-size heuristic used by the paper's
// implementation (§6.1) and steady-state detection used by the evaluation.
package congestion

import "math"

// Utility is an increasing, strictly concave utility function attached to
// a flow. It describes the benefit the flow's source obtains from sending
// at rate x (Mbps).
//
// Value and Prime must be pure functions of their argument: the
// centralized solver (internal/optimal) evaluates Prime once per flow per
// iteration and uses the result for every route of the flow.
type Utility interface {
	// Value returns U(x).
	Value(x float64) float64
	// Prime returns U'(x), the marginal utility.
	Prime(x float64) float64
	// PrimeInv returns U'^{-1}(q): the rate at which marginal utility
	// equals the price q. It must return 0 when q ≥ U'(0).
	PrimeInv(q float64) float64
}

// ProportionalFairness is the utility used throughout the paper's
// evaluation: U(x) = w·log(1 + x). It tunes the classic throughput-vs-
// fairness trade-off.
type ProportionalFairness struct {
	// Weight scales the utility; 1 if zero.
	Weight float64
}

func (u ProportionalFairness) w() float64 {
	if u.Weight == 0 {
		return 1
	}
	return u.Weight
}

// Value implements Utility.
func (u ProportionalFairness) Value(x float64) float64 {
	if x < 0 {
		x = 0
	}
	return u.w() * math.Log1p(x)
}

// Prime implements Utility.
func (u ProportionalFairness) Prime(x float64) float64 {
	if x < 0 {
		x = 0
	}
	return u.w() / (1 + x)
}

// PrimeInv implements Utility. For U' = w/(1+x): x = w/q − 1, clamped at 0.
func (u ProportionalFairness) PrimeInv(q float64) float64 {
	if q <= 0 {
		return math.Inf(1)
	}
	x := u.w()/q - 1
	if x < 0 {
		return 0
	}
	return x
}

// AlphaFair is the α-fair utility family (Mo & Walrand):
// U(x) = x^{1−a}/(1−a) for a ≠ 1 and log utility in the limit a → 1.
// a = 0 is throughput maximization (not strictly concave, avoid), a = 1 is
// proportional fairness over x (not 1+x), a = 2 approximates minimum
// potential delay fairness, a → ∞ max-min fairness.
type AlphaFair struct {
	A float64
	// Eps regularizes near x = 0 where log/α-fair utilities diverge;
	// defaults to 1e-3.
	Eps float64
}

func (u AlphaFair) eps() float64 {
	if u.Eps <= 0 {
		return 1e-3
	}
	return u.Eps
}

// Value implements Utility.
func (u AlphaFair) Value(x float64) float64 {
	if x < 0 {
		x = 0
	}
	x += u.eps()
	if u.A == 1 {
		return math.Log(x)
	}
	return math.Pow(x, 1-u.A) / (1 - u.A)
}

// Prime implements Utility: U'(x) = (x+eps)^{-a}.
func (u AlphaFair) Prime(x float64) float64 {
	if x < 0 {
		x = 0
	}
	return math.Pow(x+u.eps(), -u.A)
}

// PrimeInv implements Utility: x = q^{-1/a} − eps.
func (u AlphaFair) PrimeInv(q float64) float64 {
	if q <= 0 {
		return math.Inf(1)
	}
	x := math.Pow(q, -1/u.A) - u.eps()
	if x < 0 {
		return 0
	}
	return x
}
