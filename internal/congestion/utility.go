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
// evaluation: U(x) = log(1 + x). It tunes the classic throughput-vs-
// fairness trade-off.
type ProportionalFairness struct{}

// Value implements Utility.
func (ProportionalFairness) Value(x float64) float64 {
	if x < 0 {
		x = 0
	}
	return math.Log1p(x)
}

// Prime implements Utility.
func (ProportionalFairness) Prime(x float64) float64 {
	if x < 0 {
		x = 0
	}
	return 1 / (1 + x)
}

// PrimeInv implements Utility. For U' = 1/(1+x): x = 1/q − 1, clamped at 0.
func (ProportionalFairness) PrimeInv(q float64) float64 {
	if q <= 0 {
		return math.Inf(1)
	}
	x := 1/q - 1
	if x < 0 {
		return 0
	}
	return x
}
