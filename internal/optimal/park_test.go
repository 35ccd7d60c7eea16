package optimal

// Problems built to drive the kernel through each transition of a parked
// route — park behind or ahead of the anchor, wake by the wake test, by a
// re-anchor or by a prefix test, never parking — every one compared with the
// reference loop bit for bit, and the unexported counters read to prove the
// transition ran.
//
// Mutations of the kernel this suite was checked to fail on, with the tests
// that catch them first: absorbShare 2⁻⁵⁶ → 2⁻⁴⁰ (the figure and random
// sweeps); no flow-sum bound in tryPark, settle and reanchorFlow
// (TestTryParkNeedsEveryBound); no "after the anchor" rule (the same, and the
// counters of TestAnchorDiesMidRun); "> 0" for "not ≤ 0" in the wake test and
// the frontier tested on its own x̄ (TestWakeTestUsesTheFlowBound);
// addRepeated without its range check (the figure sweep,
// TestAddRepeatedIsTheLoop); round-half-up in mulGrid (nearly everything);
// settle without addSums (TestSettleAddsWokenTermsAgain); preShare 2⁻⁵⁷ →
// 2⁻⁵³ (TestTryParkNeedsEveryBound, TestSettleTestsThePrefix); no live
// prefix test, N·B′ alone (the same, and the counters of
// TestSolveMatchesReferenceWhenAllButOneRouteDies and TestAnchorDiesMidRun);
// no N·B′ test in reanchorFlow (TestReanchorKeepsThePrefixWhole); settle
// without the second round of prefix tests (TestSettleRetestsAfterWaking);
// finish without addRepeated at the fixed point (TestFinishMatchesAdvance).
// Several of them change no whole solve found so far — a parked term decays
// at least as fast as its anchor, so the actual terms stay absorbed even
// where the bound fails — which is why the kernel-level tests at the end of
// this file exist.

import (
	"math"
	"slices"
	"testing"

	"repro/internal/congestion"
)

// dyingRoutes is one flow over one row in which route `good` costs a tenth
// of the airtime of the others, so the optimum uses it alone.
func dyingRoutes(n, good int) Problem {
	p := Problem{NumRoutes: n, Flows: [][]int{make([]int, n)}}
	coef := map[int]float64{}
	for r := 0; r < n; r++ {
		p.Flows[0][r] = r
		coef[r] = 0.2 + 0.01*float64(r)
	}
	coef[good] = 0.02
	p.Constraints = []Constraint{{Coef: coef, Bound: 1}}
	return p
}

// TestParkHorizon stops on both sides of the iteration at which the dead
// routes of TestSolveMatchesReferenceWhenAllButOneRouteDies can first park:
// before it every route is still in the pass and no sum has omitted a term.
func TestParkHorizon(t *testing.T) {
	for _, iters := range []int{40, 150} {
		if sol := checkAgainstReference(t, dyingRoutes(8, 3), SolveOptions{Step: 0.5, Iters: iters}); sol.parks != 0 || sol.LiveShare != 1 {
			t.Errorf("%d iterations: parks = %d, live share %v; want none parked yet", iters, sol.parks, sol.LiveShare)
		}
	}
	if sol := checkAgainstReference(t, dyingRoutes(8, 3), SolveOptions{Step: 0.5, Iters: 3000}); sol.parks == 0 || sol.LiveShare > 0.7 {
		t.Errorf("3000 iterations: parks = %d, live share %v; want the dead routes out of the pass", sol.parks, sol.LiveShare)
	}
}

// TestParkedRoutesWakeWhenThePriceUnwinds is TestSolveThawsFrozenRoutes
// with an anchor: route 0 lives on a row of its own and touches the wound-up
// row with a coefficient of 10⁻⁶, so routes 1–4 — clipped for ≈ 3 000
// iterations by a price near 1 500 — park behind it. When the price is back
// near U′ their update is no longer clipped, and the wake test must hand
// each back to the pass on exactly the iterate the reference holds.
func TestParkedRoutesWakeWhenThePriceUnwinds(t *testing.T) {
	p := Problem{NumRoutes: 5, Flows: [][]int{{0, 1, 2, 3, 4}}}
	wound := map[int]float64{0: 1e-6}
	for r := 1; r < 5; r++ {
		wound[r] = 2 + 0.5*float64(r-1)
	}
	p.Constraints = []Constraint{{Coef: wound, Bound: 1}, {Coef: map[int]float64{0: 0.02}, Bound: 1}}
	sol := checkAgainstReference(t, p, SolveOptions{Step: 0.5, Iters: 6000})
	if sol.parks != 4 || sol.wakes != 4 || sol.reanchors != 0 {
		t.Fatalf("parks = %d, wakes = %d, reanchors = %d; want routes 1–4 parked and woken once each by the wake test", sol.parks, sol.wakes, sol.reanchors)
	}
	if sol.X[1] <= 0 {
		t.Errorf("route 1 ends at %v, want it carrying traffic again", sol.X[1])
	}
}

// TestAnchorDiesMidRun parks routes 1, 3 and 4 behind route 0, which costs
// 2.5 % more airtime than route 2 and so loses to it slowly: it is the
// anchor for ≈ 1 000 iterations and then dies. The kernel must re-anchor on
// route 2 and wake route 1, now ahead of the anchor next to the dying route
// 0, whose term is still far from tiny; it must keep 3 and 4 behind route 2.
// Once route 0 has decayed, it and route 1 park ahead of route 2 for good.
func TestAnchorDiesMidRun(t *testing.T) {
	p := Problem{NumRoutes: 5, Flows: [][]int{{0, 1, 2, 3, 4}}}
	p.Constraints = []Constraint{{Coef: map[int]float64{0: 0.0205, 1: 0.2, 2: 0.02, 3: 0.2, 4: 0.25}, Bound: 1}}
	p.RateCap = []float64{3, 60, 60, 60, 60}
	sol := checkAgainstReference(t, p, SolveOptions{Step: 0.5, Iters: 3000})
	if sol.wakes != 1 || sol.reanchors == 0 {
		t.Fatalf("wakes = %d, reanchors = %d; want exactly route 1 woken by a re-anchor, routes 3 and 4 kept", sol.wakes, sol.reanchors)
	}
	if sol.parks != 5 {
		t.Errorf("parks = %d; want routes 1, 3, 4, then 0 and 1 ahead of route 2", sol.parks)
	}
}

// TestNothingParksWithoutAnAnchor: when every route of the flow dies (the
// wind-up of TestSolveThawsFrozenRoutes) no term can hide behind another,
// so the routes freeze in the pass instead.
func TestNothingParksWithoutAnAnchor(t *testing.T) {
	p := Problem{NumRoutes: 4, Flows: [][]int{{0, 1, 2, 3}}}
	coef := map[int]float64{}
	for r := 0; r < 4; r++ {
		coef[r] = 2 + 0.5*float64(r)
	}
	p.Constraints = []Constraint{{Coef: coef, Bound: 1}}
	if sol := checkAgainstReference(t, p, SolveOptions{Step: 0.5, Iters: 2500}); sol.parks != 0 || sol.freezes != 4 {
		t.Errorf("parks = %d, freezes = %d; want all four frozen and none parked", sol.parks, sol.freezes)
	}
}

// TestRowOfDyingRoutesOnly gives routes 1 and 2 a second row that no
// surviving route touches. While route 1 is still unclipped route 2 can park
// behind it there; once it is clipped too the row has no anchor left, route
// 2 must come back, and neither may leave again. Route 3 stays parked behind
// the survivor.
func TestRowOfDyingRoutesOnly(t *testing.T) {
	p := Problem{NumRoutes: 4, Flows: [][]int{{0, 1, 2, 3}}}
	p.Constraints = []Constraint{
		{Coef: map[int]float64{0: 0.02, 1: 0.2, 2: 0.25, 3: 0.3}, Bound: 1},
		{Coef: map[int]float64{1: 0.01, 2: 0.01}, Bound: 1},
	}
	sol := checkAgainstReference(t, p, SolveOptions{Step: 0.5, Iters: 3000})
	if sol.parks-sol.wakes != 1 || sol.freezes != 2 {
		t.Errorf("parks = %d, wakes = %d, freezes = %d; want route 3 alone parked at the end and routes 1 and 2 frozen in the pass", sol.parks, sol.wakes, sol.freezes)
	}
}

// TestRouteWithoutRows: a route in no constraint pays no price, is never
// clipped and grows to its cap; it has no row to be anchored in and
// undercuts every other route's price.
func TestRouteWithoutRows(t *testing.T) {
	p := dyingRoutes(6, 1)
	p.NumRoutes = 7
	p.Flows[0] = append(p.Flows[0], 6)
	p.RateCap = []float64{0, 0, 0, 0, 0, 0, 4}
	sol := checkAgainstReference(t, p, SolveOptions{Step: 0.5, Iters: 3000})
	if sol.parks == 0 || sol.X[6] < 3.9 {
		t.Errorf("parks = %d, X[6] = %v; want the dead routes parked and the free route at its cap", sol.parks, sol.X[6])
	}
}

// TestOddCoefficientsNeverPark: with a negative coefficient partial sums
// can fall, with a NaN or infinite one nothing is ordered; the kernel runs
// the full pass and still returns the reference's bits (NaNs included).
func TestOddCoefficientsNeverPark(t *testing.T) {
	for _, odd := range []float64{-0.001, math.NaN(), math.Inf(1)} {
		p := dyingRoutes(8, 0)
		p.Constraints = append(p.Constraints, Constraint{Coef: map[int]float64{0: 0.001, 5: odd}, Bound: 1})
		if sol := checkAgainstReference(t, p, SolveOptions{Step: 0.5, Iters: 3000}); sol.parks != 0 || sol.LiveShare != 1 {
			t.Errorf("coefficient %v: parks = %d, live share %v; want the full pass", odd, sol.parks, sol.LiveShare)
		}
	}
	// Likewise a step outside (0, 1): x would not decay.
	if sol := checkAgainstReference(t, dyingRoutes(8, 0), SolveOptions{Step: 1, Iters: 500}); sol.parks != 0 {
		t.Errorf("step 1: parks = %d, want none", sol.parks)
	}
}

// scaledLog is U = w·log x: U′(0) = +Inf, and w/q the rate at price q.
type scaledLog float64

func (w scaledLog) Value(x float64) float64    { return float64(w) * math.Log(x) }
func (w scaledLog) Prime(x float64) float64    { return float64(w) / x }
func (w scaledLog) PrimeInv(q float64) float64 { return float64(w) / q }

// weightedLog is U = w·log(1 + x), weight 1 when w is 0: the weighted
// proportional fairness the solver's tests give a flow.
type weightedLog float64

func (w weightedLog) weight() float64 {
	if w == 0 {
		return 1
	}
	return float64(w)
}

func (w weightedLog) Value(x float64) float64 {
	if x < 0 {
		x = 0
	}
	return w.weight() * math.Log1p(x)
}

func (w weightedLog) Prime(x float64) float64 {
	if x < 0 {
		x = 0
	}
	return w.weight() / (1 + x)
}

func (w weightedLog) PrimeInv(q float64) float64 {
	if q <= 0 {
		return math.Inf(1)
	}
	x := w.weight()/q - 1
	if x < 0 {
		return 0
	}
	return x
}

// alphaFair is the α-fair utility family (Mo & Walrand) at α = a,
// regularized by alphaEps near x = 0: U(x) = (x+ε)^{1−a}/(1−a), and
// log(x+ε) at a = 1.
type alphaFair float64

const alphaEps = 1e-3

func (a alphaFair) Value(x float64) float64 {
	if x < 0 {
		x = 0
	}
	x += alphaEps
	if a == 1 {
		return math.Log(x)
	}
	return math.Pow(x, 1-float64(a)) / (1 - float64(a))
}

func (a alphaFair) Prime(x float64) float64 {
	if x < 0 {
		x = 0
	}
	return math.Pow(x+alphaEps, -float64(a))
}

func (a alphaFair) PrimeInv(q float64) float64 {
	if q <= 0 {
		return math.Inf(1)
	}
	x := math.Pow(q, -1/float64(a)) - alphaEps
	if x < 0 {
		return 0
	}
	return x
}

// TestAlphaFair checks the utility doubles: PrimeInv inverts Prime, a = 1
// is the log utility, and a weight scales the marginal utility.
func TestAlphaFair(t *testing.T) {
	u := alphaFair(2)
	for _, x := range []float64{0.1, 1, 5} {
		if got := u.PrimeInv(u.Prime(x)); math.Abs(got-x) > 1e-6 {
			t.Errorf("alphaFair PrimeInv(Prime(%v)) = %v", x, got)
		}
	}
	if math.Abs(alphaFair(1).Value(math.E-alphaEps)-1) > 1e-9 {
		t.Error("a = 1 should be log utility")
	}
	if math.Abs(weightedLog(2).Prime(1)-1) > 1e-12 {
		t.Error("weighted Prime wrong")
	}
}

// TestInfiniteMarginalUtility winds flow 0 down to a rate of exactly zero,
// where its utility answers U′ = +Inf and every route jumps to its cap,
// while flow 1 parks and wakes routes next to it.
func TestInfiniteMarginalUtility(t *testing.T) {
	p := Problem{NumRoutes: 7, Flows: [][]int{{0, 1, 2, 3}, {4, 5, 6}}, Utilities: []congestion.Utility{scaledLog(1), nil}}
	wound := map[int]float64{}
	for r := 0; r < 4; r++ {
		wound[r] = 2 + 0.5*float64(r)
	}
	p.Constraints = []Constraint{{Coef: wound, Bound: 1}, {Coef: map[int]float64{4: 0.02, 5: 0.2, 6: 0.25}, Bound: 1}}
	p.RateCap = []float64{1000, 1000, 1000, 1000, 0, 0, 0}
	if sol := checkAgainstReference(t, p, SolveOptions{Step: 0.5, Iters: 6000}); sol.parks == 0 || sol.wakes == 0 {
		t.Errorf("parks = %d, wakes = %d; want both transitions next to the infinite marginal utility", sol.parks, sol.wakes)
	}
}

// TestFlowSumBound solves a mouse next to an elephant: flow 0 fills the
// shared row (0.01 · 10⁴ of a bound of 100) while flow 1, log utility, runs
// at ≈ 0.2, so its dying route 2 is tiny in the row two decimal orders
// before it is tiny in its own flow's total. TestTryParkNeedsEveryBound
// pins the decision itself.
func TestFlowSumBound(t *testing.T) {
	p := Problem{
		NumRoutes: 3, Flows: [][]int{{0}, {1, 2}},
		Utilities: []congestion.Utility{weightedLog(1e5), alphaFair(1)},
	}
	p.Constraints = []Constraint{{Coef: map[int]float64{0: 0.01, 1: 0.1, 2: 0.2}, Bound: 100}}
	p.RateCap = []float64{3e4, 1, 1}
	if sol := checkAgainstReference(t, p, SolveOptions{Iters: 6000}); sol.parks != 1 {
		t.Errorf("parks = %d, want route 2 parked", sol.parks)
	}
}

// undefinedAbove is proportional fairness that answers NaN above a rate.
type undefinedAbove struct{ limit float64 }

func (u undefinedAbove) Value(x float64) float64 { return math.Log1p(x) }
func (u undefinedAbove) Prime(x float64) float64 {
	if x > u.limit {
		return math.NaN()
	}
	return 1 / (1 + x)
}
func (u undefinedAbove) PrimeInv(q float64) float64 { return 1/q - 1 }

// TestUndefinedMarginalUtilityWakesEverything: the flow starts at 42 (caps
// keep the warm start low) and climbs towards 50; once it passes 49.9, with
// routes parked, U′ is NaN, no update is clipped any more (NaN ≤ 0 is false)
// and every route turns NaN in the reference. The wake test must read
// "not ≤ 0", not "> 0".
func TestUndefinedMarginalUtilityWakesEverything(t *testing.T) {
	p := dyingRoutes(8, 0)
	p.RateCap = []float64{70, 70, 70, 70, 70, 70, 70, 70}
	p.Utilities = []congestion.Utility{undefinedAbove{49.9}}
	sol := checkAgainstReference(t, p, SolveOptions{Step: 0.5, Iters: 3000})
	if sol.parks == 0 || sol.wakes != sol.parks || !math.IsNaN(sol.X[7]) {
		t.Errorf("parks = %d, wakes = %d, X[7] = %v; want every parked route woken into NaN", sol.parks, sol.wakes, sol.X[7])
	}
}

// The tests below hold single transitions of the kernel to their contract on
// states a whole solve reaches only by accident — bounds that bind in one
// sum and not in another, a wake whose term is not negligible.

// kernelFor lays p out as solve does, with x and the stored terms
// overwritten and flow f anchored on route anchors[f], every row on route 0.
func kernelFor(t *testing.T, p Problem, x []float64, anchors []int) *kernel {
	t.Helper()
	m, err := densify(p.Constraints, p.NumRoutes)
	if err != nil {
		t.Fatal(err)
	}
	flowOf, err := routeFlows(p)
	if err != nil {
		t.Fatal(err)
	}
	k := newKernel(p, m, flowOf, SolveOptions{})
	copy(k.x, x)
	copy(k.xbar, x)
	for r := range x {
		k.unclipped[r] = true
		for j := k.rtStart[r]; j < k.rtStart[r+1]; j++ {
			k.term[j] = k.rtCoef[j] * x[r]
		}
	}
	for c := range k.rowAnchor {
		if m.route[m.start[c]] != 0 {
			t.Fatalf("row %d does not start with route 0", c)
		}
		k.rowAnchor[c], k.rowAnchorRoute[c] = k.entry[m.start[c]], 0
		k.pin(-1, 0)
	}
	for f, a := range anchors {
		k.flowAnchor[f] = a
		k.pin(-1, a)
	}
	k.addSums()
	return k
}

// TestTryParkNeedsEveryBound: route 2's term is tiny in the row, which flow
// 0 fills, long before it is tiny in the total of its own flow of 0.2.
func TestTryParkNeedsEveryBound(t *testing.T) {
	p := Problem{NumRoutes: 3, Flows: [][]int{{0}, {1, 2}}}
	p.Constraints = []Constraint{{Coef: map[int]float64{0: 0.01, 1: 0.1, 2: 0.2}, Bound: 100}}
	for _, c := range []struct {
		x2   float64
		want bool
	}{
		{1e-15, false}, // visible in the row: 2·10⁻¹⁶ against 100·2⁻⁶⁴ = 5·10⁻¹⁸
		{1e-18, false}, // absorbed in the row, visible in the flow: 0.2·2⁻⁶⁴ = 10⁻²⁰
		{1e-21, true},
		{0, true},
	} {
		k := kernelFor(t, p, []float64{1e4, 0.2, c.x2}, []int{0, 1})
		if got := k.tryPark(2); got != c.want {
			t.Errorf("x = %v: tryPark = %v, want %v", c.x2, got, c.want)
		}
	}
	k := kernelFor(t, p, []float64{1e4, 0.2, 1e-21}, []int{0, 2})
	if k.tryPark(2) {
		t.Error("a route that anchors its flow parked")
	}
	// Ahead of its flow's anchor a route parks when N = 4 times its x is
	// tiny, 4·10⁻²¹ against 0.2·2⁻⁶⁵ = 5.4·10⁻²¹, and not at twice that.
	for _, c := range []struct {
		x1   float64
		want bool
	}{{1e-21, true}, {2e-21, false}} {
		k = kernelFor(t, p, []float64{1e4, c.x1, 0.2}, []int{0, 2})
		if got := k.tryPark(1); got != c.want {
			t.Errorf("ahead of the anchor, x = %v: tryPark = %v, want %v", c.x1, got, c.want)
		}
	}
	// So does the live sum ahead of the anchor, which here holds route 1.
	p = Problem{NumRoutes: 4, Flows: [][]int{{0}, {1, 2, 3}}}
	p.Constraints = []Constraint{{Coef: map[int]float64{0: 0.01, 1: 0.1, 2: 0.1, 3: 0.2}, Bound: 100}}
	for _, c := range []struct {
		x1   float64
		want bool
	}{{1e-22, true}, {1e-20, false}} {
		k = kernelFor(t, p, []float64{1e4, c.x1, 1e-22, 0.2}, []int{0, 3})
		if got := k.tryPark(2); got != c.want {
			t.Errorf("live prefix %v: tryPark = %v, want %v", c.x1, got, c.want)
		}
	}
}

// TestWakeTestUsesTheFlowBound: routes 1 and 2 have the same coefficients,
// so route 1 alone is the frontier, but route 2 parked with the larger x̄.
// With a price a hair above U′ route 2's update is no longer clipped while
// route 1's still is: the frontier's test must ring on the flow's x̄ bound,
// not on route 1's own x̄.
func TestWakeTestUsesTheFlowBound(t *testing.T) {
	p := Problem{NumRoutes: 3, Flows: [][]int{{0, 1, 2}}}
	p.Constraints = []Constraint{{Coef: map[int]float64{0: 0.02, 1: 0.2, 2: 0.2}, Bound: 1}}
	k := kernelFor(t, p, []float64{50, 1e-30, 1e-22}, []int{0})
	k.xbar[2] = 1e-12
	for _, r := range []int{1, 2} {
		k.live = k.live[:len(k.live)-1]
		k.park(r, 7)
	}
	if len(k.frontier[0]) != 1 || k.frontier[0][0] != 1 {
		t.Fatalf("frontier = %v, want route 1 alone", k.frontier[0])
	}
	k.lambda[0] = 1
	k.prime[0] = math.Nextafter(0.2, 0) // g·(U′ − q) ≈ −8·10⁻¹⁶
	k.stillClipped(7, true)
	if k.state[1] != parked || k.state[2] != moving || k.wakes != 1 {
		t.Fatalf("states = %v, wakes = %d; want route 2 woken and route 1 parked", k.state, k.wakes)
	}
	if len(k.live) != 2 || k.live[1] != 2 {
		t.Errorf("live = %v, want [0 2]", k.live)
	}
	// An undefined U′ clips nothing: NaN ≤ 0 is false, and so is NaN > 0.
	k.prime[0] = math.NaN()
	k.stillClipped(7, true)
	if k.state[1] != moving {
		t.Error("route 1 stayed parked under a NaN marginal utility")
	}
}

// TestSettleAddsWokenTermsAgain parks a route whose term is far from
// negligible — a state solve never produces, which is the point: settle must
// notice on the live values, wake it and add the sums again in order.
func TestSettleAddsWokenTermsAgain(t *testing.T) {
	p := Problem{NumRoutes: 3, Flows: [][]int{{0, 1, 2}}}
	p.Constraints = []Constraint{{Coef: map[int]float64{0: 0.02, 1: 0.2, 2: 0.2}, Bound: 1}}
	x := []float64{50, 0.3, 0.7}
	k := kernelFor(t, p, x, []int{0})
	k.live = k.live[:2]
	k.park(2, 7)
	k.addSums() // the sums a pass without route 2 leaves behind
	if k.flowRate[0] != 50.3 {
		t.Fatalf("flow rate %v before settling, want 50.3", k.flowRate[0])
	}
	k.settle(7, false)
	if k.state[2] != moving || k.wakes != 1 || k.reanchors == 0 {
		t.Fatalf("state %v, wakes %d, reanchors %d; want route 2 woken by a re-anchor", k.state[2], k.wakes, k.reanchors)
	}
	want := make([]float64, 1)
	k.m.sums(x, want)
	if !sameBits(k.usage[0], want[0]) || !sameBits(k.flowRate[0], 50+0.3+0.7) {
		t.Errorf("usage %v, flow rate %v after settling; want %v and %v", k.usage[0], k.flowRate[0], want[0], 50+0.3+0.7)
	}
}

// anchorRow moves row c's anchor, which kernelFor put on route 0, to route r.
func anchorRow(t *testing.T, k *kernel, c, r int) {
	t.Helper()
	for e := k.m.start[c]; e < k.m.start[c+1]; e++ {
		if k.m.route[e] == r {
			k.pin(k.rowAnchorRoute[c], r)
			k.rowAnchor[c], k.rowAnchorRoute[c] = k.entry[e], r
			k.addSums()
			return
		}
	}
	t.Fatalf("row %d has no entry for route %d", c, r)
}

// parkRoutes takes the given routes out of the pass at iterate 7 and leaves
// the sums, with their live prefix sums, that a pass without them adds up.
func parkRoutes(k *kernel, rs ...int) {
	for _, r := range rs {
		k.live = slices.DeleteFunc(k.live, func(l int32) bool { return int(l) == r })
		k.park(r, 7)
	}
	k.addSums()
}

// TestSettleTestsThePrefix parks route 1 ahead of route 2, which anchors the
// flow and the row with a term of 1, and settles. Where the sum is 1 without
// route 1 and 1 + 2⁻⁵² with it — the live prefix at half an ulp of 1, a tie
// that rounds to even, or route 1's own term at an ulp — settle must wake
// it; where the prefix is tiny it must not. Either way the sums settle
// leaves are the full ones, bit for bit.
func TestSettleTestsThePrefix(t *testing.T) {
	for _, c := range []struct {
		name   string
		x0, x1 float64
		coef   []float64 // the row's coefficients; nil for no row
		wake   bool
	}{
		{"flow, tiny prefix", 0x1p-60, 0x1p-70, nil, false},
		{"flow, live prefix at a tie", 0x1p-53, 0x1p-60, nil, true},
		{"row, tiny prefix", 0x1p-70, 0x1p-80, []float64{1, 1, 1}, false},
		{"row, live prefix at a tie", 0x1p-70, 0x1p-80, []float64{0x1p17, 1, 1}, true},
		{"row, parked prefix at an ulp", 0, 0x1p-70, []float64{1, 0x1p18, 1}, true},
	} {
		p := Problem{NumRoutes: 3, Flows: [][]int{{0, 1, 2}}}
		if c.coef != nil {
			p.Constraints = []Constraint{{Coef: map[int]float64{0: c.coef[0], 1: c.coef[1], 2: c.coef[2]}, Bound: 1}}
		}
		x := []float64{c.x0, c.x1, 1}
		k := kernelFor(t, p, x, []int{2})
		if c.coef != nil {
			anchorRow(t, k, 0, 2)
		}
		parkRoutes(k, 1)
		k.settle(7, false)
		if woke := k.state[1] != parked; woke != c.wake {
			t.Errorf("%s: route 1 woken = %v, want %v", c.name, woke, c.wake)
		}
		want := make([]float64, len(k.usage))
		k.m.sums(x, want)
		if !slices.EqualFunc(k.usage, want, sameBits) || !sameBits(k.flowRate[0], x[0]+x[1]+x[2]) {
			t.Errorf("%s: usage %v, flow rate %v; want %v and %v", c.name, k.usage, k.flowRate[0], want, x[0]+x[1]+x[2])
		}
	}
}

// TestSettleRetestsAfterWaking: row 0 fails its prefix test and wakes route
// 1, whose term then joins row 1's live prefix. Row 1 passed its test on the
// prefix the pass added up (2⁻⁵⁷ live, 8 · 2⁻⁶⁰ parked) and fails it on the
// prefix added up again, so route 2, parked in row 1 alone, must wake too.
func TestSettleRetestsAfterWaking(t *testing.T) {
	p := Problem{NumRoutes: 4, Flows: [][]int{{0, 1, 2, 3}}}
	p.Constraints = []Constraint{
		{Coef: map[int]float64{0: 1, 1: 0x1p22, 3: 1}, Bound: 1},
		{Coef: map[int]float64{0: 0x1p23, 1: 0x1p20, 2: 0x1p10, 3: 1}, Bound: 1},
	}
	k := kernelFor(t, p, []float64{0x1p-80, 0x1p-80, 0x1p-80, 1}, []int{3})
	anchorRow(t, k, 0, 3)
	anchorRow(t, k, 1, 3)
	parkRoutes(k, 1, 2)
	k.settle(7, false)
	if k.state[1] == parked || k.state[2] == parked || k.wakes != 2 {
		t.Errorf("states %v, wakes %d; want routes 1 and 2 woken", k.state, k.wakes)
	}
}

// TestReanchorKeepsThePrefixWhole re-anchors a flow whose routes 0 and 1, or
// 0 and 2, are parked: the routes parked ahead of the new anchor stay parked
// together when the test holds for all of them and the live routes between
// them, and wake together when it fails for any, here at 4 · 2⁻⁶² or at a
// live route of 0.5.
func TestReanchorKeepsThePrefixWhole(t *testing.T) {
	p := Problem{NumRoutes: 4, Flows: [][]int{{0, 1, 2, 3}}}
	for _, c := range []struct {
		name          string
		x             []float64
		anchor        int
		park          []int
		wantAnchor    int
		wantPre, wake int
	}{
		{"earlier anchor, kept", []float64{0x1p-80, 0x1p-81, 1, 1}, 3, []int{0, 1}, 2, 2, 0},
		{"earlier anchor, one visible", []float64{0x1p-80, 0x1p-62, 1, 1}, 3, []int{0, 1}, 2, 0, 2},
		{"later anchor, kept", []float64{0x1p-80, 0x1p-90, 0x1p-81, 1}, 1, []int{0, 2}, 3, 2, 0},
		{"later anchor, live route visible", []float64{0x1p-80, 0.5, 0x1p-81, 1}, 1, []int{0, 2}, 3, 0, 2},
	} {
		k := kernelFor(t, p, c.x, []int{c.anchor})
		k.unclipped[1] = false // clipped where it is live, so it cannot anchor
		parkRoutes(k, c.park...)
		k.reanchorFlow(0, 7, true)
		if k.flowAnchor[0] != c.wantAnchor || k.flowPre[0] != c.wantPre || k.wakes != c.wake {
			t.Errorf("%s: anchor %d, %d parked ahead of it, %d woken; want %d, %d, %d", c.name, k.flowAnchor[0], k.flowPre[0], k.wakes, c.wantAnchor, c.wantPre, c.wake)
		}
		k.addSums()
		if want := c.x[0] + c.x[1] + c.x[2] + c.x[3]; !sameBits(k.flowRate[0], want) {
			t.Errorf("%s: flow rate %v, want %v", c.name, k.flowRate[0], want)
		}
	}
}
