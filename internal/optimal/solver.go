package optimal

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/congestion"
)

// Constraint is one linear airtime constraint Σ_r coef_r · x_r ≤ Bound.
type Constraint struct {
	// Coef maps route index to its airtime coefficient in this
	// constraint (a sum of d_l values).
	Coef map[int]float64
	// Bound is the right-hand side (1, or 1−δ with a margin).
	Bound float64
}

// Problem is a concave network-utility maximization over route rates:
//
//	max Σ_f U_f(Σ_{r∈f} x_r)   s.t.  A x ≤ b,  0 ≤ x ≤ cap.
type Problem struct {
	// Flows maps each flow to the indices of its routes.
	Flows [][]int
	// Utilities gives each flow's utility (proportional fairness when nil).
	Utilities []congestion.Utility
	// Constraints are the linear airtime constraints. Coefficients are
	// expected to be non-negative and finite; a problem with any other
	// coefficient is still solved, by the full pass over every route.
	Constraints []Constraint
	// RateCap optionally caps each route's rate (bottleneck capacity);
	// nil or +Inf entries mean uncapped. Caps only speed up convergence:
	// a route can never carry more than its bottleneck.
	RateCap []float64
	// NumRoutes is the total number of routes.
	NumRoutes int
}

// SolveOptions tunes the solver.
type SolveOptions struct {
	// Iters is the number of proximal/dual iterations. The default
	// scales with the problem: 8000 plus 600·√routes (wide flows ramp
	// slower under the per-route gain normalization), capped at 40000.
	Iters int
	// Step is the dual/primal step size (default 0.05).
	Step float64
	// Gain is the primal gain on (U' − q) (default
	// congestion.DefaultUtilityScale, the controller's).
	Gain float64
}

func (o SolveOptions) itersFor(routes int) int {
	if o.Iters > 0 {
		return o.Iters
	}
	n := 8000 + int(600*math.Sqrt(float64(routes)))
	if n > 40000 {
		n = 40000
	}
	return n
}

func (o SolveOptions) step() float64 {
	if o.Step <= 0 {
		return 0.05
	}
	return o.Step
}

func (o SolveOptions) gain() float64 {
	if o.Gain <= 0 {
		return congestion.DefaultUtilityScale
	}
	return o.Gain
}

// Solution is the result of Solve.
type Solution struct {
	// X is the per-route rate vector.
	X []float64
	// FlowRates is the per-flow total rate.
	FlowRates []float64
	// Utility is Σ_f U_f at the solution.
	Utility float64
	// MaxViolation is max_c ((Ax)_c − b_c), ≤ ~0 when feasible.
	MaxViolation float64

	// LiveShare is the mean fraction of the routes the iteration pass
	// visited: 1 when every route was updated on every iteration. It
	// describes the work done, not the optimum.
	LiveShare float64

	// How often the kernel froze a route at its fixed point and resumed
	// one, took a route out of the pass and brought one back, and had to
	// re-anchor a sum that parked routes rest on; the equivalence tests
	// read them to prove each transition ran.
	freezes, thaws, parks, wakes, reanchors int
}

// rows is a constraint matrix in compressed sparse row form: row c is
// entries [start[c], start[c+1]) of route and coef, route indices
// ascending. Iterating the Coef maps directly would make every airtime sum
// follow Go's randomized map order, i.e. a different float summation order
// — and a different 16th decimal — on every run; sorted rows make the
// solver deterministic and keep map lookups out of the iteration loop.
type rows struct {
	start []int
	route []int
	coef  []float64
	bound []float64
}

// densify sorts the constraints of a problem with n routes into rows.
func densify(cons []Constraint, n int) (rows, error) {
	nnz := 0
	for _, con := range cons {
		nnz += len(con.Coef)
	}
	m := rows{
		start: make([]int, len(cons)+1),
		route: make([]int, nnz),
		coef:  make([]float64, nnz),
		bound: make([]float64, len(cons)),
	}
	for c, con := range cons {
		lo := m.start[c]
		hi := lo
		for r := range con.Coef {
			if r < 0 || r >= n {
				return rows{}, fmt.Errorf("optimal: constraint %d references route %d out of range", c, r)
			}
			m.route[hi] = r
			hi++
		}
		sort.Ints(m.route[lo:hi])
		for k := lo; k < hi; k++ {
			m.coef[k] = con.Coef[m.route[k]]
		}
		m.start[c+1] = hi
		m.bound[c] = con.Bound
	}
	return m, nil
}

// equal reports whether two matrices are the same problem data bit for
// bit — same rows in the same order — so that one solve serves both.
func (m rows) equal(o rows) bool {
	if !slices.Equal(m.start, o.start) || !slices.Equal(m.route, o.route) {
		return false
	}
	return slices.EqualFunc(m.coef, o.coef, sameBits) && slices.EqualFunc(m.bound, o.bound, sameBits)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sums stores every row's Σ coef·x, added in ascending route order, in out.
func (m rows) sums(x, out []float64) {
	for c := range out {
		var u float64
		for k := m.start[c]; k < m.start[c+1]; k++ {
			u += float64(m.coef[k] * x[m.route[k]])
		}
		out[c] = u
	}
}

// Solve maximizes the problem with a proximal primal update and dual
// subgradient prices — the same fixed-point structure as the EMPoWER
// controller, which for this concave program is the KKT point, i.e. the
// global optimum. The final iterate is projected onto the feasible set by
// uniform scaling if it slightly overshoots, so the reported rates are
// always feasible.
func Solve(p Problem, opts SolveOptions) (Solution, error) {
	if p.NumRoutes == 0 {
		return Solution{}, fmt.Errorf("optimal: no routes")
	}
	m, err := densify(p.Constraints, p.NumRoutes)
	if err != nil {
		return Solution{}, err
	}
	return solve(p, m, opts)
}

// Route states. A moving route is updated in full every iteration. A frozen
// route stays in the pass at a fixed point of the clipped map and adds its
// stored terms. A parked route has left the pass: its terms are absent from
// the sums, and (x, x̄, avg) stand at iterate at[r] until advance catches
// them up.
const (
	moving uint8 = iota
	frozen
	parked
)

// The sums may omit a parked term after the anchor while it is at most
// 2⁻⁵⁶ of the anchor's term, and the parked terms before the anchor while
// they and the live terms before it pass prefixAbsorbed with 2⁻⁵⁷; settle
// tests both on the live values after every pass. Those two shares are the
// constants a result depends on being small enough, and 2⁻⁵⁴ and 2⁻⁵⁶
// would already do. The others only decide when a route parks and which
// entry serves as the witness.
const (
	absorbShare = 0x1p-56
	preShare    = absorbShare / 2
	// parkShare and preParkShare leave a parked term 2⁸ of slack under the
	// anchor, so an anchor that hovers does not fail the test.
	parkShare    = absorbShare / 256
	preParkShare = preShare / 256
	// An anchor is the first unclipped entry within anchorSpan of the
	// largest one: early, so that more routes sit behind it.
	anchorSpan = 0x1p10
	// A sum nobody is parked in looks for a better anchor this often.
	anchorRetry = 32
)

// absorbed reports whether bound ≤ share·anchor, exactly: share is a power
// of two and the product is required to be normal, so it is not rounded. It
// scales the anchor because bound is usually subnormal, a slow operand. NaN
// fails; a zero bound needs no anchor.
func absorbed(bound, anchor, share float64) bool {
	s := anchor * share
	return bound == 0 || s >= 0x1p-1022 && bound <= s
}

// prefixAbsorbed reports whether the entries before the anchor of a sum of n
// entries — live terms the pass added up to q, parked terms each at most b —
// vanish against the anchor's term a: q ≤ share·a and N·b ≤ share·a, with N
// the power of two above n, so that both tests are exact. With share 2⁻⁵⁷
// the prefix summed with its parked terms is at most
// (1+2⁻⁵³)ⁿ/(1−2⁻⁵³)ⁿ·(q + N·b) ≤ 2·2⁻⁵⁶·a (n < 2⁵⁰), under half an ulp of
// a, so fl(prefix + a) = a with or without the parked terms, and from the
// anchor on the sum is the live-only sum.
func prefixAbsorbed(q, b, a float64, n int, share float64) bool {
	return absorbed(q, a, share) && absorbed(float64(uint64(1)<<bits.Len(uint(n)))*b, a, share)
}

// kernel is the state of one solve that the rare transitions — park, wake,
// re-anchor — share with the iteration loop in solve.
type kernel struct {
	m       rows
	entry   []int // row-major entry → index of the same entry route-major
	rtStart []int // route r's entries are [rtStart[r], rtStart[r+1]) of
	rtRow   []int // rtRow, rtCoef and term, rows ascending
	rtCoef  []float64
	flows   [][]int
	flowOf  []int
	gain    []float64 // per route; equal within a flow

	cap []float64

	keep, alpha    float64
	iters, avgFrom int
	canPark        bool // the problem admits parking; see newKernel

	x, xbar, avg    []float64
	term            []float64 // coef·x per entry, rounded once
	state           []uint8
	at              []int  // parked: the iterate (x, x̄, avg) stand at
	unclipped       []bool // live: the last update was not clipped
	live            []int32
	lambda, usage   []float64 // per row: price, and Σ coef·x of the iterate read next
	prime, flowRate []float64 // per flow: U′, and Σ x likewise

	// The absorption invariant, per row sum and per flow sum. A parked route
	// after the anchor has its term below bound ≤ absorbShare · the anchor's
	// term. The routes parked before it, pre of them, have their terms below
	// preBound, and prefixAbsorbed holds for preBound and q, the live sum
	// the pass had accumulated when it reached the anchor.
	rowAnchor      []int // index into term, −1 for none
	rowAnchorRoute []int
	rowBound       []float64
	rowParked      []int // after and before the anchor
	rowPre         []int
	rowPreBound    []float64
	rowQ           []float64
	flowAnchor     []int
	flowParked     []int
	flowPre        []int
	flowPreBound   []float64
	flowQ          []float64
	// bx and bxbar run the clipped recurrence from the largest parked x
	// and x̄ of a flow: by monotonicity of fl(×) and fl(+) they stay above
	// every parked route's. bx is the flow sum's bound after the anchor.
	bx, bxbar []float64
	pinned    []int // route → sums anchored on it; a pinned route stays live
	// frontier lists the parked routes of a flow that no other parked
	// route of the flow undercuts in every coefficient.
	frontier      [][]int
	frontierStale []bool

	parks, wakes, reanchors int
}

// advance runs route r's clipped recurrence up to the given iterate:
// x ← fl(keep·x), x̄ ← fl(fl(keep·x̄) + fl(α·x)), avg += x from avgFrom on —
// what the pass computes for a route whose inner ≤ 0. It stops at a fixed
// point and finishes avg from there.
func (k *kernel) advance(r, to int) {
	x, xbar, avg := k.x[r], k.xbar[r], k.avg[r]
	for t := k.at[r]; t < to; t++ {
		nx := mulTiny(k.keep, x)
		nxbar := mulTiny(k.keep, xbar) + mulTiny(k.alpha, x)
		if nx == x && nxbar == xbar {
			if from := max(t, k.avgFrom); from < to {
				avg = addRepeated(avg, x, to-from)
			}
			break
		}
		x, xbar = nx, nxbar
		if t >= k.avgFrom {
			avg += x
		}
	}
	k.x[r], k.xbar[r], k.avg[r], k.at[r] = x, xbar, avg, to
}

// finish is advance(r, iters) for avg alone, all the read-out takes from a
// parked route. From tinyFactor up fl(keep·x) < x, so x there is a bare
// multiply with no fixed-point test; below it x's fixed point ends the
// replay, and addRepeated finishes avg. So does the first term that
// fl(avg + x) leaves at avg: x never grows and rounding is monotone, so no
// later term moves avg either.
func (k *kernel) finish(r int) {
	keep, x, avg := k.keep, k.x[r], k.avg[r]
	for t := k.at[r]; t < k.iters; t++ {
		if x >= tinyFactor {
			x = float64(keep * x)
		} else if nx := mulGrid(keep, x); nx != x {
			x = nx
		} else {
			avg = addRepeated(avg, x, k.iters-max(t, k.avgFrom))
			break
		}
		if t >= k.avgFrom {
			s := avg + x
			if s == avg {
				break
			}
			avg = s
		}
	}
	k.avg[r] = avg
}

// price is route r's q = Σ λ·coef, added in ascending row order.
func (k *kernel) price(r int) float64 {
	var q float64
	for j := k.rtStart[r]; j < k.rtStart[r+1]; j++ {
		q += float64(k.lambda[k.rtRow[j]] * k.rtCoef[j])
	}
	return q
}

// below reports whether price(s) ≤ price(r) under any prices λ ≥ 0: every
// entry of s has an entry of r in the same row with at least its
// coefficient. Then s's sum is r's with some terms lowered or dropped, and a
// float sum of non-negative terms is monotone in each.
func (k *kernel) below(s, r int) bool {
	j, end := k.rtStart[r], k.rtStart[r+1]
	for i := k.rtStart[s]; i < k.rtStart[s+1]; i++ {
		for j < end && k.rtRow[j] < k.rtRow[i] {
			j++
		}
		if j == end || k.rtRow[j] != k.rtRow[i] || k.rtCoef[j] < k.rtCoef[i] {
			return false
		}
	}
	return true
}

// cover adds parked route r to its flow's frontier unless a member
// undercuts it, and drops the members it undercuts.
func (k *kernel) cover(r int) {
	f := k.flowOf[r]
	fr := k.frontier[f]
	for _, s := range fr {
		if k.below(s, r) {
			return
		}
	}
	w := 0
	for _, s := range fr {
		if !k.below(r, s) {
			fr[w] = s
			w++
		}
	}
	k.frontier[f] = append(fr[:w], r)
}

// park takes route r, whose update for iterate it was clipped and whose
// terms tryPark found absorbed, out of the pass.
func (k *kernel) park(r, it int) {
	k.state[r], k.at[r] = parked, it
	for j := k.rtStart[r]; j < k.rtStart[r+1]; j++ {
		c := k.rtRow[j]
		k.rowParked[c]++
		if r < k.rowAnchorRoute[c] {
			k.rowPre[c]++
			k.rowPreBound[c] = max(k.rowPreBound[c], k.term[j])
		} else {
			k.rowBound[c] = max(k.rowBound[c], k.term[j])
		}
	}
	f := k.flowOf[r]
	if k.flowParked[f] == 0 {
		k.bx[f], k.bxbar[f] = 0, 0
		k.frontier[f], k.frontierStale[f] = k.frontier[f][:0], false
	}
	k.flowParked[f]++
	if r < k.flowAnchor[f] {
		k.flowPre[f]++
		k.flowPreBound[f] = max(k.flowPreBound[f], k.x[r])
	}
	k.bx[f], k.bxbar[f] = max(k.bx[f], k.x[r]), max(k.bxbar[f], k.xbar[r])
	if !k.frontierStale[f] {
		k.cover(r)
	}
	k.parks++
}

// tryPark reports whether live route r, just clipped, may leave the pass: it
// anchors no sum, and each of its terms is tiny against the anchor of the
// flow or row: after the anchor against the anchor's new term, which the
// ascending pass has already written; before it, together with the live
// terms before it, against the anchor's term and live prefix sum of the last
// pass.
func (k *kernel) tryPark(r int) bool {
	f := k.flowOf[r]
	a := k.flowAnchor[f]
	if a < 0 || k.pinned[r] > 0 || !hides(r, a, k.x[r], k.x[a], k.flowQ[f], len(k.flows[f])) {
		return false
	}
	for j := k.rtStart[r]; j < k.rtStart[r+1]; j++ {
		c := k.rtRow[j]
		if a := k.rowAnchor[c]; a < 0 || !hides(r, k.rowAnchorRoute[c], k.term[j], k.term[a], k.rowQ[c], k.m.start[c+1]-k.m.start[c]) {
			return false
		}
	}
	return true
}

// hides is tryPark's test of route r's term v in a sum of n entries anchored
// on route a, whose term is av and whose live prefix summed to q.
func hides(r, a int, v, av, q float64, n int) bool {
	if r > a {
		return absorbed(v, av, parkShare)
	}
	return prefixAbsorbed(q, v, av, n, preParkShare)
}

// wake brings parked route r back into the pass at the given iterate.
func (k *kernel) wake(r, it int) {
	k.advance(r, it)
	k.state[r], k.unclipped[r] = moving, false
	for j := k.rtStart[r]; j < k.rtStart[r+1]; j++ {
		k.term[j] = mulTiny(k.rtCoef[j], k.x[r])
		c := k.rtRow[j]
		if r < k.rowAnchorRoute[c] {
			if k.rowPre[c]--; k.rowPre[c] == 0 {
				k.rowPreBound[c] = 0
			}
		}
		if k.rowParked[c]--; k.rowParked[c] == 0 {
			k.rowBound[c] = 0
		}
	}
	f := k.flowOf[r]
	if r < k.flowAnchor[f] {
		if k.flowPre[f]--; k.flowPre[f] == 0 {
			k.flowPreBound[f] = 0
		}
	}
	k.flowParked[f]--
	if slices.Contains(k.frontier[f], r) {
		k.frontierStale[f] = true
	}
	i, _ := slices.BinarySearch(k.live, int32(r))
	k.live = slices.Insert(k.live, i, int32(r))
	k.wakes++
}

// stillClipped is the wake test before the pass of iteration t: it returns
// with every parked route's update for this iteration clipped, waking the
// others. inner = x̄ + g·(U′ − q) is monotone in x̄ and antitone in q, so a
// frontier route's exact q against the flow's x̄ bound speaks for every
// route it undercuts; only when that alarm rings — or a price is not finite,
// which voids the monotonicity — is each parked route tested by itself, with
// the bound first and its own caught-up x̄ if that is not enough.
func (k *kernel) stillClipped(t int, finite bool) {
	for f, rs := range k.flows {
		if k.flowParked[f] == 0 {
			continue
		}
		if k.frontierStale[f] {
			k.frontier[f], k.frontierStale[f] = k.frontier[f][:0], false
			for _, r := range rs {
				if k.state[r] == parked {
					k.cover(r)
				}
			}
		}
		alarm := !finite
		for _, s := range k.frontier[f] {
			if !(k.bxbar[f]+float64(k.gain[s]*(k.prime[f]-k.price(s))) <= 0) {
				alarm = true
			}
		}
		if alarm {
			for _, r := range rs {
				if k.state[r] != parked {
					continue
				}
				push := float64(k.gain[r] * (k.prime[f] - k.price(r)))
				if k.bxbar[f]+push <= 0 {
					continue
				}
				if k.advance(r, t); !(k.xbar[r]+push <= 0) {
					k.wake(r, t)
				}
			}
		}
		// The bounds move on to the iterate the pass is about to write.
		k.bxbar[f] = mulTiny(k.keep, k.bxbar[f]) + mulTiny(k.alpha, k.bx[f])
		k.bx[f] = mulTiny(k.keep, k.bx[f])
	}
}

// settle tests the absorption invariant on the iterate the pass has just
// written, it, and restores it where it fails. Where the part after the
// anchor fails, the sum takes a new anchor and the parked routes that anchor
// does not cover wake; where the part before it fails, its parked routes
// wake. The sums of the pass, which lack the woken terms, are then added
// again — which may raise another sum's live prefix — and the prefixes
// tested again, until a round wakes nothing. On a retry round a sum may also
// move on: freely while nothing is parked in it, and from an anchor that was
// clipped, so that a late or dying anchor does not keep routes from parking.
func (k *kernel) settle(it int, retry bool) {
	before := k.wakes
	for c, a := range k.rowAnchor {
		if a >= 0 && !absorbed(k.rowBound[c], k.term[a], absorbShare) {
			k.reanchorRow(c, it, true)
		} else if retry && (a < 0 || k.rowParked[c] == 0 || !k.unclipped[k.rowAnchorRoute[c]]) {
			k.reanchorRow(c, it, false)
		}
	}
	for f, a := range k.flowAnchor {
		if a >= 0 && !absorbed(k.bx[f], k.x[a], absorbShare) {
			k.reanchorFlow(f, it, true)
		} else if retry && (a < 0 || k.flowParked[f] == 0 || !k.unclipped[a]) {
			k.reanchorFlow(f, it, false)
		}
	}
	for {
		k.wakePrefixes(it)
		if k.wakes == before {
			return
		}
		before = k.wakes
		k.addSums()
	}
}

// wakePrefixes wakes the routes parked before the anchor of every sum whose
// prefix test fails.
func (k *kernel) wakePrefixes(it int) {
	for c, a := range k.rowAnchor {
		lo, hi := k.m.start[c], k.m.start[c+1]
		if k.rowPre[c] == 0 || prefixAbsorbed(k.rowQ[c], k.rowPreBound[c], k.term[a], hi-lo, preShare) {
			continue
		}
		for e := lo; e < hi && k.m.route[e] < k.rowAnchorRoute[c]; e++ {
			if r := k.m.route[e]; k.state[r] == parked {
				k.wake(r, it)
			}
		}
	}
	for f, a := range k.flowAnchor {
		if k.flowPre[f] == 0 || prefixAbsorbed(k.flowQ[f], k.flowPreBound[f], k.x[a], len(k.flows[f]), preShare) {
			continue
		}
		for _, r := range k.flows[f] {
			if r < a && k.state[r] == parked {
				k.wake(r, it)
			}
		}
	}
}

// pin moves an anchor's pin from route old to route new (−1 for none).
func (k *kernel) pin(old, new int) {
	if old >= 0 {
		k.pinned[old]--
	}
	if new >= 0 {
		k.pinned[new]++
	}
}

// reanchorRow anchors row c on its first live, unclipped entry within
// anchorSpan of the largest such term. It keeps the parked routes after the
// new anchor that are tiny against it with parkShare to spare, and the
// parked routes before it together if the prefix test holds with
// preParkShare, on the live prefix sum added up again; it wakes the others.
// A parked route's stored x is the one it parked with or was last caught up
// to, and x only decays while parked, so coef·x bounds its term. Unless
// forced by a failed test, an anchor that routes are parked behind stays
// while it is within anchorSpan itself.
func (k *kernel) reanchorRow(c, it int, forced bool) {
	lo, hi := k.m.start[c], k.m.start[c+1]
	var largest float64
	for e := lo; e < hi; e++ {
		if r := k.m.route[e]; k.state[r] != parked && k.unclipped[r] {
			largest = max(largest, k.term[k.entry[e]])
		}
	}
	if old := k.rowAnchor[c]; !forced && old >= 0 && k.rowParked[c] > 0 && k.term[old]*anchorSpan >= largest {
		return
	}
	if k.rowParked[c] > 0 {
		k.reanchors++
	}
	anchor, route := -1, -1
	for e := lo; e < hi && largest > 0; e++ {
		if r := k.m.route[e]; k.state[r] != parked && k.unclipped[r] && k.term[k.entry[e]]*anchorSpan >= largest {
			anchor, route = k.entry[e], r
			break
		}
	}
	k.pin(k.rowAnchorRoute[c], route)
	k.rowAnchor[c], k.rowAnchorRoute[c] = anchor, route
	var q, pre float64
	for e := lo; e < hi && k.m.route[e] < route; e++ {
		if r := k.m.route[e]; k.state[r] == parked {
			pre = max(pre, mulTiny(k.m.coef[e], k.x[r]))
		} else {
			q += k.term[k.entry[e]]
		}
	}
	keepPre := anchor >= 0 && prefixAbsorbed(q, pre, k.term[anchor], hi-lo, preParkShare)
	var bound float64
	n := 0
	for e := lo; e < hi; e++ {
		r := k.m.route[e]
		if k.state[r] != parked {
			continue
		}
		if b := mulTiny(k.m.coef[e], k.x[r]); r < route && keepPre {
			n++
		} else if anchor >= 0 && r > route && absorbed(b, k.term[anchor], parkShare) {
			bound = max(bound, b)
		} else {
			k.wake(r, it)
		}
	}
	if !keepPre {
		pre = 0
	}
	k.rowQ[c], k.rowPre[c], k.rowPreBound[c] = q, n, pre
	if k.rowParked[c] > 0 {
		k.rowBound[c] = bound
	}
}

// reanchorFlow is reanchorRow for a flow sum, whose terms are the x.
func (k *kernel) reanchorFlow(f, it int, forced bool) {
	var largest float64
	for _, r := range k.flows[f] {
		if k.state[r] != parked && k.unclipped[r] {
			largest = max(largest, k.x[r])
		}
	}
	if old := k.flowAnchor[f]; !forced && old >= 0 && k.flowParked[f] > 0 && k.x[old]*anchorSpan >= largest {
		return
	}
	if k.flowParked[f] > 0 {
		k.reanchors++
	}
	anchor := -1
	for _, r := range k.flows[f] {
		if largest > 0 && k.state[r] != parked && k.unclipped[r] && k.x[r]*anchorSpan >= largest && (anchor < 0 || r < anchor) {
			anchor = r
		}
	}
	k.pin(k.flowAnchor[f], anchor)
	k.flowAnchor[f] = anchor
	var q, pre float64
	for _, r := range k.flows[f] {
		if r >= anchor {
			break
		} else if k.state[r] == parked {
			pre = max(pre, min(k.x[r], k.bx[f]))
		} else {
			q += k.x[r]
		}
	}
	keepPre := anchor >= 0 && prefixAbsorbed(q, pre, k.x[anchor], len(k.flows[f]), preParkShare)
	var bound float64
	n := 0
	for _, r := range k.flows[f] {
		if k.state[r] != parked {
			continue
		}
		if b := min(k.x[r], k.bx[f]); r < anchor && keepPre {
			n++
			bound = max(bound, b)
		} else if anchor >= 0 && r > anchor && absorbed(b, k.x[anchor], parkShare) {
			bound = max(bound, b)
		} else {
			k.wake(r, it)
		}
	}
	if !keepPre {
		pre = 0
	}
	k.flowQ[f], k.flowPre[f], k.flowPreBound[f] = q, n, pre
	if k.flowParked[f] > 0 {
		k.bx[f] = bound
	}
}

// routeFlows returns each route's flow, or an error for a route index out
// of range, a route in no flow, or a route in two.
func routeFlows(p Problem) ([]int, error) {
	flowOf := make([]int, p.NumRoutes)
	for i := range flowOf {
		flowOf[i] = -1
	}
	for f, rs := range p.Flows {
		for _, r := range rs {
			if r < 0 || r >= p.NumRoutes {
				return nil, fmt.Errorf("optimal: route index %d out of range", r)
			}
			if g := flowOf[r]; g >= 0 && g != f {
				return nil, fmt.Errorf("optimal: route %d belongs to flows %d and %d", r, g, f)
			}
			flowOf[r] = f
		}
	}
	for r, f := range flowOf {
		if f < 0 {
			return nil, fmt.Errorf("optimal: route %d belongs to no flow", r)
		}
	}
	return flowOf, nil
}

// newKernel lays a validated problem out for the iteration: the transposed
// rows, the gains, the warm start with its sums, every route in the pass and
// no sum anchored.
func newKernel(p Problem, m rows, flowOf []int, opts SolveOptions) *kernel {
	n, rows, flows := p.NumRoutes, len(m.bound), len(p.Flows)
	k := &kernel{
		m: m, flows: make([][]int, flows), flowOf: flowOf,
		alpha: opts.step(), iters: opts.itersFor(n),
		entry: make([]int, len(m.route)), rtStart: make([]int, n+1),
		rtRow: make([]int, len(m.route)), rtCoef: make([]float64, len(m.route)),
		gain: make([]float64, n), cap: make([]float64, n),
		x: make([]float64, n), xbar: make([]float64, n), avg: make([]float64, n),
		term: make([]float64, len(m.route)), state: make([]uint8, n), at: make([]int, n),
		unclipped: make([]bool, n), live: make([]int32, n),
		lambda: make([]float64, rows), usage: make([]float64, rows),
		prime: make([]float64, flows), flowRate: make([]float64, flows),
		rowAnchor: make([]int, rows), rowAnchorRoute: make([]int, rows),
		rowBound: make([]float64, rows), rowParked: make([]int, rows),
		rowPre: make([]int, rows), rowPreBound: make([]float64, rows), rowQ: make([]float64, rows),
		flowAnchor: make([]int, flows), flowParked: make([]int, flows),
		flowPre: make([]int, flows), flowPreBound: make([]float64, flows), flowQ: make([]float64, flows),
		bx: make([]float64, flows), bxbar: make([]float64, flows),
		pinned: make([]int, n), frontier: make([][]int, flows), frontierStale: make([]bool, flows),
	}
	k.keep = 1 - k.alpha
	// The flows' routes ascending, once each: the order of their sums.
	for f, rs := range p.Flows {
		k.flows[f] = slices.Clone(rs)
		slices.Sort(k.flows[f])
		k.flows[f] = slices.Compact(k.flows[f])
	}
	// Ergodic averaging over the last third of the run: with a fixed
	// step the iterates hover around the optimizer, and the average is
	// the reliable read-out.
	k.avgFrom = k.iters * 2 / 3
	for r := range k.cap {
		k.cap[r] = math.Inf(1)
		if p.RateCap != nil && r < len(p.RateCap) && p.RateCap[r] > 0 {
			k.cap[r] = p.RateCap[r]
		}
	}

	// Transpose the rows: route r's entries are [rtStart[r], rtStart[r+1])
	// of rtRow and rtCoef, rows ascending.
	for _, r := range m.route {
		k.rtStart[r+1]++
	}
	for r := 0; r < n; r++ {
		k.rtStart[r+1] += k.rtStart[r]
	}
	next := append([]int(nil), k.rtStart[:n]...)
	for c := range m.bound {
		for e := m.start[c]; e < m.start[c+1]; e++ {
			j := next[m.route[e]]
			next[m.route[e]]++
			k.rtRow[j], k.rtCoef[j], k.entry[e] = c, m.coef[e], j
		}
	}

	// With many routes per flow, every route initially sees the same
	// positive (U' − q) term, so the aggregate primal gain grows with the
	// route count and can overshoot before the duals price it. A mild
	// square-root normalization tames wide flows without starving the
	// narrow ones; the ergodic average absorbs the residual oscillation
	// either way.
	gain := opts.gain()
	for _, rs := range p.Flows {
		g := gain / math.Sqrt(float64(len(rs)))
		for _, r := range rs {
			k.gain[r] = g
		}
	}
	// Warm start: each route begins at an equal share of its flow's
	// bottleneck budget. Starting above the optimum is cheap — the duals
	// price overload within tens of iterations — while starting at zero
	// costs a slow ramp on fast instances.
	for _, rs := range p.Flows {
		for _, r := range rs {
			c := k.cap[r]
			if math.IsInf(c, 1) {
				c = 1000
			}
			k.x[r] = 0.6 * c / float64(len(rs))
			k.xbar[r] = k.x[r]
		}
	}
	for r := 0; r < n; r++ {
		k.live[r] = int32(r)
		for j := k.rtStart[r]; j < k.rtStart[r+1]; j++ {
			k.term[j] = float64(k.rtCoef[j] * k.x[r])
		}
	}
	k.addSums()
	for c := range k.rowAnchor {
		k.rowAnchor[c], k.rowAnchorRoute[c] = -1, -1
	}
	for f := range k.flowAnchor {
		k.flowAnchor[f] = -1
	}
	// Parking rests on non-negative terms (partial sums never fall), on a
	// clipped x that never grows (0 < keep < 1) and on g > 0 (the wake test's
	// monotonicity). Any other input is solved by the full pass.
	k.canPark = k.keep > 0 && k.keep < 1 && k.alpha > 0 && gain > 0
	for _, c := range k.rtCoef {
		k.canPark = k.canPark && c >= 0 && c <= math.MaxFloat64
	}
	return k
}

// addSums recomputes usage and flowRate from the live routes' stored terms,
// every term in its place of the ascending sum, and the live prefix sums.
func (k *kernel) addSums() {
	clear(k.usage)
	clear(k.flowRate)
	for _, r32 := range k.live {
		r := int(r32)
		if k.pinned[r] > 0 {
			k.notePrefix(r)
		}
		for j := k.rtStart[r]; j < k.rtStart[r+1]; j++ {
			k.usage[k.rtRow[j]] += k.term[j]
		}
		k.flowRate[k.flowOf[r]] += k.x[r]
	}
}

// notePrefix records, for every sum anchored on route r, the live prefix sum
// the ascending pass has added up before r's term.
func (k *kernel) notePrefix(r int) {
	for j := k.rtStart[r]; j < k.rtStart[r+1]; j++ {
		if c := k.rtRow[j]; k.rowAnchor[c] == j {
			k.rowQ[c] = k.usage[c]
		}
	}
	if f := k.flowOf[r]; k.flowAnchor[f] == r {
		k.flowQ[f] = k.flowRate[f]
	}
}

// solve is Solve on densified constraints: m replaces p.Constraints.
func solve(p Problem, m rows, opts SolveOptions) (Solution, error) {
	flowOf, err := routeFlows(p)
	if err != nil {
		return Solution{}, err
	}
	util := make([]congestion.Utility, len(p.Flows))
	for f := range util {
		if p.Utilities != nil && f < len(p.Utilities) && p.Utilities[f] != nil {
			util[f] = p.Utilities[f]
		} else {
			util[f] = congestion.ProportionalFairness{}
		}
	}
	k := newKernel(p, m, flowOf, opts)
	// usage[c] = Σ_r coef·x_r and flowRate[f] = Σ_{r∈f} x_r belong to the
	// iterate the coming iteration reads. The route pass below accumulates
	// them for the next iterate as it writes it: it visits routes in
	// ascending order, so each sum adds the same terms in the same order
	// as a pass over that row or flow alone. term caches each entry's
	// coef·x_r, rounded once, for the routes that stop moving.
	n, iters, avgFrom, alpha, keep := p.NumRoutes, k.iters, k.avgFrom, k.alpha, k.keep
	rtStart, rtRow, rtCoef, perRouteGain, cap := k.rtStart, k.rtRow, k.rtCoef, k.gain, k.cap
	x, xbar, avg, term, state := k.x, k.xbar, k.avg, k.term, k.state
	lambda, usage, prime, flowRate := k.lambda, k.usage, k.prime, k.flowRate
	sol := Solution{FlowRates: make([]float64, len(p.Flows))}
	visits := 0

	for t := 0; t < iters; t++ {
		// Dual update from the current iterate's usages.
		finite := true
		for c, u := range usage {
			l := lambda[c] + float64(alpha*(u-m.bound[c]))
			if l < 0 {
				l = 0
			}
			finite = finite && l <= math.MaxFloat64
			lambda[c] = l
			usage[c] = 0
		}
		// One marginal utility per flow: every route of a flow sees the
		// same U'(flow rate).
		for f, rate := range flowRate {
			prime[f] = util[f].Prime(rate)
			flowRate[f] = 0
		}
		if k.parks > k.wakes {
			k.stillClipped(t, finite)
		}
		// Proximal primal update of the live routes, x and x̄ in place. A
		// route found at a fixed point of the clipped map is frozen: while
		// its update stays clipped — decided by inner, from normal-range
		// operands and one add — recomputing x, x̄ and coef·x would reproduce
		// the stored values bit for bit, so the pass adds the stored terms
		// and multiplies nothing. The first unclipped update runs in full
		// again. No value is flushed, rounded or compared to a threshold.
		parkable := k.canPark && finite
		live, w := k.live, 0
		visits += len(live)
		for _, r32 := range live {
			r := int(r32)
			lo, hi := rtStart[r], rtStart[r+1]
			f := flowOf[r]
			inner := xbar[r] + float64(perRouteGain[r]*(prime[f]-k.price(r)))
			// Clipped, the update ignores inner (α·max(0, inner) adds ±0)
			// and maps (x, x̄) to a function of (x, x̄) alone.
			clipped := inner <= 0
			k.unclipped[r] = !clipped
			if state[r] == frozen && !clipped {
				state[r] = moving
				sol.thaws++
			}
			if state[r] == moving {
				if inner < 0 {
					inner = 0
				}
				nx := mulTiny(keep, x[r]) + float64(alpha*inner)
				if nx > cap[r] {
					nx = cap[r]
				}
				nxbar := mulTiny(keep, xbar[r]) + mulTiny(alpha, x[r])
				if clipped && nx == x[r] && nxbar == xbar[r] {
					state[r] = frozen
					sol.freezes++
				} else {
					x[r], xbar[r] = nx, nxbar
					for j := lo; j < hi; j++ {
						term[j] = mulTiny(rtCoef[j], nx)
					}
				}
			}
			if t >= avgFrom {
				avg[r] += x[r]
			}
			if clipped && parkable && k.tryPark(r) {
				k.park(r, t+1)
				continue
			}
			if k.pinned[r] > 0 {
				k.notePrefix(r)
			}
			live[w] = r32
			w++
			for j := lo; j < hi; j++ {
				usage[rtRow[j]] += term[j]
			}
			flowRate[f] += x[r]
		}
		k.live = live[:w]
		if k.canPark {
			k.settle(t+1, t%anchorRetry == 0)
		}
	}
	for r := range state {
		if state[r] == parked {
			k.finish(r)
		}
	}
	sol.parks, sol.wakes, sol.reanchors = k.parks, k.wakes, k.reanchors
	sol.LiveShare = float64(visits) / (float64(iters) * float64(n))
	// avgFrom < iters, so at least one iterate was averaged.
	for r := 0; r < n; r++ {
		x[r] = avg[r] / float64(iters-avgFrom)
	}

	// Project onto feasibility by uniform scaling if needed.
	m.sums(x, usage)
	worst := 0.0
	for c, u := range usage {
		if b := m.bound[c]; b > 0 && u/b > worst {
			worst = u / b
		}
	}
	if worst > 1 {
		for r := range x {
			x[r] /= worst
		}
		m.sums(x, usage)
	}

	sol.X = x
	for r := 0; r < n; r++ {
		sol.FlowRates[flowOf[r]] += x[r]
	}
	for f := range p.Flows {
		sol.Utility += util[f].Value(sol.FlowRates[f])
	}
	sol.MaxViolation = math.Inf(-1)
	for c, u := range usage {
		if v := u - m.bound[c]; v > sol.MaxViolation {
			sol.MaxViolation = v
		}
	}
	if len(usage) == 0 {
		sol.MaxViolation = 0
	}
	return sol, nil
}
