package optimal

import (
	"fmt"
	"math"
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
	// Constraints are the linear airtime constraints.
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
	// Gain is the primal gain on (U' − q) (default 50; see
	// congestion.Options.UtilityScale).
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
		return 50
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

	// freezes and thaws count how often the kernel parked a route at its
	// fixed point and how often it had to resume one; the equivalence
	// tests read them to prove both transitions ran.
	freezes, thaws int
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
			u += m.coef[k] * x[m.route[k]]
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

// solve is Solve on densified constraints: m replaces p.Constraints.
func solve(p Problem, m rows, opts SolveOptions) (Solution, error) {
	n := p.NumRoutes
	flowOf := make([]int, n)
	for i := range flowOf {
		flowOf[i] = -1
	}
	for f, rs := range p.Flows {
		for _, r := range rs {
			if r < 0 || r >= n {
				return Solution{}, fmt.Errorf("optimal: route index %d out of range", r)
			}
			flowOf[r] = f
		}
	}
	for r, f := range flowOf {
		if f < 0 {
			return Solution{}, fmt.Errorf("optimal: route %d belongs to no flow", r)
		}
	}
	util := make([]congestion.Utility, len(p.Flows))
	for f := range util {
		if p.Utilities != nil && f < len(p.Utilities) && p.Utilities[f] != nil {
			util[f] = p.Utilities[f]
		} else {
			util[f] = congestion.ProportionalFairness{}
		}
	}
	cap := make([]float64, n)
	for r := range cap {
		cap[r] = math.Inf(1)
		if p.RateCap != nil && r < len(p.RateCap) && p.RateCap[r] > 0 {
			cap[r] = p.RateCap[r]
		}
	}

	// Transpose the rows: route r's entries are [rtStart[r], rtStart[r+1])
	// of rtRow and rtCoef, rows ascending.
	rtStart := make([]int, n+1)
	for _, r := range m.route {
		rtStart[r+1]++
	}
	for r := 0; r < n; r++ {
		rtStart[r+1] += rtStart[r]
	}
	rtRow := make([]int, len(m.route))
	rtCoef := make([]float64, len(m.route))
	next := append([]int(nil), rtStart[:n]...)
	for c := range m.bound {
		for k := m.start[c]; k < m.start[c+1]; k++ {
			j := next[m.route[k]]
			next[m.route[k]]++
			rtRow[j], rtCoef[j] = c, m.coef[k]
		}
	}

	alpha, gain := opts.step(), opts.gain()
	keep := 1 - alpha
	// With many routes per flow, every route initially sees the same
	// positive (U' − q) term, so the aggregate primal gain grows with the
	// route count and can overshoot before the duals price it. A mild
	// square-root normalization tames wide flows without starving the
	// narrow ones; the ergodic average below absorbs the residual
	// oscillation either way.
	perRouteGain := make([]float64, n)
	for _, rs := range p.Flows {
		g := gain / math.Sqrt(float64(len(rs)))
		for _, r := range rs {
			perRouteGain[r] = g
		}
	}
	x := make([]float64, n)
	xbar := make([]float64, n)
	// Warm start: each route begins at an equal share of its flow's
	// bottleneck budget. Starting above the optimum is cheap — the duals
	// price overload within tens of iterations — while starting at zero
	// costs a slow ramp on fast instances.
	for _, rs := range p.Flows {
		for _, r := range rs {
			c := cap[r]
			if math.IsInf(c, 1) {
				c = 1000
			}
			x[r] = 0.6 * c / float64(len(rs))
			xbar[r] = x[r]
		}
	}
	lambda := make([]float64, len(m.bound))
	// usage[c] = Σ_r coef·x_r and flowRate[f] = Σ_{r∈f} x_r belong to the
	// iterate the coming iteration reads. The route pass below accumulates
	// them for the next iterate as it writes it: it visits routes in
	// ascending order, so each sum adds the same terms in the same order
	// as a pass over that row or flow alone. term caches each entry's
	// coef·x_r, rounded once, for the routes that stop moving.
	usage := make([]float64, len(m.bound))
	flowRate := make([]float64, len(p.Flows))
	prime := make([]float64, len(p.Flows))
	term := make([]float64, len(rtCoef))
	frozen := make([]bool, n)
	for r := 0; r < n; r++ {
		for k := rtStart[r]; k < rtStart[r+1]; k++ {
			term[k] = rtCoef[k] * x[r]
			usage[rtRow[k]] += term[k]
		}
		flowRate[flowOf[r]] += x[r]
	}
	iters := opts.itersFor(n)
	// Ergodic averaging over the last third of the run: with a fixed
	// step the iterates hover around the optimizer, and the average is
	// the reliable read-out.
	avg := make([]float64, n)
	avgFrom := iters * 2 / 3
	sol := Solution{FlowRates: make([]float64, len(p.Flows))}

	for t := 0; t < iters; t++ {
		// Dual update from the current iterate's usages.
		for c, u := range usage {
			l := lambda[c] + alpha*(u-m.bound[c])
			if l < 0 {
				l = 0
			}
			lambda[c] = l
			usage[c] = 0
		}
		// One marginal utility per flow: every route of a flow sees the
		// same U'(flow rate).
		for f, rate := range flowRate {
			prime[f] = util[f].Prime(rate)
			flowRate[f] = 0
		}
		// Proximal primal update, x and x̄ in place. A route the optimum
		// does not use is clipped every iteration, so x and x̄ decay by 1−α
		// until they reach a fixed point of the clipped map in
		// round-to-nearest — a subnormal, on which every multiply costs
		// ≈ 85 cycles, for most routes and the last third of the run. A
		// route found at such a fixed point is frozen: while its update
		// stays clipped — decided by inner, from normal-range operands and
		// one add — recomputing x, x̄ and coef·x would reproduce the stored
		// values bit for bit, so the pass adds the stored terms and
		// multiplies nothing. The first unclipped update runs in full
		// again. No value is flushed, rounded or compared to a threshold.
		for r := 0; r < n; r++ {
			lo, hi := rtStart[r], rtStart[r+1]
			var q float64
			for k := lo; k < hi; k++ {
				q += lambda[rtRow[k]] * rtCoef[k]
			}
			f := flowOf[r]
			inner := xbar[r] + perRouteGain[r]*(prime[f]-q)
			// Clipped, the update ignores inner (α·max(0, inner) adds ±0)
			// and maps (x, x̄) to a function of (x, x̄) alone.
			clipped := inner <= 0
			if frozen[r] && !clipped {
				frozen[r] = false
				sol.thaws++
			}
			if !frozen[r] {
				if inner < 0 {
					inner = 0
				}
				nx := keep*x[r] + alpha*inner
				if nx > cap[r] {
					nx = cap[r]
				}
				nxbar := keep*xbar[r] + alpha*x[r]
				if clipped && nx == x[r] && nxbar == xbar[r] {
					frozen[r] = true
					sol.freezes++
				} else {
					x[r], xbar[r] = nx, nxbar
					for k := lo; k < hi; k++ {
						term[k] = rtCoef[k] * nx
					}
				}
			}
			for k := lo; k < hi; k++ {
				usage[rtRow[k]] += term[k]
			}
			flowRate[f] += x[r]
			if t >= avgFrom {
				avg[r] += x[r]
			}
		}
	}
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
