package optimal

// The per-iteration solver loop that the CSR kernel in solver.go replaced,
// kept verbatim (renamed; every product that feeds an add is wrapped in
// float64(), which rounds it where amd64 rounds it anyway and keeps other
// architectures from fusing it) as an executable specification:
// equivalence_test.go asserts that Solve returns the same bits on every
// field. Mirrors the reference_test.go pattern of routing and congestion.

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/congestion"
)

// referenceSolve maximizes the problem with a proximal primal update and dual
// subgradient prices — the same fixed-point structure as the EMPoWER
// controller, which for this concave program is the KKT point, i.e. the
// global optimum. The final iterate is projected onto the feasible set by
// uniform scaling if it slightly overshoots, so the reported rates are
// always feasible.
func referenceSolve(p Problem, opts SolveOptions) (Solution, error) {
	n := p.NumRoutes
	if n == 0 {
		return Solution{}, fmt.Errorf("optimal: no routes")
	}
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

	// Densify the constraints once, with route indices sorted: iterating
	// the Coef maps directly would make every airtime sum follow Go's
	// randomized map order, i.e. a different float summation order — and a
	// different 16th decimal — on every run. Sorted slices make the solver
	// deterministic and keep map lookups out of the iteration loop.
	conIdx := make([][]int, len(p.Constraints))      // constraint -> route indices
	conCoef := make([][]float64, len(p.Constraints)) // constraint -> coefficients
	routeCons := make([][]int, n)                    // route -> constraint indices
	routeCoef := make([][]float64, n)                // route -> coefficients
	for c, con := range p.Constraints {
		idx := make([]int, 0, len(con.Coef))
		for r := range con.Coef {
			if r < 0 || r >= n {
				return Solution{}, fmt.Errorf("optimal: constraint %d references route %d out of range", c, r)
			}
			idx = append(idx, r)
		}
		sort.Ints(idx)
		cf := make([]float64, len(idx))
		for i, r := range idx {
			cf[i] = con.Coef[r]
			routeCons[r] = append(routeCons[r], c)
			routeCoef[r] = append(routeCoef[r], con.Coef[r])
		}
		conIdx[c], conCoef[c] = idx, cf
	}

	alpha, gain := opts.step(), opts.gain()
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
	lambda := make([]float64, len(p.Constraints))
	usage := make([]float64, len(p.Constraints))
	flowRate := make([]float64, len(p.Flows))
	newX := make([]float64, n)
	iters := opts.itersFor(n)
	// Ergodic averaging over the last third of the run: with a fixed
	// step the iterates hover around the optimizer, and the average is
	// the reliable read-out.
	avg := make([]float64, n)
	avgFrom := iters * 2 / 3
	avgCount := 0

	for t := 0; t < iters; t++ {
		// Constraint usages and dual update.
		for c := range usage {
			usage[c] = 0
		}
		for c := range conIdx {
			var u float64
			for i, r := range conIdx[c] {
				u += float64(conCoef[c][i] * x[r])
			}
			usage[c] = u
			l := lambda[c] + float64(alpha*(u-p.Constraints[c].Bound))
			if l < 0 {
				l = 0
			}
			lambda[c] = l
		}
		// Flow totals.
		for f := range flowRate {
			flowRate[f] = 0
		}
		for r := 0; r < n; r++ {
			flowRate[flowOf[r]] += x[r]
		}
		// Proximal primal update.
		for r := 0; r < n; r++ {
			var q float64
			for i, c := range routeCons[r] {
				q += float64(lambda[c] * routeCoef[r][i])
			}
			f := flowOf[r]
			inner := xbar[r] + float64(perRouteGain[r]*(util[f].Prime(flowRate[f])-q))
			if inner < 0 {
				inner = 0
			}
			nx := float64((1-alpha)*x[r]) + float64(alpha*inner)
			if nx > cap[r] {
				nx = cap[r]
			}
			newX[r] = nx
		}
		for r := 0; r < n; r++ {
			xbar[r] = float64((1-alpha)*xbar[r]) + float64(alpha*x[r])
		}
		copy(x, newX)
		if t >= avgFrom {
			for r := 0; r < n; r++ {
				avg[r] += x[r]
			}
			avgCount++
		}
	}
	if avgCount > 0 {
		for r := 0; r < n; r++ {
			x[r] = avg[r] / float64(avgCount)
		}
	}

	// Project onto feasibility by uniform scaling if needed.
	worst := 0.0
	for c := range conIdx {
		var u float64
		for i, r := range conIdx[c] {
			u += float64(conCoef[c][i] * x[r])
		}
		if b := p.Constraints[c].Bound; b > 0 && u/b > worst {
			worst = u / b
		}
		usage[c] = u
	}
	if worst > 1 {
		for r := range x {
			x[r] /= worst
		}
	}

	sol := Solution{X: x, FlowRates: make([]float64, len(p.Flows))}
	for r := 0; r < n; r++ {
		sol.FlowRates[flowOf[r]] += x[r]
	}
	for f := range p.Flows {
		sol.Utility += util[f].Value(sol.FlowRates[f])
	}
	sol.MaxViolation = math.Inf(-1)
	for c := range conIdx {
		var u float64
		for i, r := range conIdx[c] {
			u += float64(conCoef[c][i] * x[r])
		}
		if v := u - p.Constraints[c].Bound; v > sol.MaxViolation {
			sol.MaxViolation = v
		}
	}
	if len(p.Constraints) == 0 {
		sol.MaxViolation = 0
	}
	return sol, nil
}
