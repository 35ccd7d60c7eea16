package optimal

import (
	"encoding/binary"
	"math"

	"repro/internal/graph"
)

// FlowSpec is a source-destination pair; every flow's utility is
// proportional fairness.
type FlowSpec struct {
	Src, Dst graph.NodeID
}

// Config tunes the baselines.
type Config struct {
	Enumerate EnumerateOptions
	Solver    SolveOptions
	// Delta is the constraint margin (0 for the paper's baselines).
	Delta float64
}

// Result reports a baseline's optimum.
type Result struct {
	// FlowRates is the optimal per-flow throughput (Mbps).
	FlowRates []float64
	// Utility is the optimal aggregate utility.
	Utility float64
}

// routeSet is the part of a baseline's problem that does not depend on the
// capacity region: every flow's enumerated paths as one route list, each
// route's bottleneck cap, and the link→routes incidence the constraint
// generators read.
type routeSet struct {
	// problem carries Flows, RateCap and NumRoutes; each
	// baseline adds its own Constraints.
	problem Problem
	// routesOnLink lists the routes that traverse each link, with
	// multiplicity. Precomputing it makes constraint assembly linear in
	// Σ|I_l| plus the incidence size instead of quadratic in routes × links.
	routesOnLink [][]int
}

// enumerateRoutes enumerates the paths of every flow.
func enumerateRoutes(net *graph.Network, flows []FlowSpec, opts EnumerateOptions) routeSet {
	var rs routeSet
	var routes []graph.Path
	rs.problem.Flows = make([][]int, len(flows))
	for f, spec := range flows {
		for _, p := range EnumeratePaths(net, spec.Src, spec.Dst, opts) {
			rs.problem.Flows[f] = append(rs.problem.Flows[f], len(routes))
			routes = append(routes, p)
		}
	}
	rs.problem.NumRoutes = len(routes)
	rs.problem.RateCap = make([]float64, len(routes))
	rs.routesOnLink = make([][]int, net.NumLinks())
	for r, p := range routes {
		cap := math.Inf(1)
		for _, l := range p {
			if c := net.Link(l).Capacity; c < cap {
				cap = c
			}
			rs.routesOnLink[l] = append(rs.routesOnLink[l], r)
		}
		rs.problem.RateCap[r] = cap
	}
	return rs
}

// cliqueRows are the per-clique constraints: for every maximal clique Q of
// the conflict graph, Σ_{l∈Q} d_l Σ_{r∋l} x_r ≤ bound. This is the capacity
// region of a perfect scheduler when the conflict graph is perfect (e.g.
// per-technology collision domains), and a tight outer bound otherwise.
func (rs *routeSet) cliqueRows(net *graph.Network, bound float64) []Constraint {
	var rows []Constraint
	for _, clique := range NewConflictGraph(net).MaximalCliques() {
		coef := map[int]float64{}
		for _, l := range clique {
			d := net.Link(graph.LinkID(l)).D()
			for _, r := range rs.routesOnLink[l] {
				coef[r] += d
			}
		}
		if len(coef) > 0 {
			rows = append(rows, Constraint{Coef: coef, Bound: bound})
		}
	}
	return rows
}

// conservativeRows are constraint (2): for every link l,
// Σ_{l'∈I_l} d_{l'} Σ_{r∋l'} x_r ≤ bound. Domains with identical
// membership produce identical rows; those are deduplicated.
func (rs *routeSet) conservativeRows(net *graph.Network, bound float64) []Constraint {
	var rows []Constraint
	seen := map[string]bool{}
	var members []graph.LinkID
	for l := 0; l < net.NumLinks(); l++ {
		if net.Link(graph.LinkID(l)).Capacity <= 0 {
			continue
		}
		members = members[:0]
		for _, lp := range net.Interference(graph.LinkID(l)) {
			if net.Link(lp).Capacity <= 0 {
				continue
			}
			members = append(members, lp)
		}
		// The key first: the coefficients of a domain already seen are the
		// row already built.
		key := domainKey(members)
		if seen[key] {
			continue
		}
		seen[key] = true
		coef := map[int]float64{}
		for _, lp := range members {
			d := net.Link(lp).D()
			for _, r := range rs.routesOnLink[lp] {
				coef[r] += d
			}
		}
		if len(coef) > 0 {
			rows = append(rows, Constraint{Coef: coef, Bound: bound})
		}
	}
	return rows
}

// domainKey encodes a domain's member list injectively: a uvarint per
// link id is self-delimiting, so two lists share a key only if they are
// equal. (Two bytes per id, the earlier packing, made link 65537 collide
// with link 1 and silently dropped a constraint; below 65536 links both
// encodings make the same decisions.)
func domainKey(members []graph.LinkID) string {
	key := make([]byte, 0, 2*len(members))
	for _, l := range members {
		key = binary.AppendUvarint(key, uint64(l))
	}
	return string(key)
}

// result expands a solution over the route list into per-flow form. It
// copies, so two results built from one solution share no rate slice.
func (rs *routeSet) result(sol Solution) Result {
	return Result{FlowRates: append([]float64(nil), sol.FlowRates...), Utility: sol.Utility}
}

// unconnected is the result when no flow has a path: all-zero rates, and
// the utility U(0) = 0 of every flow.
func (rs *routeSet) unconnected() Result {
	n := len(rs.problem.Flows)
	return Result{FlowRates: make([]float64, n)}
}

// solve optimizes the route set under one capacity region.
func (rs *routeSet) solve(constraints []Constraint, opts SolveOptions) (Result, error) {
	if rs.problem.NumRoutes == 0 {
		return rs.unconnected(), nil
	}
	p := rs.problem
	p.Constraints = constraints
	sol, err := Solve(p, opts)
	if err != nil {
		return Result{}, err
	}
	return rs.result(sol), nil
}

// Optimal computes the paper's "optimal" baseline: maximum aggregate
// utility over all simple paths under the perfect-scheduler (per-clique)
// capacity region.
func Optimal(net *graph.Network, flows []FlowSpec, cfg Config) (Result, error) {
	rs := enumerateRoutes(net, flows, cfg.Enumerate)
	return rs.solve(rs.cliqueRows(net, 1-cfg.Delta), cfg.Solver)
}

// ConservativeOpt computes the paper's "conservative opt" baseline: the
// optimum under EMPoWER's conservative interference constraint (2).
func ConservativeOpt(net *graph.Network, flows []FlowSpec, cfg Config) (Result, error) {
	rs := enumerateRoutes(net, flows, cfg.Enumerate)
	return rs.solve(rs.conservativeRows(net, 1-cfg.Delta), cfg.Solver)
}

// Baselines computes both baselines over one path enumeration: opt equals
// Optimal's result and cons equals ConservativeOpt's, bit for bit. When
// the two capacity regions are the same rows — one collision domain per
// technology, as in every residential instance — the problem is solved
// once. The results share nothing.
func Baselines(net *graph.Network, flows []FlowSpec, cfg Config) (opt, cons Result, err error) {
	rs := enumerateRoutes(net, flows, cfg.Enumerate)
	n := rs.problem.NumRoutes
	if n == 0 {
		return rs.unconnected(), rs.unconnected(), nil
	}
	bound := 1 - cfg.Delta
	cliques, err := densify(rs.cliqueRows(net, bound), n)
	if err != nil {
		return Result{}, Result{}, err
	}
	domains, err := densify(rs.conservativeRows(net, bound), n)
	if err != nil {
		return Result{}, Result{}, err
	}
	optSol, err := solve(rs.problem, cliques, cfg.Solver)
	if err != nil {
		return Result{}, Result{}, err
	}
	consSol := optSol
	if !cliques.equal(domains) {
		if consSol, err = solve(rs.problem, domains, cfg.Solver); err != nil {
			return Result{}, Result{}, err
		}
	}
	return rs.result(optSol), rs.result(consSol), nil
}
