package mac

import (
	"repro/internal/graph"
)

// FluidDelivered computes the steady-state delivered rate of each route
// under the airtime-sharing MAC without simulating packets. Each route r
// injects traffic at inject[r] Mbps at its first hop; at every link the
// served fraction is the link's airtime share when its interference
// domain is overloaded, and traffic not served at a hop never reaches the
// next hop (queues overflow). The fixed point is computed by 60 rounds
// of damped iteration.
//
// This reproduces the congestion-collapse behaviour of saturated multihop
// paths (§1: "saturating multihop paths is inefficient and can lead to
// congestion collapse") and backs the analytic MP-w/o-CC and SP-w/o-CC
// baselines.
func FluidDelivered(net *graph.Network, routes []graph.Path, inject []float64) []float64 {
	const iters = 60
	nl := net.NumLinks()
	// offered[r][h]: rate offered to hop h of route r.
	offered := make([][]float64, len(routes))
	for r, p := range routes {
		offered[r] = make([]float64, len(p)+1)
		offered[r][0] = inject[r]
	}
	demand := make([]float64, nl)
	serveFrac := make([]float64, nl)
	for it := 0; it < iters; it++ {
		// Per-link demand from current offered rates.
		for l := range demand {
			demand[l] = 0
		}
		for r, p := range routes {
			for h, l := range p {
				demand[l] += offered[r][h]
			}
		}
		// Airtime share per link: if Σ_{l'∈I_l} μ_{l'} > 1 the domain is
		// overloaded and link l is served in proportion to its demand.
		for l := 0; l < nl; l++ {
			link := net.Link(graph.LinkID(l))
			if link.Capacity <= 0 || demand[l] <= 0 {
				serveFrac[l] = 0
				continue
			}
			var mu float64
			for _, lp := range net.Interference(graph.LinkID(l)) {
				lk := net.Link(lp)
				if lk.Capacity > 0 && demand[lp] > 0 {
					mu += demand[lp] / lk.Capacity
				}
			}
			if mu <= 1 {
				serveFrac[l] = 1
			} else {
				serveFrac[l] = 1 / mu
			}
		}
		// Propagate along routes with damping for stability.
		const damp = 0.5
		for r, p := range routes {
			for h, l := range p {
				next := offered[r][h] * serveFrac[l]
				offered[r][h+1] = damp*offered[r][h+1] + (1-damp)*next
			}
		}
	}
	out := make([]float64, len(routes))
	for r, p := range routes {
		out[r] = offered[r][len(p)]
	}
	return out
}
