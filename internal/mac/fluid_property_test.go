package mac

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// randomFluidScenario builds a random small network and route set for
// property-testing the fluid model.
func randomFluidScenario(seed int64) (*graph.Network, []graph.Path, []float64) {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(nil)
	n := 3 + rng.Intn(4)
	ids := make([]graph.NodeID, n)
	for i := range ids {
		techs := []graph.Tech{graph.TechWiFi}
		if rng.Float64() < 0.5 {
			techs = append(techs, graph.TechPLC)
		}
		ids[i] = b.AddNode("", float64(i), 0, techs...)
	}
	type link struct {
		id   graph.LinkID
		from graph.NodeID
		to   graph.NodeID
	}
	var links []link
	for i := 0; i < n-1; i++ {
		id := b.AddLink(ids[i], ids[i+1], graph.TechWiFi, 5+rng.Float64()*50)
		links = append(links, link{id, ids[i], ids[i+1]})
	}
	net := b.Build()
	// Routes: random prefixes of the chain.
	var routes []graph.Path
	var inject []float64
	for r := 0; r < 1+rng.Intn(3); r++ {
		hops := 1 + rng.Intn(len(links))
		var p graph.Path
		for h := 0; h < hops; h++ {
			p = append(p, links[h].id)
		}
		routes = append(routes, p)
		inject = append(inject, rng.Float64()*80)
	}
	return net, routes, inject
}

// TestFluidPropertyConservation: delivered never exceeds injected, never
// exceeds the route's bottleneck capacity, and is non-negative.
func TestFluidPropertyConservation(t *testing.T) {
	f := func(seed int64) bool {
		net, routes, inject := randomFluidScenario(seed)
		out := FluidDelivered(net, routes, inject)
		for r, p := range routes {
			if out[r] < -1e-9 || out[r] > inject[r]+1e-6 {
				return false
			}
			bottleneck := 1e18
			for _, l := range p {
				if c := net.Link(l).Capacity; c < bottleneck {
					bottleneck = c
				}
			}
			if out[r] > bottleneck+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestFluidPropertyMonotoneUnderLoad: reducing one route's injection
// never reduces another route's delivery (less contention can only help
// the others).
func TestFluidPropertyMonotoneUnderLoad(t *testing.T) {
	f := func(seed int64) bool {
		net, routes, inject := randomFluidScenario(seed)
		if len(routes) < 2 {
			return true
		}
		base := FluidDelivered(net, routes, inject)
		reduced := append([]float64(nil), inject...)
		reduced[0] = reduced[0] / 2
		after := FluidDelivered(net, routes, reduced)
		for r := 1; r < len(routes); r++ {
			if after[r] < base[r]-0.5 { // allow fixed-point wiggle
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestFluidPropertyAirtimeFeasible: at the fixed point, served rates
// respect the airtime constraint in every interference domain (within
// fixed-point tolerance).
func TestFluidPropertyAirtimeFeasible(t *testing.T) {
	f := func(seed int64) bool {
		net, routes, inject := randomFluidScenario(seed)
		// Served per-link rates: re-derive by running the model and
		// accumulating per-hop deliveries.
		nl := net.NumLinks()
		served := make([]float64, nl)
		out := FluidDelivered(net, routes, inject)
		for r, p := range routes {
			// The delivered rate traverses every hop; upstream hops carry
			// at least that much.
			for _, l := range p {
				served[l] += out[r]
			}
		}
		for l := 0; l < nl; l++ {
			var mu float64
			for _, lp := range net.Interference(graph.LinkID(l)) {
				link := net.Link(lp)
				if link.Capacity > 0 {
					mu += served[lp] / link.Capacity
				}
			}
			if mu > 1.25 { // lower bound on served; generous tolerance
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
