package empower

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/congestion"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/optimal"
	"repro/internal/routing"
	"repro/internal/topology"
)

// figure1Net builds the paper's running example.
func figure1Net() (*graph.Network, graph.NodeID, graph.NodeID) {
	b := graph.NewBuilder(nil)
	a := b.AddNode("gateway", 0, 0, graph.TechPLC, graph.TechWiFi)
	ext := b.AddNode("extender", 10, 0, graph.TechPLC, graph.TechWiFi)
	c := b.AddNode("laptop", 20, 0, graph.TechWiFi)
	b.AddDuplex(a, ext, graph.TechPLC, 10)
	b.AddDuplex(a, ext, graph.TechWiFi, 15)
	b.AddDuplex(ext, c, graph.TechWiFi, 30)
	return b.Build(), a, c
}

// TestFigure1Scenario reproduces the paper's Figure 1 example end to end:
// the multipath combination carries 10 Mbps on the hybrid route plus
// 6.67 Mbps on the two-hop WiFi route.
func TestFigure1Scenario(t *testing.T) {
	net, a, c := figure1Net()
	comb := routing.Multipath(net, a, c, routing.DefaultConfig())
	if math.Abs(comb.Total-50.0/3) > 1e-6 {
		t.Fatalf("combination total = %v, want 16.667", comb.Total)
	}
	if len(comb.Paths) != 2 {
		t.Fatalf("combination paths = %d, want 2", len(comb.Paths))
	}
	// The controller converges to the same split.
	var routes []congestion.Route
	for _, p := range comb.Paths {
		routes = append(routes, congestion.Route{Links: p, Flow: 0})
	}
	ctrl, err := congestion.New(net, routes, congestion.Options{Alpha: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Run(6000)
	if got := ctrl.FlowRate(0); math.Abs(got-50.0/3) > 1.2 {
		t.Errorf("controller total = %v, want ~16.67", got)
	}
	// And the centralized optimum agrees.
	opt, err := optimal.Optimal(net, []optimal.FlowSpec{{Src: a, Dst: c}}, optimal.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(opt.FlowRates[0]-50.0/3) > 0.5 {
		t.Errorf("optimal = %v, want 16.67", opt.FlowRates[0])
	}
}

func TestPublicSinglePathAndRate(t *testing.T) {
	net, a, c := figure1Net()
	p := routing.SinglePath(net, a, c, routing.DefaultConfig())
	if p == nil {
		t.Fatal("no path")
	}
	if r := routing.RatePath(net, p); math.Abs(r-10) > 1e-9 {
		t.Errorf("R(P) = %v, want 10", r)
	}
}

func TestPublicEmulation(t *testing.T) {
	net, a, c := figure1Net()
	em := node.NewEmulation(net, node.Config{}, 1)
	fl, err := em.AddFlow(node.FlowSpec{
		Src: a, Dst: c,
		Routes: routing.Multipath(net, a, c, routing.DefaultConfig()).Paths,
		Kind:   node.TrafficSaturated,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	em.Run(30)
	if fl.TotalRate() < 10 {
		t.Errorf("emulated rate %.2f, want > 10 (multipath gain)", fl.TotalRate())
	}
}

func TestPublicTopologies(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	if n := len(topology.Residential(rng, topology.Config{}).Nodes); n != 10 {
		t.Errorf("residential nodes = %d", n)
	}
	if n := len(topology.Enterprise(rng, topology.Config{}).Nodes); n != 20 {
		t.Errorf("enterprise nodes = %d", n)
	}
	inst := topology.Testbed(rng, topology.Config{})
	if n := len(inst.Nodes); n != 22 {
		t.Errorf("testbed nodes = %d", n)
	}
	net := inst.Build(topology.ViewHybrid)
	if net.NumLinks() == 0 {
		t.Error("testbed has no links")
	}
}

func TestConservativeBelowOptimal(t *testing.T) {
	net, a, c := figure1Net()
	flows := []optimal.FlowSpec{{Src: a, Dst: c}}
	opt, _ := optimal.Optimal(net, flows, optimal.Config{})
	cons, _ := optimal.ConservativeOpt(net, flows, optimal.Config{})
	if cons.FlowRates[0] > opt.FlowRates[0]+0.5 {
		t.Errorf("conservative %v exceeds optimal %v", cons.FlowRates[0], opt.FlowRates[0])
	}
}
