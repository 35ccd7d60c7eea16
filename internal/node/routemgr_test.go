package node

import (
	"testing"

	"repro/internal/graph"
)

// diamond builds s->d with two disjoint 2-hop branches: via m1 (PLC) and
// via m2 (WiFi), plus a weak direct WiFi link.
func diamond() (*graph.Network, graph.NodeID, graph.NodeID, graph.Path, graph.Path) {
	b := graph.NewBuilder(nil)
	s := b.AddNode("s", 0, 0, graph.TechPLC, graph.TechWiFi)
	m1 := b.AddNode("m1", 1, 1, graph.TechPLC)
	m2 := b.AddNode("m2", 1, -1, graph.TechWiFi)
	d := b.AddNode("d", 2, 0, graph.TechPLC, graph.TechWiFi)
	p1a := b.AddLink(s, m1, graph.TechPLC, 40)
	p1b := b.AddLink(m1, d, graph.TechPLC, 40)
	p2a := b.AddLink(s, m2, graph.TechWiFi, 40)
	p2b := b.AddLink(m2, d, graph.TechWiFi, 40)
	// Reverse links for acks.
	b.AddLink(d, m1, graph.TechPLC, 40)
	b.AddLink(m1, s, graph.TechPLC, 40)
	b.AddLink(d, m2, graph.TechWiFi, 40)
	b.AddLink(m2, s, graph.TechWiFi, 40)
	net := b.Build()
	return net, s, d, graph.Path{p1a, p1b}, graph.Path{p2a, p2b}
}

func TestRouteManagerSwapsOnFailure(t *testing.T) {
	net, s, d, plcRoute, wifiRoute := diamond()
	em := NewEmulation(net, Config{Estimation: true}, 51)
	// Start the flow on the PLC branch only.
	fl, err := em.AddFlow(FlowSpec{Src: s, Dst: d, Routes: []graph.Path{plcRoute}, Kind: TrafficSaturated}, 0)
	if err != nil {
		t.Fatal(err)
	}
	mgr := em.ManageRoutes(fl)
	em.Run(20)
	if mgr.Reroutes > 1 {
		t.Errorf("%d reroutes during steady operation, want ~0", mgr.Reroutes)
	}
	// Kill the PLC branch: the manager must move the flow to WiFi.
	em.SetLinkCapacity(plcRoute[0], 0)
	em.Run(60)
	if mgr.Reroutes == 0 {
		t.Fatal("route manager did not react to the link failure")
	}
	usesWiFi := false
	for _, r := range fl.Routes() {
		if r[0] == wifiRoute[0] {
			usesWiFi = true
		}
		if r[0] == plcRoute[0] {
			t.Error("dead PLC route still in use")
		}
	}
	if !usesWiFi {
		t.Errorf("flow routes after failure: %v, want the WiFi branch", fl.Routes())
	}
	sink := em.Agent(d).Sinks()[0]
	// The WiFi branch is a same-medium 2-hop path: Lemma 1 caps it at
	// 1/(1/40+1/40) = 20 Mbps.
	if rate := sink.MeanRate(45, 60); rate < 15 {
		t.Errorf("delivered %.2f Mbps after reroute, want close to the 20 Mbps branch limit", rate)
	}
}

func TestRouteManagerStableWithoutChanges(t *testing.T) {
	net, s, d, plcRoute, wifiRoute := diamond()
	em := NewEmulation(net, Config{Estimation: true}, 52)
	fl, err := em.AddFlow(FlowSpec{
		Src: s, Dst: d, Routes: []graph.Path{plcRoute, wifiRoute}, Kind: TrafficSaturated,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	mgr := em.ManageRoutes(fl)
	em.Run(60)
	if mgr.Reroutes > 1 {
		t.Errorf("%d reroutes on a stable network (estimation noise should not churn routes)", mgr.Reroutes)
	}
}

func TestSetRoutesValidation(t *testing.T) {
	net, s, d, plcRoute, _ := diamond()
	em := NewEmulation(net, Config{}, 53)
	fl, _ := em.AddFlow(FlowSpec{Src: s, Dst: d, Routes: []graph.Path{plcRoute}, Kind: TrafficSaturated}, 0)
	if err := fl.SetRoutes(nil); err == nil {
		t.Error("empty route set accepted")
	}
	if err := fl.SetRoutes([]graph.Path{{plcRoute[1]}}); err == nil {
		t.Error("broken route accepted")
	}
}

func TestEstimatedNetworkTracksCapacities(t *testing.T) {
	net, s, d, plcRoute, _ := diamond()
	em := NewEmulation(net, Config{Estimation: true}, 54)
	em.AddFlow(FlowSpec{Src: s, Dst: d, Routes: []graph.Path{plcRoute}, Kind: TrafficSaturated}, 0)
	em.Run(10)
	est := em.EstimatedNetwork()
	// Active link's estimate should be near truth.
	got := est.Link(plcRoute[0]).Capacity
	if got < 30 || got > 50 {
		t.Errorf("estimated capacity %.2f, true 40", got)
	}
}
