package node_test

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/scenario"
)

// TestLinkFailureShiftsTraffic kills one of two parallel routes mid-run
// through the scenario engine and restores it later: the congestion
// controller must move the flow onto the surviving route (the §6.1 claim
// that traffic-driven estimation detects failures within hundreds of
// milliseconds and the controller adapts) and move traffic back after
// recovery. Formerly this test poked net.Link(plc).Capacity = 0 by hand;
// it now runs on the declarative scenario API, which also exercises the
// MAC queue flush and estimator resume on the way.
func TestLinkFailureShiftsTraffic(t *testing.T) {
	b := graph.NewBuilder(nil)
	s := b.AddNode("s", 0, 0, graph.TechPLC, graph.TechWiFi)
	d := b.AddNode("d", 1, 0, graph.TechPLC, graph.TechWiFi)
	plc := b.AddLink(s, d, graph.TechPLC, 40)
	wifi := b.AddLink(s, d, graph.TechWiFi, 40)
	b.AddLink(d, s, graph.TechPLC, 40)
	b.AddLink(d, s, graph.TechWiFi, 40)
	net := b.Build()

	em := node.NewEmulation(net, node.Config{Estimation: true}, 31)
	fl, err := em.AddFlow(node.FlowSpec{
		Src: s, Dst: d, Routes: []graph.Path{{plc}, {wifi}}, Kind: node.TrafficSaturated,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}

	// The PLC link dies at 30 s (e.g. a noisy appliance) and recovers at
	// 150 s. The flow itself is pre-registered above (the scenario only
	// drives the dynamics), so the scenario carries no flows.
	ref := scenario.LinkRef{From: "s", To: "d", Tech: graph.TechPLC.String()}
	sc := &scenario.Scenario{Name: "plc-outage", Duration: 270, Events: []scenario.Event{
		{At: 30, Kind: scenario.LinkFail, Link: &ref},
		{At: 150, Kind: scenario.LinkRecover, Link: &ref},
	}}
	if _, err := scenario.Bind(em, sc, 1, scenario.Options{Strict: true}); err != nil {
		t.Fatal(err)
	}

	em.Run(30)
	beforePLC := fl.AppendRates(nil)[0]
	if beforePLC < 20 {
		t.Fatalf("PLC route should carry ~40 before failure, got %.2f", beforePLC)
	}

	// Failure phase: traffic must shift onto WiFi.
	em.Run(150)
	after := fl.AppendRates(nil)
	if after[0] > 2 {
		t.Errorf("PLC route rate %.2f after failure, want ~0", after[0])
	}
	if after[1] < 25 {
		t.Errorf("WiFi route rate %.2f after failure, want ~40", after[1])
	}
	sink := em.Agent(d).Sinks()[0]
	if rate := sink.MeanRate(130, 150); rate < 25 {
		t.Errorf("delivered %.2f Mbps after failover, want most of the WiFi capacity", rate)
	}

	// Recovery phase: capacity restored, traffic must shift back.
	em.Run(270)
	recovered := fl.AppendRates(nil)
	if recovered[0] < 20 {
		t.Errorf("PLC route rate %.2f after recovery, want most of its 40 Mbps back", recovered[0])
	}
	if rate := sink.MeanRate(250, 270); rate < 50 {
		t.Errorf("delivered %.2f Mbps after recovery, want both routes' worth", rate)
	}
}
