package node

import (
	"testing"

	"repro/internal/graph"
)

// TestLinkFailureShiftsTraffic lives in failure_scenario_test.go
// (package node_test): it runs on the scenario API, which this package
// cannot import without a cycle.

// TestCapacityDropAdapts halves a link's capacity mid-run; the rate must
// follow it down without sustained overload.
func TestCapacityDropAdapts(t *testing.T) {
	b := graph.NewBuilder(nil)
	s := b.AddNode("s", 0, 0, graph.TechWiFi)
	d := b.AddNode("d", 1, 0, graph.TechWiFi)
	l := b.AddLink(s, d, graph.TechWiFi, 40)
	b.AddLink(d, s, graph.TechWiFi, 40)
	net := b.Build()

	em := NewEmulation(net, Config{Estimation: true}, 32)
	fl, err := em.AddFlow(FlowSpec{Src: s, Dst: d, Routes: []graph.Path{{l}}, Kind: TrafficSaturated}, 0)
	if err != nil {
		t.Fatal(err)
	}
	em.Run(30)
	if fl.TotalRate() < 30 {
		t.Fatalf("rate %.2f before the drop, want ~40", fl.TotalRate())
	}
	em.Domain(em.LinkDomain(l)).Engine.At(30, func() { em.SetLinkCapacity(l, 20) })
	em.Run(90)
	if r := fl.TotalRate(); r < 14 || r > 22 {
		t.Errorf("rate %.2f after capacity drop to 20, want ~18-20", r)
	}
	sink := em.Agent(d).Sinks()[0]
	lossFrac := float64(sink.Lost) / float64(sink.TotalPackets+sink.Lost+1)
	if lossFrac > 0.15 {
		t.Errorf("loss fraction %.3f during adaptation too high", lossFrac)
	}
}

// TestCapacityRecoveryAdaptsUp restores capacity and expects the rate to
// climb back.
func TestCapacityRecoveryAdaptsUp(t *testing.T) {
	b := graph.NewBuilder(nil)
	s := b.AddNode("s", 0, 0, graph.TechWiFi)
	d := b.AddNode("d", 1, 0, graph.TechWiFi)
	l := b.AddLink(s, d, graph.TechWiFi, 10)
	b.AddLink(d, s, graph.TechWiFi, 10)
	net := b.Build()

	em := NewEmulation(net, Config{Estimation: true}, 33)
	fl, _ := em.AddFlow(FlowSpec{Src: s, Dst: d, Routes: []graph.Path{{l}}, Kind: TrafficSaturated}, 0)
	em.Run(20)
	em.Domain(em.LinkDomain(l)).Engine.At(20, func() { em.SetLinkCapacity(l, 50) })
	em.Run(80)
	if r := fl.TotalRate(); r < 35 {
		t.Errorf("rate %.2f after capacity recovery to 50, want > 35", r)
	}
}
