package congestion

import (
	"math"
	"testing"

	"repro/internal/graph"
)

// externalScenario builds one 10 Mbps link carrying an EMPoWER flow plus
// a saturating external station on the same medium.
func externalScenario(extRate float64) (*Controller, error) {
	b := graph.NewBuilder(nil)
	u := b.AddNode("u", 0, 0, graph.TechWiFi)
	v := b.AddNode("v", 1, 0, graph.TechWiFi)
	l := b.AddLink(u, v, graph.TechWiFi, 10)
	ext := b.AddLink(v, u, graph.TechWiFi, 10) // the external transmitter
	net := b.Build()
	c, err := New(net, []Route{{Links: graph.Path{l}, Flow: 0}}, Options{
		Alpha:          0.05,
		FairShareFloor: 0.5,
	})
	if err != nil {
		return nil, err
	}
	load := make([]float64, net.NumLinks())
	load[ext] = extRate
	c.SetExternalLoad(load)
	return c, nil
}

// TestFairShareFloorClaimsHalf: with an external station saturating the
// medium, the stock controller would starve; the fairness extension keeps
// at least half the airtime (5 Mbps on a 10 Mbps link).
func TestFairShareFloorClaimsHalf(t *testing.T) {
	c, err := externalScenario(10) // external saturates: y_ext = 1
	if err != nil {
		t.Fatal(err)
	}
	c.Run(3000)
	if got := c.FlowRate(0); math.Abs(got-5) > 0.5 {
		t.Errorf("rate with fair-share floor = %v, want ~5", got)
	}
}

// TestFairShareFloorInactiveWhenRoomRemains: with light external load the
// floor must not bind — the controller uses the true leftover airtime.
func TestFairShareFloorInactiveWhenRoomRemains(t *testing.T) {
	c, err := externalScenario(2) // y_ext = 0.2, leftover 0.8 > floor 0.5
	if err != nil {
		t.Fatal(err)
	}
	c.Run(3000)
	if got := c.FlowRate(0); math.Abs(got-8) > 0.5 {
		t.Errorf("rate with light external load = %v, want ~8", got)
	}
}

// TestPaperBehaviourWithoutFloor: with the extension disabled the
// controller converges to the leftover airtime, reproducing the paper's
// "if one external node saturates WiFi, EMPoWER converges to an
// allocation that never uses WiFi".
func TestPaperBehaviourWithoutFloor(t *testing.T) {
	b := graph.NewBuilder(nil)
	u := b.AddNode("u", 0, 0, graph.TechWiFi)
	v := b.AddNode("v", 1, 0, graph.TechWiFi)
	l := b.AddLink(u, v, graph.TechWiFi, 10)
	ext := b.AddLink(v, u, graph.TechWiFi, 10)
	net := b.Build()
	c, err := New(net, []Route{{Links: graph.Path{l}, Flow: 0}}, Options{Alpha: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	load := make([]float64, net.NumLinks())
	load[ext] = 10 // saturating
	c.SetExternalLoad(load)
	c.Run(3000)
	if got := c.FlowRate(0); got > 0.5 {
		t.Errorf("rate without floor under saturation = %v, want ~0", got)
	}
}

func TestFairShareFloorValidation(t *testing.T) {
	b := graph.NewBuilder(nil)
	u := b.AddNode("u", 0, 0, graph.TechWiFi)
	v := b.AddNode("v", 1, 0, graph.TechWiFi)
	l := b.AddLink(u, v, graph.TechWiFi, 10)
	net := b.Build()
	if _, err := New(net, []Route{{Links: graph.Path{l}, Flow: 0}}, Options{FairShareFloor: 1}); err == nil {
		t.Error("floor = 1 accepted")
	}
	if _, err := New(net, []Route{{Links: graph.Path{l}, Flow: 0}}, Options{FairShareFloor: -0.1}); err == nil {
		t.Error("negative floor accepted")
	}
}
