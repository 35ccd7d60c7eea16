package node

import (
	"testing"

	"repro/internal/graph"
)

// ExternalSource is a non-EMPoWER station transmitting on a link: it
// injects raw MAC frames at a fixed rate, oblivious to prices and
// acknowledgements. EMPoWER agents measure its airtime by carrier
// sensing (the §4.3 mechanism: "nodes can measure traffic from external
// nodes and add the corresponding airtimes in (7)") and converge to the
// optimal allocation under that external load without disturbing it.
type ExternalSource struct {
	bits float64 // per-packet size

	periodic interface{ Stop() }
}

// AddExternalSource starts a constant-rate external transmitter on the
// given link (payload 1500 B frames at rate Mbps). The source itself is
// the MAC payload — agents ignore payloads they don't recognize, exactly
// how EMPoWER nodes treat foreign traffic.
func (e *Emulation) AddExternalSource(l graph.LinkID, rate float64) *ExternalSource {
	s := &ExternalSource{bits: 1500 * 8}
	gap := s.bits / (rate * 1e6)
	d := e.doms[e.linkDom[l]]
	s.periodic = d.Engine.Every(gap, func() {
		d.MAC.Send(l, s.bits, s)
	})
	return s
}

// Stop halts the source.
func (s *ExternalSource) Stop() { s.periodic.Stop() }

// externalNet builds two same-medium links: one EMPoWER flow and one
// external station share the WiFi channel.
func externalNet() (*graph.Network, graph.NodeID, graph.NodeID, graph.LinkID, graph.LinkID) {
	b := graph.NewBuilder(nil)
	s := b.AddNode("s", 0, 0, graph.TechWiFi)
	d := b.AddNode("d", 1, 0, graph.TechWiFi)
	xs := b.AddNode("xs", 2, 0, graph.TechWiFi)
	xd := b.AddNode("xd", 3, 0, graph.TechWiFi)
	emp := b.AddLink(s, d, graph.TechWiFi, 30)
	b.AddLink(d, s, graph.TechWiFi, 30)
	ext := b.AddLink(xs, xd, graph.TechWiFi, 30)
	return b.Build(), s, d, emp, ext
}

// TestExternalTrafficRespected reproduces the §4.3 claim: EMPoWER
// measures external airtime by carrier sensing and converges to the
// optimal allocation under that load, leaving the external station
// unharmed ("non-EMPoWER clients are not affected by EMPoWER clients").
func TestExternalTrafficRespected(t *testing.T) {
	net, s, d, emp, ext := externalNet()
	em := NewEmulation(net, Config{Estimation: true}, 61)
	// External station at 10 Mbps on a 30 Mbps medium: airtime 1/3.
	em.AddExternalSource(ext, 10)
	_, err := em.AddFlow(FlowSpec{Src: s, Dst: d, Routes: []graph.Path{{emp}}, Kind: TrafficSaturated}, 0)
	if err != nil {
		t.Fatal(err)
	}
	em.Run(60)
	// EMPoWER should take roughly the leftover 2/3 airtime: ~20 Mbps.
	rate := em.Agent(d).Sinks()[0].MeanRate(45, 60)
	if rate < 14 || rate > 23 {
		t.Errorf("EMPoWER rate under external load = %.2f, want ~18-20", rate)
	}
	// The external station keeps its 10 Mbps (within MAC sharing limits).
	st := em.Domain(em.LinkDomain(ext)).MAC.Stats(ext)
	got := st.DeliveredBits / 60 / 1e6
	if got < 8.5 {
		t.Errorf("external station delivered %.2f Mbps, want ~10 (unharmed)", got)
	}
	t.Logf("EMPoWER %.2f Mbps, external %.2f Mbps", rate, got)
}

// TestExternalStopsFlowReclaims: when the external station stops, the
// controller reclaims the freed airtime.
func TestExternalStopsFlowReclaims(t *testing.T) {
	net, s, d, emp, ext := externalNet()
	em := NewEmulation(net, Config{Estimation: true}, 62)
	src := em.AddExternalSource(ext, 15)
	fl, err := em.AddFlow(FlowSpec{Src: s, Dst: d, Routes: []graph.Path{{emp}}, Kind: TrafficSaturated}, 0)
	if err != nil {
		t.Fatal(err)
	}
	em.Run(50)
	under := fl.TotalRate()
	src.Stop()
	em.Run(150)
	after := fl.TotalRate()
	if after <= under+3 {
		t.Errorf("rate should recover after external stops: %.2f -> %.2f", under, after)
	}
	if after < 24 {
		t.Errorf("rate after reclaim = %.2f, want near 30", after)
	}
}

// TestNoExternalMeansNoPhantomAirtime: the carrier-sense measurement must
// not hallucinate external load from EMPoWER's own traffic.
func TestNoExternalMeansNoPhantomAirtime(t *testing.T) {
	net, s, d, emp, _ := externalNet()
	em := NewEmulation(net, Config{Estimation: true}, 63)
	fl, err := em.AddFlow(FlowSpec{Src: s, Dst: d, Routes: []graph.Path{{emp}}, Kind: TrafficSaturated}, 0)
	if err != nil {
		t.Fatal(err)
	}
	em.Run(60)
	// Without external traffic the flow should reach most of the link.
	if fl.TotalRate() < 24 {
		t.Errorf("rate without external traffic = %.2f, want near 30 (phantom external airtime?)", fl.TotalRate())
	}
}
