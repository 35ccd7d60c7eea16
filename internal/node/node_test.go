package node

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/wire"
)

// figure1 builds the paper's Figure 1 network and the two routes of the
// running example.
func figure1() (*graph.Network, graph.NodeID, graph.NodeID, []graph.Path) {
	b := graph.NewBuilder(nil)
	a := b.AddNode("a", 0, 0, graph.TechPLC, graph.TechWiFi)
	bb := b.AddNode("b", 10, 0, graph.TechPLC, graph.TechWiFi)
	c := b.AddNode("c", 20, 0, graph.TechWiFi)
	plcAB, _ := b.AddDuplex(a, bb, graph.TechPLC, 10)
	wifiAB, _ := b.AddDuplex(a, bb, graph.TechWiFi, 15)
	wifiBC, _ := b.AddDuplex(bb, c, graph.TechWiFi, 30)
	net := b.Build()
	return net, a, c, []graph.Path{{plcAB, wifiBC}, {wifiAB, wifiBC}}
}

func oneLink(capacity float64) (*graph.Network, graph.NodeID, graph.NodeID, graph.Path) {
	b := graph.NewBuilder(nil)
	u := b.AddNode("u", 0, 0, graph.TechWiFi)
	v := b.AddNode("v", 1, 0, graph.TechWiFi)
	l := b.AddLink(u, v, graph.TechWiFi, capacity)
	lr := b.AddLink(v, u, graph.TechWiFi, capacity)
	_ = lr
	return b.Build(), u, v, graph.Path{l}
}

func TestAddFlowValidation(t *testing.T) {
	net, a, c, routes := figure1()
	em := NewEmulation(net, Config{}, 1)
	if _, err := em.AddFlow(FlowSpec{Src: a, Dst: c}, 0); err == nil {
		t.Error("flow without routes accepted")
	}
	// A route not connecting src to dst must be rejected.
	bad := graph.Path{routes[0][1]}
	if _, err := em.AddFlow(FlowSpec{Src: a, Dst: c, Routes: []graph.Path{bad}}, 0); err == nil {
		t.Error("broken route accepted")
	}
	if _, err := em.AddFlow(FlowSpec{Src: a, Dst: c, Routes: routes}, 0); err != nil {
		t.Errorf("valid flow rejected: %v", err)
	}
}

func TestSingleLinkFlowReachesCapacity(t *testing.T) {
	net, u, v, p := oneLink(10)
	em := NewEmulation(net, Config{}, 2)
	fl, err := em.AddFlow(FlowSpec{Src: u, Dst: v, Routes: []graph.Path{p}, Kind: TrafficSaturated}, 0)
	if err != nil {
		t.Fatal(err)
	}
	em.Run(40)
	sink := em.Agent(v).Sinks()[0]
	rate := sink.MeanRate(30, 40)
	if rate < 8 || rate > 10.5 {
		t.Errorf("delivered rate = %.2f Mbps, want ~9-10", rate)
	}
	if fl.TotalRate() < 8 {
		t.Errorf("controller rate = %.2f, want near 10", fl.TotalRate())
	}
}

func TestFigure1EmulationMultipathGain(t *testing.T) {
	net, a, c, routes := figure1()
	em := NewEmulation(net, Config{}, 3)
	fl, err := em.AddFlow(FlowSpec{Src: a, Dst: c, Routes: routes, Kind: TrafficSaturated}, 0)
	if err != nil {
		t.Fatal(err)
	}
	em.Run(60)
	sink := em.Agent(c).Sinks()[0]
	rate := sink.MeanRate(45, 60)
	// The optimum is 16.67 Mbps; the distributed emulation with noisy
	// estimation should exceed the best single route (10) clearly and
	// approach the optimum.
	if rate < 12 {
		t.Errorf("multipath delivered %.2f Mbps, want > 12 (optimum 16.7)", rate)
	}
	if rate > 18 {
		t.Errorf("multipath delivered %.2f Mbps, above the optimum — airtime violated?", rate)
	}
	rates := fl.AppendRates(nil)
	if rates[0] < rates[1] {
		t.Errorf("hybrid route should carry more: %v", rates)
	}
	t.Logf("delivered %.2f Mbps, route rates %v", rate, rates)
}

func TestLowLossAfterConvergence(t *testing.T) {
	net, a, c, routes := figure1()
	em := NewEmulation(net, Config{Delta: 0.05}, 4)
	_, err := em.AddFlow(FlowSpec{Src: a, Dst: c, Routes: routes, Kind: TrafficSaturated}, 0)
	if err != nil {
		t.Fatal(err)
	}
	em.Run(60)
	sink := em.Agent(c).Sinks()[0]
	lossFrac := float64(sink.Lost) / float64(sink.TotalPackets+sink.Lost+1)
	if lossFrac > 0.05 {
		t.Errorf("loss fraction %.3f too high", lossFrac)
	}
}

func TestReorderingDeliversInOrder(t *testing.T) {
	net, a, c, routes := figure1()
	em := NewEmulation(net, Config{}, 5)
	fl, err := em.AddFlow(FlowSpec{Src: a, Dst: c, Routes: routes, Kind: TrafficExternal}, 0)
	if err != nil {
		t.Fatal(err)
	}
	em.Run(0.5) // let the flow start and prices settle
	var seqs []uint32
	em.Agent(c).sinkFor(a, fl.ID).OnDeliver = func(seq uint32, bytes int, meta interface{}) {
		seqs = append(seqs, seq)
	}
	// Push packets; CC tokens bootstrap at the initial rate.
	for i := 0; i < 50; i++ {
		em.Run(0.5 + float64(i)*0.05)
		fl.Push(500, nil)
	}
	em.Run(10)
	if len(seqs) == 0 {
		t.Fatal("nothing delivered")
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("out-of-order delivery: %v", seqs)
		}
	}
}

func TestPushOverRateDrops(t *testing.T) {
	net, u, v, p := oneLink(10)
	em := NewEmulation(net, Config{}, 6)
	fl, _ := em.AddFlow(FlowSpec{Src: u, Dst: v, Routes: []graph.Path{p}, Kind: TrafficExternal}, 0)
	em.Run(0.01)
	// Burst way beyond the token bucket: some pushes must fail.
	over := 0
	for i := 0; i < 200; i++ {
		if err := fl.Push(1500, nil); err == ErrOverRate {
			over++
		}
	}
	if over == 0 {
		t.Error("no over-rate drops on a 200-packet burst")
	}
}

func TestWithoutCCFloodsAndCollapses(t *testing.T) {
	// MP-w/o-CC on the Figure 1 scenario: both routes saturated without
	// congestion control. The shared WiFi hop b->c must carry both
	// routes' traffic but only wins a fair share of packet
	// opportunities, so node b's queue overflows and the delivered rate
	// collapses well below the 16.7 Mbps EMPoWER achieves.
	net, a, c, routes := figure1()
	em := NewEmulation(net, Config{DisableCC: true}, 7)
	_, err := em.AddFlow(FlowSpec{Src: a, Dst: c, Routes: routes, Kind: TrafficSaturated}, 0)
	if err != nil {
		t.Fatal(err)
	}
	em.Run(30)
	sink := em.Agent(c).Sinks()[0]
	rate := sink.MeanRate(20, 30)
	if rate <= 1 || rate >= 14 {
		t.Errorf("MP-w/o-CC rate = %.2f, want clearly below the 16.7 optimum", rate)
	}
	if sink.Lost == 0 {
		t.Error("saturation should lose packets at the relay")
	}
	t.Logf("MP-w/o-CC rate %.2f Mbps, lost %d", rate, sink.Lost)
}

func TestCCOutperformsNoCCMultipath(t *testing.T) {
	rate := func(disable bool) float64 {
		net, a, c, routes := figure1()
		em := NewEmulation(net, Config{DisableCC: disable}, 8)
		em.AddFlow(FlowSpec{Src: a, Dst: c, Routes: routes, Kind: TrafficSaturated}, 0)
		em.Run(50)
		return em.Agent(c).Sinks()[0].MeanRate(40, 50)
	}
	withCC, withoutCC := rate(false), rate(true)
	if withCC <= withoutCC+1 {
		t.Errorf("CC (%.2f) should clearly beat no-CC (%.2f) on multipath", withCC, withoutCC)
	}
	t.Logf("CC %.2f vs no-CC %.2f Mbps", withCC, withoutCC)
}

func TestFigure9Offloading(t *testing.T) {
	// Flow 0 has a PLC direct route and a WiFi direct route; flow 1 is
	// WiFi-only between two other nodes on the same channel. When flow 1
	// starts, flow 0 must shift its traffic off WiFi (§6.2's behaviour).
	b := graph.NewBuilder(nil)
	s := b.AddNode("s", 0, 0, graph.TechPLC, graph.TechWiFi)
	d := b.AddNode("d", 1, 0, graph.TechPLC, graph.TechWiFi)
	s2 := b.AddNode("s2", 2, 0, graph.TechWiFi)
	d2 := b.AddNode("d2", 3, 0, graph.TechWiFi)
	plc := b.AddLink(s, d, graph.TechPLC, 30)
	wifi := b.AddLink(s, d, graph.TechWiFi, 30)
	wifi2 := b.AddLink(s2, d2, graph.TechWiFi, 30)
	b.AddLink(d, s, graph.TechPLC, 30)
	b.AddLink(d, s, graph.TechWiFi, 30)
	b.AddLink(d2, s2, graph.TechWiFi, 30)
	net := b.Build()
	em := NewEmulation(net, Config{}, 9)
	f0, err := em.AddFlow(FlowSpec{
		Src: s, Dst: d, Routes: []graph.Path{{plc}, {wifi}}, Kind: TrafficSaturated,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	em.Run(40)
	wifiShareBefore := f0.AppendRates(nil)[1] / f0.TotalRate()
	// Start the contending WiFi flow.
	_, err = em.AddFlow(FlowSpec{
		Src: s2, Dst: d2, Routes: []graph.Path{{wifi2}}, Kind: TrafficSaturated,
	}, 40)
	if err != nil {
		t.Fatal(err)
	}
	em.Run(120)
	wifiShareAfter := f0.AppendRates(nil)[1] / f0.TotalRate()
	if wifiShareAfter >= wifiShareBefore {
		t.Errorf("flow 0 WiFi share should drop when contention appears: %.2f -> %.2f",
			wifiShareBefore, wifiShareAfter)
	}
	// Flow 0 keeps its PLC rate high.
	if f0.AppendRates(nil)[0] < 20 {
		t.Errorf("PLC route rate %.2f, want near 30", f0.AppendRates(nil)[0])
	}
	t.Logf("WiFi share %.2f -> %.2f, rates %v", wifiShareBefore, wifiShareAfter, f0.AppendRates(nil))
}

func TestFileFlowCompletes(t *testing.T) {
	net, u, v, p := oneLink(10)
	em := NewEmulation(net, Config{}, 10)
	const fileBytes = 2_000_000 // 2 MB over 10 Mbps ≈ 1.6 s at full rate
	fl, _ := em.AddFlow(FlowSpec{
		Src: u, Dst: v, Routes: []graph.Path{p}, Kind: TrafficFile, FileBytes: fileBytes,
	}, 0)
	em.Run(60)
	if !fl.Done() {
		t.Fatal("file flow did not finish injecting")
	}
	sink := em.Agent(v).Sinks()[0]
	if sink.TotalBytes < fileBytes*95/100 {
		t.Errorf("delivered %d of %d bytes", sink.TotalBytes, fileBytes)
	}
}

func TestGammaRisesUnderOverload(t *testing.T) {
	net, u, v, p := oneLink(5)
	em := NewEmulation(net, Config{}, 11)
	em.AddFlow(FlowSpec{Src: u, Dst: v, Routes: []graph.Path{p}, Kind: TrafficSaturated}, 0)
	em.Run(20)
	if g := em.Agent(u).gamma[p[0]]; g <= 0 {
		t.Errorf("gamma = %v, want > 0 on a saturated link", g)
	}
}

func TestDelayEqualization(t *testing.T) {
	// Two routes with very different delays; with equalization on, the
	// in-order delivery stream should show (a) no losses from reordering
	// pressure and (b) near-equal observed per-route delays at the sink.
	net, a, c, routes := figure1()
	em := NewEmulation(net, Config{DelayEqualize: true}, 12)
	fl, _ := em.AddFlow(FlowSpec{Src: a, Dst: c, Routes: routes, Kind: TrafficSaturated}, 0)
	em.Run(30)
	sink := em.Agent(c).sinkFor(a, fl.ID)
	withDelay := 0
	for i := range sink.routes {
		if sink.routes[i].hasDelay {
			withDelay++
		}
	}
	if withDelay < 2 {
		t.Skip("only one route active")
	}
	if sink.TotalPackets == 0 {
		t.Fatal("nothing delivered with delay equalization")
	}
}

func TestPriceBroadcastReachesNeighbors(t *testing.T) {
	net, a, c, routes := figure1()
	em := NewEmulation(net, Config{}, 13)
	em.AddFlow(FlowSpec{Src: a, Dst: c, Routes: routes, Kind: TrafficSaturated}, 0)
	em.Run(5)
	// Node b (index 1) must have heard WiFi reports from a.
	agentB := em.Agent(1)
	heard := 0
	for n := range agentB.reports[graph.TechWiFi] {
		if agentB.reports[graph.TechWiFi][n].heardAt >= 0 {
			heard++
		}
	}
	if heard == 0 {
		t.Error("node b heard no WiFi price broadcasts")
	}
}

func TestInterfaceMapMatchesWireHashes(t *testing.T) {
	net, _, _, _ := figure1()
	em := NewEmulation(net, Config{}, 14)
	for _, ag := range em.Agents {
		for _, l := range net.Out(ag.id) {
			link := net.Link(l)
			id := wire.HashInterface(link.To, link.Tech)
			if got, ok := ag.nextHop(id); !ok || got != l {
				t.Fatalf("agent %d iface map missing link %d", ag.id, l)
			}
		}
	}
}

func TestSeriesLog(t *testing.T) {
	s := &seriesLog{}
	s.add(0.1, 1e6)
	s.add(0.9, 1e6)
	s.add(1.5, 2e6)
	ts, rates := s.series(1.0)
	if len(ts) != 2 {
		t.Fatalf("bins = %d, want 2", len(ts))
	}
	if math.Abs(rates[0]-2) > 1e-9 || math.Abs(rates[1]-2) > 1e-9 {
		t.Errorf("rates = %v, want [2 2]", rates)
	}
	if a, b := s.series(0); a != nil || b != nil {
		t.Error("zero bin should return nil")
	}
}

// TestInterfaceIDCollisionDetected: the layer-2.5 interface ID is a
// 16-bit hash, and (node 420, PLC) and (node 539, PLC) share one. A node
// with egress links to both could not tell the two next hops apart, so
// construction must refuse instead of silently forwarding one
// neighbour's frames to the other.
func TestInterfaceIDCollisionDetected(t *testing.T) {
	if a, b := wire.HashInterface(420, graph.TechPLC), wire.HashInterface(539, graph.TechPLC); a != b {
		t.Fatalf("test premise broken: interface IDs %d and %d no longer collide", a, b)
	}
	build := func(second graph.NodeID) *graph.Network {
		b := graph.NewBuilder(nil)
		for i := 0; i < 540; i++ {
			b.AddNode("", float64(i), 0, graph.TechPLC)
		}
		b.AddLink(0, 420, graph.TechPLC, 10)
		b.AddLink(0, second, graph.TechPLC, 10)
		return b.Build()
	}
	NewEmulation(build(421), Config{}, 1) // distinct IDs: fine
	NewEmulation(build(420), Config{}, 1) // a parallel link to the same interface: fine

	defer func() {
		msg := fmt.Sprint(recover())
		for _, want := range []string{"agent 0", "node 420", "node 539", "PLC"} {
			if !strings.Contains(msg, want) {
				t.Errorf("collision report %q does not mention %q", msg, want)
			}
		}
	}()
	NewEmulation(build(539), Config{}, 1)
	t.Error("colliding egress interfaces accepted")
}
