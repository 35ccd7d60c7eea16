package transport

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/sim"
)

// pipe is a lossy, delayed in-process conduit for unit-testing the TCP
// state machines without the full emulation.
type pipe struct {
	engine  *sim.Engine
	delay   float64
	lossSeq map[int]bool // drop the i-th data transmission
	count   int
	recv    *Receiver
}

func (p *pipe) send(seg Segment) error {
	i := p.count
	p.count++
	if p.lossSeq[i] {
		return nil // silently lost in the network
	}
	p.engine.Schedule(p.delay, func() { p.recv.OnSegment(seg) })
	return nil
}

// loop wires sender and receiver over in-process pipes with symmetric
// delay.
func loop(engine *sim.Engine, total int64, loss map[int]bool) (*Sender, *Receiver, *pipe) {
	p := &pipe{engine: engine, delay: 0.01, lossSeq: loss}
	var snd *Sender
	p.recv = NewReceiver(func(a Ack) error {
		engine.Schedule(p.delay, func() { snd.OnAck(a) })
		return nil
	})
	snd = NewSender(engine, total, p.send)
	return snd, p.recv, p
}

func TestTCPTransfersAllBytes(t *testing.T) {
	var e sim.Engine
	snd, rcv, _ := loop(&e, 100_000, nil)
	snd.Start()
	e.Run(30)
	if !snd.Done() {
		t.Fatal("transfer did not complete")
	}
	if rcv.DeliveredBytes != 100_000 {
		t.Errorf("delivered %d bytes, want 100000", rcv.DeliveredBytes)
	}
	if snd.Retransmits != 0 {
		t.Errorf("unexpected retransmits on a clean pipe: %d", snd.Retransmits)
	}
}

func TestTCPSlowStartGrowth(t *testing.T) {
	var e sim.Engine
	snd, _, _ := loop(&e, -1, nil)
	snd.Start()
	start := snd.Cwnd()
	e.Run(1)
	if snd.Cwnd() <= start*4 {
		t.Errorf("cwnd grew %v -> %v; slow start should be faster", start, snd.Cwnd())
	}
}

func TestTCPRecoversFromLoss(t *testing.T) {
	var e sim.Engine
	// Drop the 5th and 20th data transmissions.
	snd, rcv, _ := loop(&e, 200_000, map[int]bool{5: true, 20: true})
	snd.Start()
	e.Run(60)
	if !snd.Done() {
		t.Fatalf("transfer did not complete (delivered %d)", rcv.DeliveredBytes)
	}
	if rcv.DeliveredBytes != 200_000 {
		t.Errorf("delivered %d bytes, want 200000", rcv.DeliveredBytes)
	}
	if snd.Retransmits == 0 {
		t.Error("losses should cause retransmissions")
	}
}

func TestTCPFastRetransmit(t *testing.T) {
	var e sim.Engine
	snd, _, _ := loop(&e, 500_000, map[int]bool{10: true})
	snd.Start()
	e.Run(60)
	if !snd.Done() {
		t.Fatal("transfer did not complete")
	}
	if snd.FastRecovers == 0 {
		t.Error("a single mid-stream loss should trigger fast retransmit, not timeout")
	}
}

func TestTCPTimeoutOnBurstLoss(t *testing.T) {
	var e sim.Engine
	// Drop the whole initial window and the first few retries: dupacks
	// cannot arrive, forcing RTOs with exponential backoff.
	loss := map[int]bool{}
	for i := 0; i < 4; i++ {
		loss[i] = true
	}
	snd, _, _ := loop(&e, 100_000, loss)
	snd.Start()
	e.Run(120)
	if !snd.Done() {
		t.Fatal("transfer did not complete")
	}
	if snd.Timeouts == 0 {
		t.Error("burst loss of the initial window should force a timeout")
	}
}

func TestReceiverDuplicateHandling(t *testing.T) {
	var acks []int64
	r := NewReceiver(func(a Ack) error { acks = append(acks, a.CumAck); return nil })
	r.OnSegment(Segment{Seq: 0, Len: 100})
	r.OnSegment(Segment{Seq: 0, Len: 100})   // duplicate
	r.OnSegment(Segment{Seq: 200, Len: 100}) // gap
	r.OnSegment(Segment{Seq: 100, Len: 100}) // fills the hole
	if r.DeliveredBytes != 300 {
		t.Errorf("delivered %d, want 300", r.DeliveredBytes)
	}
	want := []int64{100, 100, 100, 300}
	if len(acks) != len(want) {
		t.Fatalf("acks = %v, want %v", acks, want)
	}
	for i := range want {
		if acks[i] != want[i] {
			t.Fatalf("acks = %v, want %v", acks, want)
		}
	}
}

func TestTCPOverEmulationSinglePath(t *testing.T) {
	// End-to-end: TCP over an EMPoWER single-path flow on one 20 Mbps
	// link should transfer a 2 MB file in roughly a second (with CC
	// shaping and δ=0.3 effective for TCP).
	b := graph.NewBuilder(nil)
	u := b.AddNode("u", 0, 0, graph.TechWiFi)
	v := b.AddNode("v", 1, 0, graph.TechWiFi)
	l := b.AddLink(u, v, graph.TechWiFi, 20)
	b.AddLink(v, u, graph.TechWiFi, 20)
	net := b.Build()
	em := node.NewEmulation(net, node.Config{}, 21)
	conn, err := Dial(em, u, v, []graph.Path{{l}}, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	em.Run(90)
	if !conn.Sender.Done() {
		t.Fatalf("TCP transfer incomplete: %d/%d bytes delivered, cwnd %.0f, retx %d, timeouts %d",
			conn.Receiver.DeliveredBytes, 2_000_000, conn.Sender.Cwnd(), conn.Sender.Retransmits, conn.Sender.Timeouts)
	}
	if conn.FinishedAt <= 0 || conn.FinishedAt > 60 {
		t.Errorf("finished at %.1f s, want within 60 s", conn.FinishedAt)
	}
	t.Logf("2 MB over 20 Mbps TCP finished at %.2f s (retx %d, timeouts %d)",
		conn.FinishedAt, conn.Sender.Retransmits, conn.Sender.Timeouts)
}

func TestTCPOverEmulationMultipath(t *testing.T) {
	// TCP over two routes with delay equalization (§6.4's critical case,
	// scaled down): the transfer must complete and exploit both routes.
	b := graph.NewBuilder(nil)
	a := b.AddNode("a", 0, 0, graph.TechPLC, graph.TechWiFi)
	bb := b.AddNode("b", 10, 0, graph.TechPLC, graph.TechWiFi)
	c := b.AddNode("c", 20, 0, graph.TechWiFi)
	plcAB, _ := b.AddDuplex(a, bb, graph.TechPLC, 10)
	wifiAB, _ := b.AddDuplex(a, bb, graph.TechWiFi, 15)
	wifiBC, _ := b.AddDuplex(bb, c, graph.TechWiFi, 30)
	net := b.Build()
	em := node.NewEmulation(net, node.Config{DelayEqualize: true}, 22)
	routes := []graph.Path{{plcAB, wifiBC}, {wifiAB, wifiBC}}
	conn, err := Dial(em, a, c, routes, 5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	em.Run(200)
	if !conn.Sender.Done() {
		t.Fatalf("multipath TCP incomplete: %d bytes", conn.Receiver.DeliveredBytes)
	}
	// Both routes must have carried data.
	sent := conn.Forward.RouteSentBits
	if sent[0] == 0 || sent[1] == 0 {
		t.Errorf("route usage %v: both routes should carry TCP", sent)
	}
	goodput := 5_000_000 * 8 / conn.FinishedAt / 1e6
	if goodput < 5 {
		t.Errorf("TCP multipath goodput %.2f Mbps too low", goodput)
	}
	t.Logf("5 MB multipath TCP: %.1f s (%.2f Mbps), retx %d, timeouts %d",
		conn.FinishedAt, goodput, conn.Sender.Retransmits, conn.Sender.Timeouts)
}

func TestTCPOverEmulationTwoDomains(t *testing.T) {
	// Two WiFi pairs far beyond each other's sensing radius: two
	// interference domains. A bounded TCP transfer inside the second one
	// must complete on that domain's engine while the first carries a
	// saturated flow.
	b := graph.NewBuilder(graph.RangeBased{SenseRadius: map[graph.Tech]float64{graph.TechWiFi: 50}})
	s := b.AddNode("s", 0, 0, graph.TechWiFi)
	d := b.AddNode("d", 10, 0, graph.TechWiFi)
	u := b.AddNode("u", 1000, 0, graph.TechWiFi)
	v := b.AddNode("v", 1010, 0, graph.TechWiFi)
	sd, _ := b.AddDuplex(s, d, graph.TechWiFi, 30)
	uv, _ := b.AddDuplex(u, v, graph.TechWiFi, 20)
	net := b.Build()
	em := node.NewEmulation(net, node.Config{Shards: 1}, 23)
	if em.NumDomains() != 2 {
		t.Fatalf("NumDomains = %d, want 2", em.NumDomains())
	}
	if _, err := em.AddFlow(node.FlowSpec{Src: s, Dst: d, Routes: []graph.Path{{sd}}, Kind: node.TrafficSaturated}, 0); err != nil {
		t.Fatal(err)
	}
	conn, err := Dial(em, u, v, []graph.Path{{uv}}, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	em.Run(90)
	if !conn.Sender.Done() || conn.FinishedAt <= 0 || conn.FinishedAt > 60 {
		t.Fatalf("TCP transfer: done=%v at %.1f s, %d/%d bytes delivered",
			conn.Sender.Done(), conn.FinishedAt, conn.Receiver.DeliveredBytes, 2_000_000)
	}
	if sink := em.Agent(d).Sinks()[0]; sink.MeanRate(30, 90) < 15 {
		t.Errorf("saturated flow in the other domain got %.2f Mbps, want most of 30", sink.MeanRate(30, 90))
	}
}
