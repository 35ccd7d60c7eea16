package mac

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// twoContenders builds two same-medium links from distinct senders plus
// one independent PLC link.
func twoContenders() (*graph.Network, graph.LinkID, graph.LinkID, graph.LinkID) {
	b := graph.NewBuilder(nil)
	u := b.AddNode("u", 0, 0, graph.TechWiFi, graph.TechPLC)
	v := b.AddNode("v", 1, 0, graph.TechWiFi, graph.TechPLC)
	w := b.AddNode("w", 2, 0, graph.TechWiFi)
	x := b.AddNode("x", 3, 0, graph.TechWiFi)
	l1 := b.AddLink(u, v, graph.TechWiFi, 10)
	l2 := b.AddLink(w, x, graph.TechWiFi, 10)
	l3 := b.AddLink(u, v, graph.TechPLC, 10)
	return b.Build(), l1, l2, l3
}

func TestSingleLinkThroughput(t *testing.T) {
	var e sim.Engine
	net, l1, _, _ := twoContenders()
	m := New(&e, net, rng(1), Options{})
	delivered := 0.0
	m.Deliver = func(l graph.LinkID, pkt Packet) { delivered += pkt.Bits }
	// Saturate: inject a packet whenever the queue drains below 2.
	pktBits := 12000.0 // 1500 B
	refill := func() {
		for m.QueueLen(l1) < 2 {
			m.Send(l1, pktBits, nil)
		}
	}
	refill()
	e.Every(0.001, refill)
	e.Run(10)
	rate := delivered / 10 / 1e6 // Mbps
	if math.Abs(rate-10) > 0.5 {
		t.Errorf("single-link rate = %v Mbps, want ~10", rate)
	}
}

func TestInterferingLinksShareAirtime(t *testing.T) {
	var e sim.Engine
	net, l1, l2, _ := twoContenders()
	m := New(&e, net, rng(2), Options{})
	got := map[graph.LinkID]float64{}
	m.Deliver = func(l graph.LinkID, pkt Packet) { got[l] += pkt.Bits }
	refill := func() {
		for _, l := range []graph.LinkID{l1, l2} {
			for m.QueueLen(l) < 2 {
				m.Send(l, 12000, nil)
			}
		}
	}
	refill()
	e.Every(0.001, refill)
	e.Run(20)
	r1 := got[l1] / 20 / 1e6
	r2 := got[l2] / 20 / 1e6
	// Two equal contenders on a 10 Mbps medium: ~5 each.
	if math.Abs(r1-5) > 0.5 || math.Abs(r2-5) > 0.5 {
		t.Errorf("shared rates = %v, %v; want ~5 each", r1, r2)
	}
	// Never simultaneous: total ≤ medium capacity.
	if r1+r2 > 10.2 {
		t.Errorf("total %v exceeds medium capacity", r1+r2)
	}
}

func TestNonInterferingTechsParallel(t *testing.T) {
	var e sim.Engine
	net, l1, _, l3 := twoContenders()
	m := New(&e, net, rng(3), Options{})
	got := map[graph.LinkID]float64{}
	m.Deliver = func(l graph.LinkID, pkt Packet) { got[l] += pkt.Bits }
	refill := func() {
		for _, l := range []graph.LinkID{l1, l3} {
			for m.QueueLen(l) < 2 {
				m.Send(l, 12000, nil)
			}
		}
	}
	refill()
	e.Every(0.001, refill)
	e.Run(10)
	// WiFi and PLC do not interfere: both reach ~10.
	if r := got[l1] / 10 / 1e6; math.Abs(r-10) > 0.5 {
		t.Errorf("WiFi rate = %v, want ~10", r)
	}
	if r := got[l3] / 10 / 1e6; math.Abs(r-10) > 0.5 {
		t.Errorf("PLC rate = %v, want ~10", r)
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	var e sim.Engine
	net, l1, _, _ := twoContenders()
	m := New(&e, net, rng(4), Options{QueueLimit: 5})
	drops := 0
	m.Drop = func(l graph.LinkID, pkt Packet, reason DropReason) {
		if reason != DropQueueOverflow {
			t.Errorf("unexpected drop reason %v", reason)
		}
		drops++
	}
	for i := 0; i < 10; i++ {
		m.Send(l1, 12000, nil)
	}
	if drops != 5 {
		t.Errorf("drops = %d, want 5", drops)
	}
	st := m.Stats(l1)
	if st.DroppedPkts != 5 || st.Dropped[DropQueueOverflow] != 5 {
		t.Errorf("stats drops = %d (per-reason %v), want 5", st.DroppedPkts, st.Dropped)
	}
	if err := m.CheckConsistency(); err != nil {
		t.Errorf("consistency after overflow drops: %v", err)
	}
}

// TestRingGrowthStopsAtQueueLimit saturates a link far past its queue
// limit and checks the ring never holds more slots than the limit: the
// doubling is capped there (it once went 64 → 128 under the default
// limit of 100).
func TestRingGrowthStopsAtQueueLimit(t *testing.T) {
	net, l1, _, _ := twoContenders()
	for _, limit := range []int{0, 1, 3, 8, 9, 64, 65, 250} {
		var e sim.Engine
		m := New(&e, net, rng(1), Options{QueueLimit: limit})
		for i := 0; i < 3*m.QueueLimit()+20; i++ {
			m.Send(l1, 12000, nil)
		}
		if m.QueueLen(l1) != m.QueueLimit() {
			t.Fatalf("limit %d: queue holds %d, want it full", limit, m.QueueLen(l1))
		}
		if c := cap(m.queues[l1].buf); c > m.QueueLimit() {
			t.Errorf("limit %d: ring grew to %d slots", m.QueueLimit(), c)
		}
		e.RunUntilIdle()
		if err := m.CheckConsistency(); err != nil {
			t.Errorf("limit %d: %v", limit, err)
		}
	}
}

func TestDeadLinkRejects(t *testing.T) {
	var e sim.Engine
	net, l1, _, _ := twoContenders()
	net.Link(l1).Capacity = 0
	m := New(&e, net, rng(5), Options{})
	if m.Send(l1, 12000, nil) {
		t.Error("send on dead link should fail")
	}
}

func TestChannelErrors(t *testing.T) {
	var e sim.Engine
	net, l1, _, _ := twoContenders()
	loss := make([]float64, net.NumLinks())
	loss[l1] = 0.5
	m := New(&e, net, rng(6), Options{LossProb: loss})
	if got := m.LossProb(l1); got != 0.5 {
		t.Fatalf("LossProb = %v, want 0.5 (Options not copied)", got)
	}
	delivered, dropped := 0, 0
	m.Deliver = func(l graph.LinkID, pkt Packet) { delivered++ }
	m.Drop = func(l graph.LinkID, pkt Packet, reason DropReason) {
		if reason == DropChannelLoss {
			dropped++
		}
	}
	for i := 0; i < 500; i++ {
		m.Send(l1, 12000, nil)
		e.RunUntilIdle()
	}
	frac := float64(dropped) / float64(delivered+dropped)
	if math.Abs(frac-0.5) > 0.1 {
		t.Errorf("loss fraction = %v, want ~0.5", frac)
	}
	if st := m.Stats(l1); st.Dropped[DropChannelLoss] != dropped {
		t.Errorf("per-reason channel-loss counter %d, want %d", st.Dropped[DropChannelLoss], dropped)
	}
}

// TestSetLossProb covers the mid-run gray-failure hook: the loss
// probability changes live, clamps to [0,1], and a link reset to zero
// stops consuming RNG draws (no more channel losses).
func TestSetLossProb(t *testing.T) {
	var e sim.Engine
	net, l1, _, _ := twoContenders()
	m := New(&e, net, rng(9), Options{})
	dropped := 0
	m.Drop = func(l graph.LinkID, pkt Packet, reason DropReason) {
		if reason == DropChannelLoss {
			dropped++
		}
	}
	m.SetLossProb(l1, 1)
	for i := 0; i < 20; i++ {
		m.Send(l1, 12000, nil)
		e.RunUntilIdle()
	}
	if dropped != 20 {
		t.Errorf("dropped %d of 20 at loss 1.0", dropped)
	}
	m.SetLossProb(l1, 0)
	for i := 0; i < 20; i++ {
		m.Send(l1, 12000, nil)
		e.RunUntilIdle()
	}
	if dropped != 20 {
		t.Errorf("loss 0 still dropping (total %d)", dropped)
	}
	m.SetLossProb(l1, 2)
	if got := m.LossProb(l1); got != 1 {
		t.Errorf("loss clamped to %v, want 1", got)
	}
	m.SetLossProb(l1, -3)
	if got := m.LossProb(l1); got != 0 {
		t.Errorf("loss clamped to %v, want 0", got)
	}
	if err := m.CheckConsistency(); err != nil {
		t.Errorf("consistency: %v", err)
	}
}

func TestBusyAndStats(t *testing.T) {
	var e sim.Engine
	net, l1, _, _ := twoContenders()
	m := New(&e, net, rng(7), Options{})
	m.Send(l1, 1e6, nil) // 0.1 s on the air
	if !m.Busy(l1) {
		t.Error("link should be transmitting")
	}
	e.RunUntilIdle()
	if m.Busy(l1) {
		t.Error("link still busy after completion")
	}
	st := m.Stats(l1)
	if st.DeliveredPkts != 1 || st.DeliveredBits != 1e6 {
		t.Errorf("stats = %+v", st)
	}
	if math.Abs(st.BusySeconds-0.1) > 1e-9 {
		t.Errorf("busy seconds = %v, want 0.1", st.BusySeconds)
	}
}

func TestFluidSingleLink(t *testing.T) {
	net, l1, _, _ := twoContenders()
	routes := []graph.Path{{l1}}
	// Under-loaded: everything delivered.
	got := FluidDelivered(net, routes, []float64{4}, 0)
	if math.Abs(got[0]-4) > 1e-6 {
		t.Errorf("underload delivery = %v, want 4", got[0])
	}
	// Overloaded single link: delivery equals capacity.
	got = FluidDelivered(net, routes, []float64{50}, 0)
	if math.Abs(got[0]-10) > 0.2 {
		t.Errorf("overload delivery = %v, want ~10", got[0])
	}
}

func TestFluidTwoHopCollapse(t *testing.T) {
	// Two-hop WiFi path where both links share the medium: saturating the
	// first hop wastes airtime and the delivered rate falls below the
	// ideal 5 Mbps split (congestion collapse).
	b := graph.NewBuilder(nil)
	u := b.AddNode("u", 0, 0, graph.TechWiFi)
	v := b.AddNode("v", 1, 0, graph.TechWiFi)
	w := b.AddNode("w", 2, 0, graph.TechWiFi)
	l1 := b.AddLink(u, v, graph.TechWiFi, 10)
	l2 := b.AddLink(v, w, graph.TechWiFi, 10)
	net := b.Build()
	route := graph.Path{l1, l2}
	got := FluidDelivered(net, []graph.Path{route}, []float64{100}, 0)
	// The ideal coordinated rate is 5 (Lemma 1); saturation must do
	// strictly worse but still deliver something.
	if got[0] <= 0.5 || got[0] >= 5 {
		t.Errorf("saturated 2-hop delivery = %v, want in (0.5, 5)", got[0])
	}
	// A well-chosen injection of 5 passes through unharmed.
	got = FluidDelivered(net, []graph.Path{route}, []float64{5}, 0)
	if math.Abs(got[0]-5) > 0.3 {
		t.Errorf("balanced 2-hop delivery = %v, want ~5", got[0])
	}
}

func TestFluidHybridPathUnaffected(t *testing.T) {
	// PLC hop then WiFi hop: no intra-path interference; injection at the
	// PLC bottleneck passes end to end.
	b := graph.NewBuilder(nil)
	u := b.AddNode("u", 0, 0, graph.TechPLC, graph.TechWiFi)
	v := b.AddNode("v", 1, 0, graph.TechPLC, graph.TechWiFi)
	w := b.AddNode("w", 2, 0, graph.TechWiFi)
	l1 := b.AddLink(u, v, graph.TechPLC, 10)
	l2 := b.AddLink(v, w, graph.TechWiFi, 30)
	net := b.Build()
	got := FluidDelivered(net, []graph.Path{{l1, l2}}, []float64{10}, 0)
	if math.Abs(got[0]-10) > 0.3 {
		t.Errorf("hybrid path delivery = %v, want 10", got[0])
	}
}

func TestFluidMatchesPacketMAC(t *testing.T) {
	// Cross-check the fluid model against the packet MAC on a contended
	// scenario: two single-hop routes on one medium.
	net, l1, l2, _ := twoContenders()
	fluid := FluidDelivered(net, []graph.Path{{l1}, {l2}}, []float64{8, 8}, 0)

	var e sim.Engine
	m := New(&e, net, rng(8), Options{})
	got := map[graph.LinkID]float64{}
	m.Deliver = func(l graph.LinkID, pkt Packet) { got[l] += pkt.Bits }
	// Inject at 8 Mbps on each: a 12 kb packet every 1.5 ms.
	e.Every(0.0015, func() {
		m.Send(l1, 12000, nil)
		m.Send(l2, 12000, nil)
	})
	e.Run(20)
	p1 := got[l1] / 20 / 1e6
	p2 := got[l2] / 20 / 1e6
	if math.Abs(p1-fluid[0]) > 0.6 || math.Abs(p2-fluid[1]) > 0.6 {
		t.Errorf("packet (%.2f, %.2f) vs fluid (%.2f, %.2f)", p1, p2, fluid[0], fluid[1])
	}
}

// TestCheckConsistencyFires hand-builds one violating state per check
// and sees it reported; the untouched state (one link on the air, its
// same-medium neighbour backlogged behind it, a third link idle) passes.
func TestCheckConsistencyFires(t *testing.T) {
	net, l1, l2, l3 := twoContenders()
	build := func() *MAC {
		var e sim.Engine
		m := New(&e, net, rng(1), Options{QueueLimit: 2})
		m.Send(l1, 12000, nil) // on the air
		m.Send(l2, 12000, nil) // backlogged, blocked by l1
		if !m.Busy(l1) || m.Busy(l2) || m.QueueLen(l2) != 1 {
			t.Fatalf("setup: busy(l1)=%v busy(l2)=%v queue(l2)=%d", m.Busy(l1), m.Busy(l2), m.QueueLen(l2))
		}
		return m
	}
	if err := build().CheckConsistency(); err != nil {
		t.Fatalf("clean state reported: %v", err)
	}
	for _, tc := range []struct {
		name    string
		corrupt func(m *MAC)
		want    string
	}{
		{"queue over limit", func(m *MAC) { m.queues[l2].push(Packet{}, 2); m.queues[l2].push(Packet{}, 2) }, "exceeds limit"},
		{"transmitting with empty queue", func(m *MAC) { m.transmitting[l3] = true }, "transmitting with empty queue"},
		{"flag set on an empty queue", func(m *MAC) { m.contender[l3] = true }, "link 2 contender flag true with backlog 0"},
		{"flag set on a transmitting link", func(m *MAC) { m.contender[l1] = true }, "link 0 contender flag true with backlog 1, transmitting true"},
		{"flag clear on an idle backlogged link", func(m *MAC) { m.contender[l2] = false }, "link 1 contender flag false with backlog 1, transmitting false"},
		{"cell count too high", func(m *MAC) { m.cellBusy[m.cellOf[l1]]++ }, "busy=2 but 1 active"},
		{"cell count too low", func(m *MAC) { m.cellBusy[m.cellOf[l2]]-- }, "busy=0 but 1 active"},
		{"stale count on an idle cell", func(m *MAC) { m.cellBusy[m.cellOf[l3]]++ }, "busy=1 but 0 active"},
		{"per-reason drops", func(m *MAC) { m.stats[l1].DroppedPkts++ }, "per-reason drops sum to 0, total says 1"},
		{"loss probability", func(m *MAC) { m.lossProb[l3] = 1.5 }, "outside [0,1]"},
	} {
		m := build()
		tc.corrupt(m)
		err := m.CheckConsistency()
		if err == nil {
			t.Errorf("%s: not reported", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: reported as %q, want mention of %q", tc.name, err, tc.want)
		}
	}
}
