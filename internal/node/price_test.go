package node

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/wire"
)

// priceChecker compares every priceTerm call against refPriceTerm and
// counts how often the γ-sum cache could serve a check's first call.
type priceChecker struct {
	t            *testing.T
	hits, misses int
}

// check calls priceTerm twice on every egress link of every agent of
// domain d (the fill, then a reuse) and demands refPriceTerm's bits, the
// reference linkEstimate on every link, and a consistent cache.
func (pc *priceChecker) check(label string, d *Domain) {
	pc.t.Helper()
	for _, a := range d.Agents {
		if a == nil {
			continue
		}
		for _, l := range a.egress {
			want := refPriceTerm(a, l)
			if a.gsum[d.Net.Link(l).Tech].serves(d.Engine.Now()) {
				pc.hits++
			} else {
				pc.misses++
			}
			for i := 0; i < 2; i++ {
				if got := a.priceTerm(l); math.Float64bits(got) != math.Float64bits(want) {
					pc.t.Fatalf("%s t=%v: agent %d link %d: priceTerm %v (%#x), reference %v (%#x)",
						label, d.Engine.Now(), a.id, l, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
		if err := a.CheckConsistency(); err != nil {
			pc.t.Fatalf("%s t=%v: %v", label, d.Engine.Now(), err)
		}
	}
	for l := 0; l < d.Net.NumLinks(); l++ {
		if got, want := d.linkEstimate(graph.LinkID(l)), refLinkEstimate(d, graph.LinkID(l)); math.Float64bits(got) != math.Float64bits(want) {
			pc.t.Fatalf("%s t=%v: linkEstimate(%d) = %v, reference %v", label, d.Engine.Now(), l, got, want)
		}
	}
}

// TestPriceTermMatchesReference holds the cached price term to the
// per-call scan, bit for bit on every call, through a scripted sequence —
// report arrivals on two technologies, a report aged to exactly
// now − heardAt == reportStale and then one ulp past it, priceTick γ
// updates between frames, a dying link whose estimator declares it
// failed, and a technology no neighbour ever reports on — with and
// without estimation, then through a soak of two saturated flows on the
// testbed topology checked every 2 ms.
func TestPriceTermMatchesReference(t *testing.T) {
	for _, est := range []bool{true, false} {
		pc := &priceChecker{t: t}
		// c, a, b in WiFi and PLC range of each other; d → e far away (a
		// second domain) on PLC only. The price interval puts every
		// automatic tick except node 0's (c at t = 0) past the script.
		b := graph.NewBuilder(graph.RangeBased{SenseRadius: map[graph.Tech]float64{graph.TechWiFi: 50, graph.TechPLC: 50}})
		c := b.AddNode("c", 20, 0, graph.TechWiFi)
		a := b.AddNode("a", 0, 0, graph.TechPLC, graph.TechWiFi)
		bb := b.AddNode("b", 10, 0, graph.TechPLC, graph.TechWiFi)
		dn := b.AddNode("d", 5000, 0, graph.TechPLC)
		en := b.AddNode("e", 5010, 0, graph.TechPLC)
		wifiAB, _ := b.AddDuplex(a, bb, graph.TechWiFi, 15)
		b.AddDuplex(bb, c, graph.TechWiFi, 30)
		b.AddDuplex(a, bb, graph.TechPLC, 10)
		b.AddLink(dn, en, graph.TechPLC, 20)
		em := NewEmulation(b.Build(), Config{PriceInterval: 1000, Estimation: est}, 5)
		if em.NumDomains() != 2 {
			t.Fatalf("%d domains, want 2", em.NumDomains())
		}
		d0, d1 := em.Domain(em.NodeDomain(a)), em.Domain(em.NodeDomain(dn))
		ag, agD := em.Agent(a), em.Agent(dn)
		stale := reportStale
		hear := func(to *Agent, from graph.NodeID, tech graph.Tech, gamma, airtime float64) {
			to.onPrice(&wire.PriceFrame{Origin: from, Tech: tech, GammaSum: gamma, Airtime: airtime})
		}
		at := func(when float64, label string, fn func()) {
			d0.Engine.At(when, func() {
				fn()
				pc.check(label, d0)
			})
		}
		// The oldest WiFi report is heard at 0.375, so at 0.875 it is
		// exactly reportStale old, and one ulp of the difference later
		// (0.875's ulp is 0.5's) it has expired.
		at(0.125, "arrivals on two technologies", func() {
			hear(ag, bb, graph.TechWiFi, 0.3, 0.2)
			hear(ag, c, graph.TechWiFi, 0.7, 0.1)
			hear(ag, bb, graph.TechPLC, 0.4, 0.3)
		})
		at(0.25, "PLC report replaced", func() { hear(ag, bb, graph.TechPLC, 0.45, 0.3) })
		at(0.375, "oldest report", func() { hear(ag, bb, graph.TechWiFi, 1.1, 0.2) })
		at(0.5, "younger report", func() { hear(ag, c, graph.TechWiFi, 0.05, 0.1) })
		at(0.625, "fill", func() {})
		var atHorizon float64
		at(0.875, "aged to exactly reportStale", func() {
			g := ag.gsum[graph.TechWiFi]
			if !g.valid || d0.Engine.Now()-g.oldest != stale {
				t.Fatalf("WiFi cache %+v: want a valid entry whose oldest report is exactly %v old", g, stale)
			}
			atHorizon = ag.priceTerm(wifiAB)
		})
		at(math.Nextafter(0.875, 1), "one ulp past reportStale", func() {
			if g := ag.gsum[graph.TechWiFi]; d0.Engine.Now()-g.oldest != math.Nextafter(stale, 1) {
				t.Fatalf("WiFi cache %+v: want its oldest report one ulp past %v", g, stale)
			}
			if ag.priceTerm(wifiAB) == atHorizon {
				t.Fatal("the price term did not change when the oldest report expired")
			}
		})
		at(1.9, "airtime claims", func() {
			hear(ag, bb, graph.TechWiFi, 0.2, 0.9)
			hear(ag, c, graph.TechWiFi, 0.6, 0.9)
		})
		var before float64
		at(2, "before priceTick", func() { before = ag.priceTerm(wifiAB) })
		at(2, "priceTick", func() {
			ag.priceTick()
			if ag.Gamma(wifiAB) == 0 || ag.priceTerm(wifiAB) == before {
				t.Fatalf("priceTick left γ at %v and the price term at %v", ag.Gamma(wifiAB), before)
			}
		})
		at(2.05, "neighbours heard a", func() {})
		at(2.5, "b ticks", func() { em.Agent(bb).priceTick() })
		at(2.75, "a ticks again", func() { ag.priceTick() })
		at(3, "link dies", func() { em.SetLinkCapacity(wifiAB, 0) })
		at(4.5, "failed estimator", func() {
			if got := d0.capacityEstimate(ag.est[wifiAB], wifiAB); got != 0 {
				t.Fatalf("capacity estimate of the dead link = %v, want 0", got)
			}
		})
		for i := 0; i < 500; i++ { // off the script's instants
			d0.Engine.At(0.01*float64(i)+0.001, func() { pc.check("soak", d0) })
		}
		d1.Engine.At(1, func() { agD.priceTick(); pc.check("lone PLC link", d1) })
		d1.Engine.At(3, func() { pc.check("lone PLC link", d1) })
		em.Run(5)
		if fresh, oldest := agD.freshGammaSum(graph.TechPLC, d1.Engine.Now()); fresh != 0 || !math.IsInf(oldest, 1) {
			t.Errorf("d heard PLC reports (sum %v, oldest %v): the unreported technology is not covered", fresh, oldest)
		}
		if g := agD.gsum[graph.TechPLC]; !g.valid {
			t.Errorf("d's PLC entry %+v never filled", g)
		}
		if pc.hits == 0 || pc.misses == 0 {
			t.Errorf("estimation=%v: %d cache hits, %d misses: the script does not exercise both paths", est, pc.hits, pc.misses)
		}
	}

	// Soak: two saturated flows on the testbed, every agent checked every
	// 2 ms while the automatic price ticks and broadcasts run.
	inst := topology.Testbed(stats.NewRand(20), topology.Config{})
	net := inst.Build(topology.ViewHybrid).Network
	em := NewEmulation(net, Config{Delta: 0.05, Estimation: true}, 90)
	for _, fl := range []struct{ src, dst graph.NodeID }{{0, 12}, {3, 6}} {
		routes := routing.Multipath(net, fl.src, fl.dst, routing.DefaultConfig()).Paths
		if len(routes) > 2 {
			routes = routes[:2]
		}
		if _, err := em.AddFlow(FlowSpec{Src: fl.src, Dst: fl.dst, Routes: routes, Kind: TrafficSaturated}, 0); err != nil {
			t.Fatal(err)
		}
	}
	pc := &priceChecker{t: t}
	for d := 0; d < em.NumDomains(); d++ {
		dom := em.Domain(d)
		dom.Engine.Every(0.002, func() { pc.check("testbed", dom) })
	}
	em.Run(3)
	if pc.hits == 0 || pc.misses == 0 {
		t.Errorf("testbed soak: %d cache hits, %d misses: the soak does not exercise both paths", pc.hits, pc.misses)
	}
}

// TestCheckConsistencyFires corrupts a cached γ sum by one ulp, then its
// oldest report, and requires CheckConsistency to see each; an entry past
// its freshness horizon is not checked (it will be recomputed anyway).
func TestCheckConsistencyFires(t *testing.T) {
	net, a, c, routes := figure1()
	em := NewEmulation(net, Config{Estimation: true}, 21)
	if _, err := em.AddFlow(FlowSpec{Src: a, Dst: c, Routes: routes, Kind: TrafficSaturated}, 0); err != nil {
		t.Fatal(err)
	}
	em.Run(2)
	ag := em.Agent(a)
	for _, l := range ag.egress {
		ag.priceTerm(l)
	}
	if err := ag.CheckConsistency(); err != nil {
		t.Fatalf("clean cache: %v", err)
	}
	tech := net.Link(routes[1][0]).Tech
	g := &ag.gsum[tech]
	if !g.valid || math.IsInf(g.oldest, 1) {
		t.Fatalf("%v entry %+v: want a filled entry with a report in it", tech, *g)
	}
	clean := *g
	g.sum = math.Nextafter(g.sum, math.Inf(1))
	if err := ag.CheckConsistency(); err == nil {
		t.Error("a sum one ulp off passed")
	}
	*g = clean
	g.oldest = math.Nextafter(g.oldest, math.Inf(-1))
	if err := ag.CheckConsistency(); err == nil {
		t.Error("a wrong oldest report passed")
	}
	*g = clean
	g.sum++
	g.oldest = em.Now() - 2*reportStale
	if err := ag.CheckConsistency(); err != nil {
		t.Errorf("an entry past its horizon was checked: %v", err)
	}
}
