package invariant

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/node"
)

// harness is a k-cluster emulation (k interference domains) with one
// saturated two-hop flow per cluster and a checker attached. Cluster i is
// the line a_i — b_i — c_i of duplex WiFi links, far beyond every other
// cluster's sensing radius; its flow runs a_i → c_i, so b_i relays.
type harness struct {
	em    *node.Emulation
	c     *Checker
	flows [][]FlowInfo // per domain, as the Flows callback serves them
	asked []int        // Flows calls per domain
	relay []graph.NodeID
}

func start(t *testing.T, k int, ncfg node.Config, interval float64) *harness {
	t.Helper()
	b := graph.NewBuilder(graph.RangeBased{SenseRadius: map[graph.Tech]float64{graph.TechWiFi: 50}})
	type line struct {
		a, b, c graph.NodeID
		route   graph.Path
	}
	lines := make([]line, k)
	for i := range lines {
		ox := 1000 * float64(i)
		ln := line{
			a: b.AddNode(fmt.Sprintf("a%d", i), ox, 0, graph.TechWiFi),
			b: b.AddNode(fmt.Sprintf("b%d", i), ox+10, 0, graph.TechWiFi),
			c: b.AddNode(fmt.Sprintf("c%d", i), ox+20, 0, graph.TechWiFi),
		}
		ab, _ := b.AddDuplex(ln.a, ln.b, graph.TechWiFi, 30)
		bc, _ := b.AddDuplex(ln.b, ln.c, graph.TechWiFi, 30)
		ln.route = graph.Path{ab, bc}
		lines[i] = ln
	}
	h := &harness{
		em:    node.NewEmulation(b.Build(), ncfg, 31),
		flows: make([][]FlowInfo, k),
		asked: make([]int, k),
		relay: make([]graph.NodeID, k),
	}
	if h.em.NumDomains() != k {
		t.Fatalf("NumDomains = %d, want %d", h.em.NumDomains(), k)
	}
	for i, ln := range lines {
		f, err := h.em.AddFlow(node.FlowSpec{
			Src: ln.a, Dst: ln.c, Routes: []graph.Path{ln.route}, Kind: node.TrafficSaturated,
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		d := h.em.NodeDomain(ln.a)
		h.flows[d] = append(h.flows[d], FlowInfo{Name: fmt.Sprintf("f%d", i), Flow: f, Src: ln.a, Dst: ln.c})
		h.relay[d] = ln.b
	}
	h.c = Attach(h.em, Config{Interval: interval, Flows: func(d int) []FlowInfo {
		h.asked[d]++
		return h.flows[d]
	}})
	return h
}

// TestCleanRunIsSilent: a correct trajectory — including a link failure
// and its recovery — trips no check, on one domain and on two, and the
// checker asked every domain for its flows.
func TestCleanRunIsSilent(t *testing.T) {
	for _, k := range []int{1, 2} {
		h := start(t, k, node.Config{Estimation: true}, 0)
		victim := h.flows[k-1][0].Flow.Routes()[0][1]
		h.em.Run(4)
		h.em.SetLinkCapacity(victim, 0)
		h.em.Run(7)
		h.em.SetLinkCapacity(victim, 30)
		h.em.Run(12)
		if vs := h.c.Final(); len(vs) != 0 {
			t.Errorf("k=%d: clean run reported %d violations, first: %v", k, len(vs), vs[0])
		}
		for d, n := range h.asked {
			if n < 20 {
				t.Errorf("k=%d: Flows(%d) called %d times in 12 s at the default 0.5 s interval", k, d, n)
			}
		}
	}
}

type frozenClock float64

func (c frozenClock) Now() float64 { return float64(c) }

type brokenMAC struct{ macView }

func (brokenMAC) CheckConsistency() error { return errors.New("hand-built inconsistency") }

// TestChecksFire hand-builds one violating state per check in the last
// domain of a one-domain and of a two-domain emulation, and requires that
// check — and no other, in no other domain — to report it.
func TestChecksFire(t *testing.T) {
	warm := func(h *harness) { h.em.Run(3) }
	cases := []struct {
		check    string
		cfg      node.Config
		interval float64
		violate  func(h *harness, dc *domChecker)
	}{
		{check: "monotone-time", cfg: node.Config{Estimation: true}, violate: func(h *harness, dc *domChecker) {
			warm(h)
			dc.eng = frozenClock(1) // the final tick reads a clock behind the last one
		}},
		{check: "mac-consistency", cfg: node.Config{Estimation: true}, violate: func(h *harness, dc *domChecker) {
			warm(h)
			dc.mac = brokenMAC{dc.mac}
		}},
		{check: "counter-monotone", cfg: node.Config{Estimation: true}, violate: func(h *harness, dc *domChecker) {
			warm(h)
			dc.prev[0].delivered += 1_000_000 // the link's counter now reads below its past
		}},
		{check: "dead-link-delivery", cfg: node.Config{Estimation: true}, violate: func(h *harness, dc *domChecker) {
			warm(h)
			// The checker believes the flow's first hop has been dead since
			// the last tick (same capacity epoch), yet it keeps delivering.
			first := h.flows[dc.d][0].Flow.Routes()[0][0]
			for i, l := range dc.links {
				if l == first {
					dc.prev[i].dead = true
				}
			}
			h.em.Run(4)
		}},
		{check: "price-cache", cfg: node.Config{Estimation: true}, violate: func(h *harness, dc *domChecker) {
			warm(h)
			dc.priceCache = func(*node.Agent) error { return errors.New("hand-built stale price sum") }
		}},
		{check: "flow-conservation", cfg: node.Config{Estimation: true}, violate: func(h *harness, dc *domChecker) {
			warm(h)
			h.em.Agent(h.relay[dc.d]).Forwarded++ // a packet forwarded that never came in
		}},
		{check: "sink-conservation", cfg: node.Config{Estimation: true}, violate: func(h *harness, dc *domChecker) {
			warm(h)
			fi := h.flows[dc.d][0]
			h.em.Agent(fi.Dst).PeekSink(fi.Src, fi.Flow.ID).TotalPackets = fi.Flow.InjectedPackets() + 1
		}},
		// With oracle capacities the bound collapses the instant the link
		// does, while the rate only follows at the next acknowledgement
		// (at most 100 ms away): 2 ms ticks see a fresh-acked flow far above
		// it at least three times in a row.
		{check: "rate-bound", cfg: node.Config{}, interval: 0.002, violate: func(h *harness, dc *domChecker) {
			warm(h)
			h.em.SetLinkCapacity(h.flows[dc.d][0].Flow.Routes()[0][0], 1)
			h.em.Run(3.05)
		}},
	}
	for _, k := range []int{1, 2} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/domains=%d", tc.check, k), func(t *testing.T) {
				h := start(t, k, tc.cfg, tc.interval)
				d := k - 1
				tc.violate(h, h.c.doms[d])
				vs := h.c.Final()
				if len(vs) == 0 {
					t.Fatalf("no violation reported")
				}
				for _, v := range vs {
					if v.Check != tc.check || v.Domain != d {
						t.Errorf("unexpected violation %v (want only %s in domain %d)", v, tc.check, d)
					}
				}
				if h.asked[d] == 0 {
					t.Errorf("Flows(%d) never called", d)
				}
			})
		}
	}
}

// TestViolationLimit: a domain stops recording at Config.Limit.
func TestViolationLimit(t *testing.T) {
	h := start(t, 1, node.Config{Estimation: true}, 0)
	h.c.cfg.Limit = 2
	h.em.Agent(h.relay[0]).Forwarded++
	h.em.Run(5) // ten ticks, each seeing the same broken counter
	if vs := h.c.Final(); len(vs) != 2 {
		t.Fatalf("%d violations recorded, want the limit 2", len(vs))
	}
}
