package routing

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// figure1 builds the paper's Figure 1 scenario: gateway a, range extender
// b, client c. PLC a-b at 10 Mbps, WiFi a-b at 15 Mbps, WiFi b-c at
// 30 Mbps. Optimal load balancing sends 10 Mbps on the hybrid Route 1
// (a-PLC->b-WiFi->c) and 6.6 Mbps on the two-hop WiFi Route 2.
func figure1() (*graph.Network, graph.NodeID, graph.NodeID, graph.NodeID) {
	b := graph.NewBuilder(nil)
	a := b.AddNode("a", 0, 0, graph.TechPLC, graph.TechWiFi)
	bb := b.AddNode("b", 10, 0, graph.TechPLC, graph.TechWiFi)
	c := b.AddNode("c", 20, 0, graph.TechWiFi)
	b.AddDuplex(a, bb, graph.TechPLC, 10)
	b.AddDuplex(a, bb, graph.TechWiFi, 15)
	b.AddDuplex(bb, c, graph.TechWiFi, 30)
	return b.Build(), a, bb, c
}

func pathTechs(net *graph.Network, p graph.Path) []graph.Tech {
	ts := make([]graph.Tech, len(p))
	for i, id := range p {
		ts[i] = net.Link(id).Tech
	}
	return ts
}

func TestSinglePathFigure1(t *testing.T) {
	net, a, _, c := figure1()
	p := SinglePath(net, a, c, DefaultConfig())
	if p == nil {
		t.Fatal("no path found")
	}
	if err := net.ValidatePath(p, a, c); err != nil {
		t.Fatal(err)
	}
	if len(p) != 2 {
		t.Fatalf("path length %d, want 2", len(p))
	}
	// Both 2-hop paths have weight 2/15 under the EMPoWER metric (the
	// PLC-WiFi route pays d=1/10+1/30 with zero CSC; the WiFi-WiFi route
	// pays 1/15+1/30 plus wns(b)=1/30). The tie makes either acceptable.
	w := PathWeight(net, p, DefaultConfig())
	if math.Abs(w-2.0/15) > 1e-9 {
		t.Errorf("path weight %v, want %v", w, 2.0/15)
	}
}

func TestSinglePathUnreachable(t *testing.T) {
	b := graph.NewBuilder(nil)
	u := b.AddNode("u", 0, 0, graph.TechWiFi)
	v := b.AddNode("v", 1, 0, graph.TechWiFi)
	w := b.AddNode("w", 2, 0, graph.TechPLC)
	b.AddDuplex(u, v, graph.TechWiFi, 10)
	net := b.Build()
	if p := SinglePath(net, u, w, DefaultConfig()); p != nil {
		t.Errorf("expected nil path to unreachable node, got %v", p)
	}
}

func TestSinglePathIgnoresDeadLinks(t *testing.T) {
	b := graph.NewBuilder(nil)
	u := b.AddNode("u", 0, 0, graph.TechWiFi)
	v := b.AddNode("v", 1, 0, graph.TechWiFi)
	dead := b.AddLink(u, v, graph.TechWiFi, 0)
	live := b.AddLink(u, v, graph.TechWiFi, 20)
	net := b.Build()
	p := SinglePath(net, u, v, DefaultConfig())
	if len(p) != 1 || p[0] != live {
		t.Errorf("path = %v, want [%d] (dead link %d skipped)", p, live, dead)
	}
}

func TestCSCFavorsAlternatingTechs(t *testing.T) {
	// Two 2-hop routes with identical capacities; one alternates PLC/WiFi,
	// the other stays on WiFi. With CSC the alternating route must win.
	b := graph.NewBuilder(nil)
	s := b.AddNode("s", 0, 0, graph.TechPLC, graph.TechWiFi)
	m := b.AddNode("m", 1, 0, graph.TechPLC, graph.TechWiFi)
	d := b.AddNode("d", 2, 0, graph.TechPLC, graph.TechWiFi)
	b.AddDuplex(s, m, graph.TechPLC, 20)
	b.AddDuplex(s, m, graph.TechWiFi, 20)
	b.AddDuplex(m, d, graph.TechWiFi, 20)
	net := b.Build()
	p := SinglePath(net, s, d, DefaultConfig())
	techs := pathTechs(net, p)
	if len(techs) != 2 || techs[0] != graph.TechPLC || techs[1] != graph.TechWiFi {
		t.Errorf("CSC should pick PLC then WiFi, got %v", techs)
	}
	// Without CSC the two routes tie, so just check it still finds one.
	noCSC := DefaultConfig()
	noCSC.UseCSC = false
	if q := SinglePath(net, s, d, noCSC); len(q) != 2 {
		t.Errorf("no-CSC path length %d, want 2", len(q))
	}
}

func TestPathWeightDeadLinkInf(t *testing.T) {
	net, a, bb, _ := figure1()
	id := net.FindLink(a, bb, graph.TechPLC)
	clone := net.Clone()
	clone.Link(id).Capacity = 0
	if w := PathWeight(clone, graph.Path{id}, DefaultConfig()); !math.IsInf(w, 1) {
		t.Errorf("weight of dead path = %v, want +Inf", w)
	}
}

func TestMaxHopsRespected(t *testing.T) {
	// A chain of 8 nodes: with the default 6-hop limit the far end is
	// unreachable; raising MaxHops makes it reachable.
	b := graph.NewBuilder(nil)
	ids := make([]graph.NodeID, 9)
	for i := range ids {
		ids[i] = b.AddNode("", float64(i), 0, graph.TechWiFi)
	}
	for i := 0; i < 8; i++ {
		b.AddDuplex(ids[i], ids[i+1], graph.TechWiFi, 10)
	}
	net := b.Build()
	cfg := DefaultConfig()
	if p := SinglePath(net, ids[0], ids[8], cfg); p != nil {
		t.Errorf("8-hop path returned despite 6-hop limit: %d hops", len(p))
	}
	cfg.MaxHops = 8
	if p := SinglePath(net, ids[0], ids[8], cfg); len(p) != 8 {
		t.Errorf("with MaxHops=8 expected 8-hop path, got %v", p)
	}
}

func TestNShortestFigure1(t *testing.T) {
	net, a, _, c := figure1()
	paths := NShortest(net, a, c, DefaultConfig())
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2 (PLC-WiFi and WiFi-WiFi)", len(paths))
	}
	for _, p := range paths {
		if err := net.ValidatePath(p, a, c); err != nil {
			t.Errorf("invalid path %v: %v", p, err)
		}
	}
	// The two paths must be distinct.
	if PathKey(paths[0]) == PathKey(paths[1]) {
		t.Error("duplicate paths returned")
	}
}

func TestNShortestOrdering(t *testing.T) {
	net, a, _, c := figure1()
	cfg := DefaultConfig()
	paths := NShortest(net, a, c, cfg)
	for i := 1; i < len(paths); i++ {
		if PathWeight(net, paths[i-1], cfg) > PathWeight(net, paths[i], cfg)+1e-12 {
			t.Errorf("paths not in increasing weight order at %d", i)
		}
	}
}

func TestNShortestRespectsN(t *testing.T) {
	net, a, _, c := figure1()
	cfg := DefaultConfig()
	cfg.N = 1
	if got := NShortest(net, a, c, cfg); len(got) != 1 {
		t.Errorf("N=1 returned %d paths", len(got))
	}
	cfg.N = 0
	if got := NShortest(net, a, c, cfg); got != nil {
		t.Errorf("N=0 should return nil, got %v", got)
	}
}

func TestRatePathFigure1(t *testing.T) {
	net, a, bb, c := figure1()
	plc := net.FindLink(a, bb, graph.TechPLC)
	wab := net.FindLink(a, bb, graph.TechWiFi)
	wbc := net.FindLink(bb, c, graph.TechWiFi)

	hybrid := graph.Path{plc, wbc}
	wifi := graph.Path{wab, wbc}
	// Hybrid route: PLC and WiFi don't interfere; R = min(10, 30) = 10.
	if r := RatePath(net, hybrid); math.Abs(r-10) > 1e-9 {
		t.Errorf("R(hybrid) = %v, want 10", r)
	}
	// WiFi-WiFi route: links share the medium; R = 1/(1/15+1/30) = 10.
	if r := RatePath(net, wifi); math.Abs(r-10) > 1e-9 {
		t.Errorf("R(wifi) = %v, want 10", r)
	}
	if RatePath(net, nil) != 0 {
		t.Error("R(empty) should be 0")
	}
}

func TestRateOnLink(t *testing.T) {
	net, a, bb, c := figure1()
	wab := net.FindLink(a, bb, graph.TechWiFi)
	wbc := net.FindLink(bb, c, graph.TechWiFi)
	p := graph.Path{wab, wbc}
	// Both links contend: R(l,P) identical on both = 10.
	if r := RateOnLink(net, wab, p); math.Abs(r-10) > 1e-9 {
		t.Errorf("R(l,P) = %v, want 10", r)
	}
	plc := net.FindLink(a, bb, graph.TechPLC)
	hp := graph.Path{plc, wbc}
	// On the hybrid path the PLC link sees only itself: R = 10.
	if r := RateOnLink(net, plc, hp); math.Abs(r-10) > 1e-9 {
		t.Errorf("R(plc,P) = %v, want 10", r)
	}
	// And the WiFi link sees only itself: R = 30.
	if r := RateOnLink(net, wbc, hp); math.Abs(r-30) > 1e-9 {
		t.Errorf("R(wbc,P) = %v, want 30", r)
	}
}

func TestUpdateBottleneckZeroed(t *testing.T) {
	net, a, bb, c := figure1()
	plc := net.FindLink(a, bb, graph.TechPLC)
	wbc := net.FindLink(bb, c, graph.TechWiFi)
	hybrid := graph.Path{plc, wbc}
	g1 := Update(net, hybrid)
	// PLC is the bottleneck (10 = R(P)): its capacity must drop to 0.
	if g1.Link(plc).Capacity != 0 {
		t.Errorf("bottleneck capacity = %v, want 0", g1.Link(plc).Capacity)
	}
	// WiFi b-c had 30, consumed 10/30 of its medium: 30·(2/3) = 20.
	if got := g1.Link(wbc).Capacity; math.Abs(got-20) > 1e-9 {
		t.Errorf("wbc capacity = %v, want 20", got)
	}
	// WiFi a-b shares the WiFi medium: 15·(2/3) = 10.
	wab := net.FindLink(a, bb, graph.TechWiFi)
	if got := g1.Link(wab).Capacity; math.Abs(got-10) > 1e-9 {
		t.Errorf("wab capacity = %v, want 10", got)
	}
	// The original network is untouched.
	if net.Link(plc).Capacity != 10 {
		t.Error("Update mutated its input")
	}
}

func TestUpdatePropertyNonNegativeAndBounded(t *testing.T) {
	net, a, _, c := figure1()
	for _, p := range NShortest(net, a, c, DefaultConfig()) {
		g1 := Update(net, p)
		hasZero := false
		for i := 0; i < g1.NumLinks(); i++ {
			before := net.Link(graph.LinkID(i)).Capacity
			after := g1.Link(graph.LinkID(i)).Capacity
			if after < 0 || after > before+1e-9 {
				t.Fatalf("capacity out of range: %v -> %v", before, after)
			}
		}
		for _, id := range p {
			if g1.Link(id).Capacity == 0 {
				hasZero = true
			}
		}
		if !hasZero {
			t.Error("Update must zero at least one path link (the bottleneck)")
		}
	}
}

func TestMultipathFigure1(t *testing.T) {
	net, a, _, c := figure1()
	comb := Multipath(net, a, c, DefaultConfig())
	// Paper: Route 1 at 10 Mbps + Route 2 at 6.67 Mbps = 16.67 total.
	if math.Abs(comb.Total-50.0/3) > 1e-6 {
		t.Fatalf("combination total = %v, want 16.667", comb.Total)
	}
	if len(comb.Paths) != 2 {
		t.Fatalf("combination uses %d paths, want 2", len(comb.Paths))
	}
	if math.Abs(comb.Rates[0]-10) > 1e-6 {
		t.Errorf("first route rate = %v, want 10", comb.Rates[0])
	}
	if math.Abs(comb.Rates[1]-20.0/3) > 1e-6 {
		t.Errorf("second route rate = %v, want 6.667", comb.Rates[1])
	}
	// The first route must be the hybrid one (its WiFi hop leaves room).
	techs := pathTechs(net, comb.Paths[0])
	if techs[0] != graph.TechPLC {
		t.Errorf("first route should start with PLC, got %v", techs)
	}
}

// TestMultipathBestSingleNotInBestCombination reproduces the key insight of
// Figure 3: the best isolated route is not necessarily part of the best
// combination of routes.
func TestMultipathBestSingleNotInBestCombination(t *testing.T) {
	// Medium A (solid), medium B (dashed); single collision domain each.
	// Route 2 (best single, 11 Mbps) uses both mediums and starves
	// everything; Routes 1 and 3 together reach 20 Mbps.
	b := graph.NewBuilder(nil)
	s := b.AddNode("s", 0, 0, graph.TechPLC, graph.TechWiFi)
	m := b.AddNode("m", 1, 0, graph.TechPLC, graph.TechWiFi)
	x := b.AddNode("x", 2, 0, graph.TechWiFi)
	d := b.AddNode("d", 3, 0, graph.TechPLC, graph.TechWiFi)
	// Route 1: s -PLC(10)-> d
	b.AddLink(s, d, graph.TechPLC, 10)
	// Route 2: s -PLC(11)-> m -WiFi(11)-> d
	b.AddLink(s, m, graph.TechPLC, 11)
	b.AddLink(m, d, graph.TechWiFi, 11)
	// Route 3: s -WiFi(15)-> x -WiFi(30)-> d
	b.AddLink(s, x, graph.TechWiFi, 15)
	b.AddLink(x, d, graph.TechWiFi, 30)
	net := b.Build()

	// Best isolated route is Route 2 at min(11,11) = 11.
	best1 := 0.0
	for _, p := range NShortest(net, s, d, DefaultConfig()) {
		if r := RatePath(net, p); r > best1 {
			best1 = r
		}
	}
	if math.Abs(best1-11) > 1e-9 {
		t.Fatalf("best single rate = %v, want 11", best1)
	}

	comb := Multipath(net, s, d, DefaultConfig())
	if math.Abs(comb.Total-20) > 1e-6 {
		t.Fatalf("combination total = %v, want 20 (Routes 1+3)", comb.Total)
	}
	// Route 2's middle link (PLC s->m at 11) must not appear.
	for _, p := range comb.Paths {
		for _, id := range p {
			l := net.Link(id)
			if l.From == s && l.To == m {
				t.Error("best combination should not use Route 2")
			}
		}
	}
}

func TestMultipathUnreachable(t *testing.T) {
	b := graph.NewBuilder(nil)
	u := b.AddNode("u", 0, 0, graph.TechWiFi)
	b.AddNode("v", 1, 0, graph.TechWiFi)
	net := b.Build()
	comb := Multipath(net, u, graph.NodeID(1), DefaultConfig())
	if comb.Total != 0 || len(comb.Paths) != 0 {
		t.Errorf("unreachable combination = %+v, want zero", comb)
	}
}

func TestMultipathSingleLink(t *testing.T) {
	b := graph.NewBuilder(nil)
	u := b.AddNode("u", 0, 0, graph.TechWiFi)
	v := b.AddNode("v", 1, 0, graph.TechWiFi)
	b.AddLink(u, v, graph.TechWiFi, 42)
	net := b.Build()
	comb := Multipath(net, u, v, DefaultConfig())
	if len(comb.Paths) != 1 || math.Abs(comb.Total-42) > 1e-9 {
		t.Errorf("single-link combination = %+v", comb)
	}
}

func TestTwoBestPaths(t *testing.T) {
	net, a, _, c := figure1()
	paths := TwoBestPaths(net, a, c, DefaultConfig())
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2", len(paths))
	}
}

// TestMultipathTotalAtLeastBestSingle checks the protocol-level invariant
// that the combination total is never worse than the best isolated route.
func TestMultipathTotalAtLeastBestSingle(t *testing.T) {
	nets := []*graph.Network{}
	{
		n, _, _, _ := figure1()
		nets = append(nets, n)
	}
	for _, net := range nets {
		cfg := DefaultConfig()
		comb := Multipath(net, 0, graph.NodeID(net.NumNodes()-1), cfg)
		for _, p := range NShortest(net, 0, graph.NodeID(net.NumNodes()-1), cfg) {
			if r := RatePath(net, p); comb.Total < r-1e-9 {
				t.Errorf("combination total %v < single-route rate %v", comb.Total, r)
			}
		}
	}
}

// TestMultipathRandomInvariants runs the full procedure over random small
// multigraphs and asserts structural invariants: valid loopless paths,
// non-negative rates, and termination.
func TestMultipathRandomInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := newRng(seed)
		net, src, dst := randomNetwork(rng)
		cfg := DefaultConfig()
		comb := Multipath(net, src, dst, cfg)
		if comb.Total < 0 {
			return false
		}
		for i, p := range comb.Paths {
			if err := net.ValidatePath(p, src, dst); err != nil {
				t.Logf("seed %d: invalid path: %v", seed, err)
				return false
			}
			if comb.Rates[i] <= 0 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// chain builds a WiFi chain with one link per capacity; under the
// default interference model every link of it contends for one medium.
func chain(caps ...float64) (*graph.Network, graph.Path) {
	b := graph.NewBuilder(nil)
	prev := b.AddNode("n0", 0, 0, graph.TechWiFi)
	p := make(graph.Path, len(caps))
	for i, c := range caps {
		next := b.AddNode(fmt.Sprintf("n%d", i+1), float64(i+1), 0, graph.TechWiFi)
		p[i] = b.AddLink(prev, next, graph.TechWiFi, c)
		prev = next
	}
	return b.Build(), p
}

func TestRatePathLemma1(t *testing.T) {
	// Paper Figure 1 computation: links of 15 and 30 Mbps sharing a medium
	// can each sustain x where x/15 + x/30 = 1 => x = 10.
	if got := RatePath(chain(15, 30)); math.Abs(got-10) > 1e-9 {
		t.Errorf("RatePath = %v, want 10", got)
	}
	// Single link: the rate is its capacity.
	if got := RatePath(chain(15)); math.Abs(got-15) > 1e-9 {
		t.Errorf("RatePath single = %v, want 15", got)
	}
	// A dead link zeroes the rate.
	if got := RatePath(chain(15, 0)); got != 0 {
		t.Errorf("RatePath with dead link = %v, want 0", got)
	}
}

func TestRatePathLemma1Property(t *testing.T) {
	// For λ equal-capacity links on one medium, the rate is c/λ.
	f := func(c uint8, lam uint8) bool {
		caps := make([]float64, int(lam%10)+1)
		for i := range caps {
			caps[i] = float64(c%100) + 1
		}
		return math.Abs(RatePath(chain(caps...))-caps[0]/float64(len(caps))) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRemoveNodeLoops(t *testing.T) {
	b := graph.NewBuilder(nil)
	u := b.AddNode("u", 0, 0, graph.TechWiFi)
	v := b.AddNode("v", 1, 0, graph.TechWiFi)
	w := b.AddNode("w", 2, 0, graph.TechWiFi)
	uv := b.AddLink(u, v, graph.TechWiFi, 10)
	vu := b.AddLink(v, u, graph.TechWiFi, 10)
	uv2 := b.AddLink(u, v, graph.TechWiFi, 20)
	vw := b.AddLink(v, w, graph.TechWiFi, 10)
	net := b.Build()
	ws := getWS(net)
	defer putWS(ws)
	// Walk u->v->u->v->w has a loop at v... (cut at first revisit).
	got := ws.removeNodeLoops(graph.Path{uv, vu, uv2, vw})
	if err := net.ValidatePath(got, u, w); err != nil {
		t.Fatalf("loop removal failed: %v (%v)", err, got)
	}
	if len(got) != 2 {
		t.Errorf("expected 2-hop path after loop removal, got %v", got)
	}
	// A loopless path is unchanged.
	p := graph.Path{uv, vw}
	if got := ws.removeNodeLoops(p); len(got) != 2 || got[0] != uv || got[1] != vw {
		t.Errorf("loopless path modified: %v", got)
	}
}

func TestPathKeyUnique(t *testing.T) {
	a := graph.Path{1, 2, 3}
	b := graph.Path{1, 2}
	c := graph.Path{3, 2, 1}
	if PathKey(a) == PathKey(b) || PathKey(a) == PathKey(c) {
		t.Error("PathKey collision")
	}
	if PathKey(a) != PathKey(graph.Path{1, 2, 3}) {
		t.Error("PathKey not deterministic")
	}
}
