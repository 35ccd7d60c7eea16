package graph

import (
	"math"
	"testing"
)

// buildFigure1 builds the three-node scenario of Figure 1 of the paper:
// gateway a, extender b, client c; PLC a-b at 10 Mbps, WiFi a-b at 30 Mbps,
// WiFi b-c at 15 Mbps.
func buildFigure1() (*Network, NodeID, NodeID, NodeID) {
	b := NewBuilder(nil)
	a := b.AddNode("a", 0, 0, TechPLC, TechWiFi)
	bb := b.AddNode("b", 10, 0, TechPLC, TechWiFi)
	c := b.AddNode("c", 20, 0, TechWiFi)
	b.AddDuplex(a, bb, TechPLC, 10)
	b.AddDuplex(a, bb, TechWiFi, 30)
	b.AddDuplex(bb, c, TechWiFi, 15)
	return b.Build(), a, bb, c
}

func TestBuilderBasics(t *testing.T) {
	net, a, bb, c := buildFigure1()
	if net.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d, want 3", net.NumNodes())
	}
	if net.NumLinks() != 6 {
		t.Fatalf("NumLinks = %d, want 6", net.NumLinks())
	}
	if !net.Node(a).HasTech(TechPLC) || net.Node(c).HasTech(TechPLC) {
		t.Error("tech membership wrong")
	}
	if net.FindLink(a, bb, TechWiFi) < 0 {
		t.Error("missing a->b WiFi link")
	}
	if net.FindLink(c, a, TechWiFi) != -1 {
		t.Error("found nonexistent link c->a")
	}
	if got := len(net.Out(a)); got != 2 {
		t.Errorf("Out(a) = %d links, want 2", got)
	}
	if got := len(net.In(c)); got != 1 {
		t.Errorf("In(c) = %d links, want 1", got)
	}
	_ = c
}

func TestAddLinkPanics(t *testing.T) {
	b := NewBuilder(nil)
	n := b.AddNode("x", 0, 0, TechWiFi)
	for _, fn := range []func(){
		func() { b.AddLink(n, n, TechWiFi, 10) },
		func() { b.AddLink(n, NodeID(99), TechWiFi, 10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestInterferenceSingleDomain(t *testing.T) {
	net, a, bb, _ := buildFigure1()
	plc := net.FindLink(a, bb, TechPLC)
	wifiAB := net.FindLink(a, bb, TechWiFi)
	// PLC link interferes only with PLC links (2 directed PLC links total).
	if got := len(net.Interference(plc)); got != 2 {
		t.Errorf("|I_plc| = %d, want 2", got)
	}
	// WiFi a->b interferes with 4 directed WiFi links.
	if got := len(net.Interference(wifiAB)); got != 4 {
		t.Errorf("|I_wifiAB| = %d, want 4", got)
	}
	// I_l always contains l itself.
	found := false
	for _, id := range net.Interference(plc) {
		if id == plc {
			found = true
		}
	}
	if !found {
		t.Error("I_l must contain l")
	}
}

func TestInterferenceSymmetryProperty(t *testing.T) {
	net, _, _, _ := buildFigure1()
	for i := 0; i < net.NumLinks(); i++ {
		for _, j := range net.Interference(LinkID(i)) {
			sym := false
			for _, k := range net.Interference(j) {
				if k == LinkID(i) {
					sym = true
					break
				}
			}
			if !sym {
				t.Fatalf("interference not symmetric between %d and %d", i, j)
			}
		}
	}
}

func TestRangeBasedInterference(t *testing.T) {
	m := RangeBased{SenseRadius: map[Tech]float64{TechWiFi: 20}}
	b := NewBuilder(m)
	// Two WiFi link pairs far apart (>20m between all endpoints).
	a1 := b.AddNode("a1", 0, 0, TechWiFi)
	a2 := b.AddNode("a2", 5, 0, TechWiFi)
	b1 := b.AddNode("b1", 100, 0, TechWiFi)
	b2 := b.AddNode("b2", 105, 0, TechWiFi)
	l1 := b.AddLink(a1, a2, TechWiFi, 50)
	l2 := b.AddLink(b1, b2, TechWiFi, 50)
	net := b.Build()
	if len(net.Interference(l1)) != 1 {
		t.Errorf("far links should not interfere, |I| = %d", len(net.Interference(l1)))
	}
	if len(net.Interference(l2)) != 1 {
		t.Errorf("far links should not interfere, |I| = %d", len(net.Interference(l2)))
	}
}

func TestRangeBasedSharedEndpoint(t *testing.T) {
	m := RangeBased{SenseRadius: map[Tech]float64{TechWiFi: 1}}
	b := NewBuilder(m)
	u := b.AddNode("u", 0, 0, TechWiFi)
	v := b.AddNode("v", 50, 0, TechWiFi)
	w := b.AddNode("w", 100, 0, TechWiFi)
	l1 := b.AddLink(u, v, TechWiFi, 10)
	l2 := b.AddLink(v, w, TechWiFi, 10)
	net := b.Build()
	// Shared endpoint v forces interference regardless of radius.
	if len(net.Interference(l1)) != 2 || len(net.Interference(l2)) != 2 {
		t.Error("links sharing an endpoint must interfere")
	}
}

func TestLinkD(t *testing.T) {
	l := Link{Capacity: 10}
	if l.D() != 0.1 {
		t.Errorf("D = %v, want 0.1", l.D())
	}
	z := Link{Capacity: 0}
	if !math.IsInf(z.D(), 1) {
		t.Error("D of zero-capacity link should be +Inf")
	}
}

func TestPathNodesAndValidate(t *testing.T) {
	net, a, bb, c := buildFigure1()
	plc := net.FindLink(a, bb, TechPLC)
	wifiBC := net.FindLink(bb, c, TechWiFi)
	p := Path{plc, wifiBC}
	nodes, err := net.PathNodes(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 3 || nodes[0] != a || nodes[1] != bb || nodes[2] != c {
		t.Errorf("PathNodes = %v", nodes)
	}
	if err := net.ValidatePath(p, a, c); err != nil {
		t.Errorf("ValidatePath: %v", err)
	}
	// Wrong order is broken.
	if _, err := net.PathNodes(Path{wifiBC, plc}); err == nil {
		t.Error("expected broken-path error")
	}
	// Wrong endpoints.
	if err := net.ValidatePath(p, bb, c); err == nil {
		t.Error("expected wrong-source error")
	}
	if err := net.ValidatePath(p, a, bb); err == nil {
		t.Error("expected wrong-destination error")
	}
	// Empty path.
	if _, err := net.PathNodes(nil); err == nil {
		t.Error("expected empty-path error")
	}
}

func TestValidatePathLoop(t *testing.T) {
	b := NewBuilder(nil)
	u := b.AddNode("u", 0, 0, TechWiFi)
	v := b.AddNode("v", 1, 0, TechWiFi)
	uv := b.AddLink(u, v, TechWiFi, 10)
	vu := b.AddLink(v, u, TechWiFi, 10)
	uv2 := b.AddLink(u, v, TechWiFi, 20)
	net := b.Build()
	if err := net.ValidatePath(Path{uv, vu, uv2}, u, v); err == nil {
		t.Error("expected loop detection")
	}
}

func TestCloneIndependence(t *testing.T) {
	net, a, bb, _ := buildFigure1()
	c := net.Clone()
	id := net.FindLink(a, bb, TechPLC)
	c.Link(id).Capacity = 99
	if net.Link(id).Capacity == 99 {
		t.Error("Clone shares link storage with original")
	}
	if c.NumLinks() != net.NumLinks() || c.NumNodes() != net.NumNodes() {
		t.Error("Clone changed sizes")
	}
}

func TestDistance(t *testing.T) {
	b := NewBuilder(nil)
	u := b.AddNode("u", 0, 0, TechWiFi)
	v := b.AddNode("v", 3, 4, TechWiFi)
	net := b.Build()
	if got := net.Distance(u, v); math.Abs(got-5) > 1e-12 {
		t.Errorf("Distance = %v, want 5", got)
	}
}

func TestPathString(t *testing.T) {
	net, a, bb, c := buildFigure1()
	p := Path{net.FindLink(a, bb, TechPLC), net.FindLink(bb, c, TechWiFi)}
	s := net.PathString(p)
	if s == "" || s == "<empty>" {
		t.Errorf("PathString = %q", s)
	}
	if net.PathString(nil) != "<empty>" {
		t.Error("empty path string wrong")
	}
}

func TestTechString(t *testing.T) {
	if TechPLC.String() != "PLC" || TechWiFi.String() != "WiFi" || TechWiFi2.String() != "WiFi2" {
		t.Error("Tech.String wrong")
	}
	if Tech(9).String() != "Tech(9)" {
		t.Error("unknown tech string wrong")
	}
}
