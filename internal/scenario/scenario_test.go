package scenario

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/node"
)

// twoRouteNet builds the canonical two-route hybrid: a direct PLC
// connection and a direct WiFi connection between s and d, 40 Mbps each
// way.
func twoRouteNet(t *testing.T) (*graph.Network, graph.NodeID, graph.NodeID) {
	t.Helper()
	b := graph.NewBuilder(nil)
	s := b.AddNode("s", 0, 0, graph.TechPLC, graph.TechWiFi)
	d := b.AddNode("d", 1, 0, graph.TechPLC, graph.TechWiFi)
	b.AddDuplex(s, d, graph.TechPLC, 40)
	b.AddDuplex(s, d, graph.TechWiFi, 40)
	return b.Build(), s, d
}

// TestFlapFailoverMeasurement drives the canonical §6.1 case through the
// scenario engine: PLC dies mid-run and comes back. The congestion
// controller must move traffic to WiFi (a finite measured failover
// latency, sub-5s: estimation timeout + reordering stall + rate shift)
// and back after recovery.
func TestFlapFailoverMeasurement(t *testing.T) {
	net, _, _ := twoRouteNet(t)
	sc := New("flap", 150)
	sc.AddFlow(FlowSpec{Name: "f", Src: "s", Dst: "d", Start: 0})
	sc.FailLink(30, Link("s", "d", graph.TechPLC))
	sc.RecoverLink(90, Link("s", "d", graph.TechPLC))

	em := node.NewEmulation(net, node.Config{Estimation: true}, 31)
	rt, err := Bind(em, sc, 7, Options{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	rt.Run()

	if len(rt.Unresolved) != 0 {
		t.Fatalf("unresolved refs: %v", rt.Unresolved)
	}
	if len(rt.Failures) != 1 {
		t.Fatalf("recorded %d failure episodes, want 1", len(rt.Failures))
	}
	f := rt.Failures[0]
	if f.At != 30 || f.RecoveredAt != 90 {
		t.Fatalf("failure window [%g, %g], want [30, 90]", f.At, f.RecoveredAt)
	}
	lat, censored := rt.FailoverLatencies(0.2, 0.8)
	if censored != 0 || len(lat) != 1 {
		t.Fatalf("latencies %v censored %d, want one finite latency", lat, censored)
	}
	if lat[0] <= 0 || lat[0] > 5 {
		t.Errorf("failover latency %.2f s, want within (0, 5]", lat[0])
	}
	rec := rt.Flow("f")
	// After failover: WiFi (route with the WiFi first hop) carries ~40.
	during := rt.FlowGoodput("f", 60, 90)
	if during < 25 {
		t.Errorf("goodput %.2f Mbps during the PLC outage, want most of the WiFi capacity", during)
	}
	// After recovery: both routes again.
	after := rt.FlowGoodput("f", 130, 150)
	if after < during+8 {
		t.Errorf("goodput %.2f Mbps after recovery vs %.2f during outage: traffic did not shift back", after, during)
	}
	if got := rec.Flow.TotalRate(); got < 40 {
		t.Errorf("total rate %.2f Mbps at the end, want both routes loaded", got)
	}
}

// TestDegradedSinglePath pins the §6.1 contrast case: a single-route
// flow without congestion control loses its only link; the episode is
// censored (no failover) and the goodput inside the window collapses.
func TestDegradedSinglePath(t *testing.T) {
	net, s, d := twoRouteNet(t)
	plc := net.FindLink(s, d, graph.TechPLC)
	sc := New("degraded", 90)
	sc.AddFlow(FlowSpec{Name: "f", Src: "s", Dst: "d", Start: 0})
	sc.FailLink(30, Link("s", "d", graph.TechPLC))

	em := node.NewEmulation(net, node.Config{Estimation: true, DisableCC: true}, 5)
	rt, err := Bind(em, sc, 7, Options{
		Strict: true,
		Routes: func(n *graph.Network, src, dst graph.NodeID) []graph.Path {
			return []graph.Path{{plc}} // pinned single route, SP-style
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Run()
	lat, censored := rt.FailoverLatencies(0.2, 0.8)
	if len(lat) != 0 || censored != 1 {
		t.Fatalf("latencies %v censored %d, want one censored episode", lat, censored)
	}
	deg := rt.DegradedGoodput()
	if len(deg) != 1 || deg[0] > 2 {
		t.Errorf("degraded goodput %v, want ~0 (the only route is dead)", deg)
	}
}

// TestNodeChurnRestoresCapacities checks that node-leave kills exactly
// the node's live links and node-join restores exactly those.
func TestNodeChurnRestoresCapacities(t *testing.T) {
	b := graph.NewBuilder(nil)
	s := b.AddNode("s", 0, 0, graph.TechWiFi)
	r := b.AddNode("r", 1, 0, graph.TechWiFi)
	d := b.AddNode("d", 2, 0, graph.TechWiFi)
	b.AddDuplex(s, r, graph.TechWiFi, 30)
	b.AddDuplex(r, d, graph.TechWiFi, 30)
	b.AddDuplex(s, d, graph.TechWiFi, 10)
	net := b.Build()
	before := make([]float64, net.NumLinks())
	for l := range before {
		before[l] = net.Link(graph.LinkID(l)).Capacity
	}

	sc := New("churn", 60)
	sc.AddFlow(FlowSpec{Name: "f", Src: "s", Dst: "d", Start: 0})
	sc.NodeLeave(20, "r")
	sc.NodeJoin(40, "r")

	em := node.NewEmulation(net, node.Config{Estimation: true}, 9)
	rt, err := Bind(em, sc, 3, Options{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	em.Run(30)
	for _, l := range append(net.Out(r), net.In(r)...) {
		if c := net.Link(l).Capacity; c != 0 {
			t.Fatalf("link %d capacity %.1f while node r is away, want 0", l, c)
		}
	}
	if c := net.Link(net.FindLink(s, d, graph.TechWiFi)).Capacity; c != 10 {
		t.Fatalf("bypass link capacity %.1f during churn, want untouched 10", c)
	}
	rt.Run()
	for l := range before {
		if c := net.Link(graph.LinkID(l)).Capacity; c != before[l] {
			t.Errorf("link %d capacity %.1f after rejoin, want %.1f", l, c, before[l])
		}
	}
}

// TestPoissonArrivalsDeterministic expands the same arrival process
// twice with the same seed and checks the realized timelines are
// identical, and that arrivals actually start and stop flows.
func TestPoissonArrivalsDeterministic(t *testing.T) {
	net, _, _ := twoRouteNet(t)
	sc := New("arrivals", 120)
	sc.PoissonFlows(0.1, 15, "s", "d")

	e1 := expandProcesses(sc, net, 42)
	e2 := expandProcesses(sc, net, 42)
	if !reflect.DeepEqual(e1, e2) {
		t.Fatal("same seed expanded to different timelines")
	}
	e3 := expandProcesses(sc, net, 43)
	if reflect.DeepEqual(e1, e3) {
		t.Fatal("different seeds expanded to identical timelines (suspicious)")
	}
	if len(e1) == 0 {
		t.Fatal("rate 0.1/s over 120 s expanded to no arrivals")
	}

	em := node.NewEmulation(net, node.Config{Estimation: true}, 1)
	rt, err := Bind(em, sc, 42, Options{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	rt.Run()
	if len(rt.FlowNames()) != len(e1) {
		t.Fatalf("started %d flows, expansion had %d arrivals", len(rt.FlowNames()), len(e1))
	}
	stopped := 0
	for _, name := range rt.FlowNames() {
		if rt.Flow(name).StoppedAt > 0 {
			stopped++
		}
	}
	if stopped == 0 {
		t.Error("no arrival departed despite 15 s mean holding time over 120 s")
	}
}

// TestDriftStaysClamped checks the drift walk's cumulative factor
// honours the clamp and actually moves the capacity.
func TestDriftStaysClamped(t *testing.T) {
	net, s, d := twoRouteNet(t)
	plc := net.FindLink(s, d, graph.TechPLC)
	sc := New("drift", 60)
	sc.AddFlow(FlowSpec{Name: "f", Src: "s", Dst: "d", Start: 0})
	sc.Drift(Link("s", "d", graph.TechPLC), 1, 0.3, 0.25, 1.25)

	em := node.NewEmulation(net, node.Config{Estimation: true}, 2)
	rt, err := Bind(em, sc, 11, Options{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	moved := false
	for t2 := 1.0; t2 <= 60; t2++ {
		em.Run(t2)
		c := net.Link(plc).Capacity
		if c < 0.25*40-1e-9 || c > 1.25*40+1e-9 {
			t.Fatalf("capacity %.2f at t=%.0f outside the clamp [10, 50]", c, t2)
		}
		if math.Abs(c-40) > 1 {
			moved = true
		}
	}
	rt.Finish()
	if !moved {
		t.Error("drift never moved the capacity by more than 1 Mbps")
	}
}

// TestJSONRoundTrip saves a built scenario and loads it back.
func TestJSONRoundTrip(t *testing.T) {
	sc := New("roundtrip", 90)
	sc.Topology = &TopologySpec{
		Kind: "custom",
		Nodes: []NodeSpec{
			{Name: "s", Techs: []string{"PLC", "WiFi"}},
			{Name: "d", X: 1, Techs: []string{"PLC", "WiFi"}},
		},
		Links: []LinkSpec{
			{From: "s", To: "d", Tech: "PLC", Capacity: 40},
			{From: "s", To: "d", Tech: "WiFi", Capacity: 40},
		},
	}
	sc.AddFlow(FlowSpec{Name: "f", Src: "s", Dst: "d", Start: 0})
	sc.Flap(Link("s", "d", graph.TechPLC), 20, 8, 25)
	path := filepath.Join(t.TempDir(), "sc.json")
	if err := sc.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sc) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, sc)
	}
	// The loaded topology must build and the scenario must bind.
	net, err := got.Topology.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	em := node.NewEmulation(net, node.Config{Estimation: true}, 1)
	if _, err := Bind(em, got, 1, Options{Strict: true}); err != nil {
		t.Fatal(err)
	}
}

// TestParseRejectsUnknownFields guards hand-written files against typos.
func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse([]byte(`{"name":"x","duration":10,"evnets":[]}`)); err == nil {
		t.Fatal("typoed field accepted")
	}
	if _, err := Parse([]byte(`{"name":"x","duration":-1}`)); err == nil {
		t.Fatal("negative duration accepted")
	}
}

// TestLenientUnresolved drops events whose links don't exist on this
// view and records them, instead of failing the bind — scheme sweeps on
// WiFi-only views depend on this.
func TestLenientUnresolved(t *testing.T) {
	b := graph.NewBuilder(nil)
	b.AddNode("s", 0, 0, graph.TechWiFi)
	b.AddNode("d", 1, 0, graph.TechWiFi)
	b.AddDuplex(0, 1, graph.TechWiFi, 40)
	net := b.Build()
	sc := New("lenient", 30)
	sc.AddFlow(FlowSpec{Name: "f", Src: "s", Dst: "d", Start: 0})
	sc.FailLink(10, Link("s", "d", graph.TechPLC)) // no PLC on this view

	em := node.NewEmulation(net, node.Config{Estimation: true}, 1)
	if _, err := Bind(em, sc, 1, Options{Strict: true}); err == nil {
		t.Fatal("strict bind accepted an unresolvable link")
	}
	em = node.NewEmulation(net, node.Config{Estimation: true}, 1)
	rt, err := Bind(em, sc, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.Unresolved) != 1 {
		t.Fatalf("unresolved %v, want exactly the PLC fail event", rt.Unresolved)
	}
	rt.Run()
	if len(rt.Failures) != 0 {
		t.Fatal("dropped event still produced a failure episode")
	}
}

// TestCustomViews materializes a custom topology under the three views.
func TestCustomViews(t *testing.T) {
	spec := &TopologySpec{
		Kind: "custom",
		Nodes: []NodeSpec{
			{Name: "a", Techs: []string{"PLC", "WiFi"}},
			{Name: "b", X: 1, Techs: []string{"PLC", "WiFi"}},
		},
		Links: []LinkSpec{
			{From: "a", To: "b", Tech: "PLC", Capacity: 40},
			{From: "a", To: "b", Tech: "WiFi", Capacity: 30},
		},
	}
	hybrid, err := spec.BuildView(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hybrid.NumLinks() != 4 {
		t.Fatalf("hybrid view has %d links, want 4", hybrid.NumLinks())
	}
	wifi, err := spec.BuildView(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if wifi.NumLinks() != 2 {
		t.Fatalf("wifi view has %d links, want 2", wifi.NumLinks())
	}
	dual, err := spec.BuildView(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if dual.NumLinks() != 4 {
		t.Fatalf("dual view has %d links, want 4 (two channels)", dual.NumLinks())
	}
	for l := 0; l < dual.NumLinks(); l++ {
		if dual.Link(graph.LinkID(l)).Tech == graph.TechPLC {
			t.Fatal("dual-WiFi view still contains a PLC link")
		}
	}
}

// TestManagedRerouteOnFailure covers the route-manager integration: a
// flow pinned to the only direct route loses it; the manager's fast
// failover check must detect the death through the estimates and swap
// onto the relay path, then re-adopt the direct route after recovery
// (the network-wide capacity-variation trigger).
func TestManagedRerouteOnFailure(t *testing.T) {
	b := graph.NewBuilder(nil)
	s := b.AddNode("s", 0, 0, graph.TechPLC, graph.TechWiFi)
	r := b.AddNode("r", 10, 0, graph.TechWiFi)
	d := b.AddNode("d", 20, 0, graph.TechPLC, graph.TechWiFi)
	b.AddDuplex(s, d, graph.TechPLC, 40)
	b.AddDuplex(s, r, graph.TechWiFi, 60)
	b.AddDuplex(r, d, graph.TechWiFi, 60)
	net := b.Build()

	sc := New("reroute", 180)
	sc.AddFlow(FlowSpec{Name: "f", Src: "s", Dst: "d", Start: 0, MaxRoutes: 1})
	sc.FailLink(30, Link("s", "d", graph.TechPLC))
	sc.RecoverLink(90, Link("s", "d", graph.TechPLC))

	em := node.NewEmulation(net, node.Config{Estimation: true}, 17)
	rt, err := Bind(em, sc, 5, Options{Strict: true, ManageRoutes: true})
	if err != nil {
		t.Fatal(err)
	}
	em.Run(30)
	rec := rt.Flow("f")
	if n := len(rec.Flow.Routes()); n != 1 {
		t.Fatalf("flow started with %d routes, want the single direct PLC route", n)
	}
	em.Run(90)
	if rec.Mgr.Reroutes == 0 {
		t.Fatal("manager never rerouted off the dead direct route")
	}
	if g := rt.FlowGoodput("f", 60, 90); g < 15 {
		t.Errorf("goodput %.2f Mbps on the relay path during the outage, want ~25", g)
	}
	rt.Run()
	// After recovery the manager must come back to the (better) direct
	// route: the current relay route's total cannot see the recovery,
	// only the network-wide capacity signal does.
	onPLC := false
	for _, p := range rec.Flow.Routes() {
		for _, l := range p {
			if em.Net.Link(l).Tech == graph.TechPLC {
				onPLC = true
			}
		}
	}
	if !onPLC {
		t.Errorf("flow still on %d relay route(s) 90 s after the direct route recovered", len(rec.Flow.Routes()))
	}
	if g := rt.FlowGoodput("f", 150, 180); g < 30 {
		t.Errorf("goodput %.2f Mbps after re-adoption, want most of the 40 Mbps direct route", g)
	}
}

// TestDriftDoesNotResurrectDeadLink pins the drift/failure interplay: a
// drift step on a link that a failure event killed must not bring it
// back to life (nor close the failure window as a spurious recovery).
func TestDriftDoesNotResurrectDeadLink(t *testing.T) {
	net, s, d := twoRouteNet(t)
	plc := net.FindLink(s, d, graph.TechPLC)
	sc := New("drift-vs-fail", 60)
	sc.AddFlow(FlowSpec{Name: "f", Src: "s", Dst: "d", Start: 0})
	sc.FailLink(10, Link("s", "d", graph.TechPLC))
	sc.RecoverLink(40, Link("s", "d", graph.TechPLC))
	sc.Drift(Link("s", "d", graph.TechPLC), 1, 0.3, 0.25, 1.25)

	em := node.NewEmulation(net, node.Config{Estimation: true}, 4)
	rt, err := Bind(em, sc, 13, Options{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	for t2 := 11.0; t2 < 40; t2++ {
		em.Run(t2)
		if c := net.Link(plc).Capacity; c != 0 {
			t.Fatalf("drift resurrected the failed link to %.2f Mbps at t=%.0f", c, t2)
		}
	}
	rt.Run()
	if len(rt.Failures) != 1 || rt.Failures[0].RecoveredAt != 40 {
		t.Fatalf("failure windows %+v, want one closed exactly at the recover event", rt.Failures)
	}
	if c := net.Link(plc).Capacity; c <= 0 {
		t.Fatalf("link still dead after its recovery event")
	}
}

// TestGrayLossWiresMACLossProb drives a gray-failure window through the
// engine: the set-loss event must land in the MAC's per-link loss
// probability, actually drop packets with the channel-loss reason, and
// record a Loss-carrying transition — all without tripping the runtime
// invariant checker (a gray failure is a legal trajectory).
func TestGrayLossWiresMACLossProb(t *testing.T) {
	net, s, d := twoRouteNet(t)
	plc := net.FindLink(s, d, graph.TechPLC)
	sc := New("gray", 60)
	sc.AddFlow(FlowSpec{Name: "f", Src: "s", Dst: "d", Start: 0})
	// down_mean far beyond the duration: the first window opens at t=5
	// and stays open, so the end state is deterministic.
	sc.GrayLoss(Link("s", "d", graph.TechPLC), 0.3, 5, 1e6, 10)

	em := node.NewEmulation(net, node.Config{Estimation: true}, 21)
	rt, err := Bind(em, sc, 9, Options{Strict: true, Invariants: true})
	if err != nil {
		t.Fatal(err)
	}
	rt.Run()
	if got := em.LinkLoss(plc); got != 0.3 {
		t.Errorf("MAC loss probability %.2f after the run, want the 0.3 the window set", got)
	}
	found := false
	for _, tr := range rt.Transitions {
		if tr.Kind == SetLoss && tr.Link == plc && tr.Loss == 0.3 {
			found = true
		}
	}
	if !found {
		t.Error("no set-loss transition with loss 0.3 recorded")
	}
	if n := rt.DropsByReason()["channel-loss"]; n == 0 {
		t.Error("0 channel-loss drops across 55 s of 30% loss under load")
	}
	if v := rt.Violations(); len(v) != 0 {
		t.Errorf("invariant checker flagged a legal gray-failure run: %v", v)
	}
}

// TestGroupFailKillsAndRestoresMembers pins correlated failures: a
// group-fail event must kill exactly the member links in one virtual
// instant, and group-recover must restore exactly those.
func TestGroupFailKillsAndRestoresMembers(t *testing.T) {
	b := graph.NewBuilder(nil)
	s := b.AddNode("s", 0, 0, graph.TechPLC, graph.TechWiFi)
	d := b.AddNode("d", 1, 0, graph.TechPLC, graph.TechWiFi)
	b.AddDuplex(s, d, graph.TechPLC, 40)
	b.AddDuplex(s, d, graph.TechWiFi, 40)
	net := b.Build()
	plc := net.FindLink(s, d, graph.TechPLC)
	wifi := net.FindLink(s, d, graph.TechWiFi)

	sc := New("group", 60)
	sc.AddFlow(FlowSpec{Name: "f", Src: "s", Dst: "d", Start: 0})
	sc.Group("phase", Link("s", "d", graph.TechPLC))
	sc.FailGroup(20, "phase")
	sc.RecoverGroup(40, "phase")

	em := node.NewEmulation(net, node.Config{Estimation: true}, 23)
	rt, err := Bind(em, sc, 3, Options{Strict: true, Invariants: true})
	if err != nil {
		t.Fatal(err)
	}
	em.Run(30)
	if c := net.Link(plc).Capacity; c != 0 {
		t.Fatalf("group member capacity %.1f inside the failure window, want 0", c)
	}
	if c := net.Link(wifi).Capacity; c != 40 {
		t.Fatalf("non-member capacity %.1f inside the failure window, want untouched 40", c)
	}
	rt.Run()
	if c := net.Link(plc).Capacity; c != 40 {
		t.Fatalf("group member capacity %.1f after recovery, want 40", c)
	}
	if len(rt.Failures) == 0 {
		t.Error("group failure opened no failure episode for the crossing flow")
	}
	if v := rt.Violations(); len(v) != 0 {
		t.Errorf("invariant checker flagged a legal group-failure run: %v", v)
	}
}

// TestFlashCrowdExpansion covers the flash-crowd process: deterministic
// expansion per seed, the full burst arriving, and the crowd flows
// actually running and departing.
func TestFlashCrowdExpansion(t *testing.T) {
	net, _, _ := twoRouteNet(t)
	sc := New("crowd", 40)
	sc.AddFlow(FlowSpec{Name: "f", Src: "s", Dst: "d", Start: 0})
	sc.FlashCrowd(10, 0, 4, 2, 5, "s", "d")

	e1 := expandProcesses(sc, net, 42)
	e2 := expandProcesses(sc, net, 42)
	if !reflect.DeepEqual(e1, e2) {
		t.Fatal("same seed expanded to different crowd timelines")
	}
	if len(e1) != 4 {
		t.Fatalf("single burst of 4 expanded to %d events", len(e1))
	}

	em := node.NewEmulation(net, node.Config{Estimation: true}, 27)
	rt, err := Bind(em, sc, 42, Options{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	rt.Run()
	crowd, stopped := 0, 0
	for _, name := range rt.FlowNames() {
		if name == "f" {
			continue
		}
		crowd++
		if rt.Flow(name).StoppedAt > 0 {
			stopped++
		}
	}
	if crowd != 4 {
		t.Fatalf("started %d crowd flows, want the full burst of 4", crowd)
	}
	if stopped == 0 {
		t.Error("no crowd flow departed despite 5 s mean holding time over 30 s")
	}
}

// TestValidateRejectsDuplicateFlowNames covers scripted flows, event
// flows, and the cross product of both.
func TestValidateRejectsDuplicateFlowNames(t *testing.T) {
	dup := New("dup", 30)
	dup.AddFlow(FlowSpec{Name: "f", Src: "s", Dst: "d"})
	dup.AddFlow(FlowSpec{Name: "f", Src: "s", Dst: "d"})
	if err := dup.Validate(); err == nil {
		t.Fatal("duplicate scripted flow names accepted")
	}
	ev := New("dup-ev", 30)
	ev.AddFlow(FlowSpec{Name: "f", Src: "s", Dst: "d"})
	ev.Events = append(ev.Events, Event{At: 5, Kind: FlowStart, Flow: &FlowSpec{Name: "f", Src: "s", Dst: "d"}})
	if err := ev.Validate(); err == nil {
		t.Fatal("flow-start event reusing a scripted flow name accepted")
	}
	anon := New("anon", 30)
	anon.Events = append(anon.Events, Event{At: 5, Kind: FlowStart, Flow: &FlowSpec{Src: "s", Dst: "d"}})
	if err := anon.Validate(); err == nil {
		t.Fatal("nameless flow-start flow accepted")
	}
}
