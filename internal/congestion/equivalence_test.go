package congestion

// Property tests asserting the SoA batch controller is exact-== equivalent
// to the scalar reference (reference_test.go): same trajectories, bit for
// bit, across random topologies, flow sets, alpha values, CSC on/off
// routing, both controller modes, external load, fair-share floors and
// non-default utilities — and, slot by slot, every link's γ and every
// route's q through mid-run changes of the external load and step size.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topology"
)

// randomScenario draws a random instance, view and route set the way the
// §5 sweeps do: single-path or multipath routes for 1-4 random flows, CSC
// on or off.
func randomScenario(rng *rand.Rand) (*graph.Network, []Route) {
	var inst *topology.Instance
	if rng.Intn(2) == 0 {
		inst = topology.Residential(rng, topology.Config{})
	} else {
		inst = topology.Enterprise(rng, topology.Config{})
	}
	view := topology.View(rng.Intn(3))
	net := inst.BuildCached(view)
	cfg := routing.Config{N: 2 + rng.Intn(4), UseCSC: rng.Intn(2) == 0}
	multi := rng.Intn(2) == 0
	routes := randomRoutes(rng, inst, net.Network, 1+rng.Intn(4), multi, cfg)
	if len(routes) == 0 {
		return nil, nil
	}
	return net.Network, routes
}

// randomRoutes draws routes for the given number of random flows on net.
func randomRoutes(rng *rand.Rand, inst *topology.Instance, net *graph.Network, flows int, multi bool, cfg routing.Config) []Route {
	var routes []Route
	for f := 0; f < flows; f++ {
		src, dst := inst.RandomFlow(rng)
		if multi {
			for _, p := range routing.Multipath(net, src, dst, cfg).Paths {
				routes = append(routes, Route{Links: p, Flow: f})
			}
		} else {
			if p := routing.SinglePath(net, src, dst, cfg); p != nil {
				routes = append(routes, Route{Links: p, Flow: f})
			}
		}
	}
	return routes
}

// randomLoad draws an external load vector with about one link in oneIn
// loaded.
func randomLoad(rng *rand.Rand, nl, oneIn int) []float64 {
	ext := make([]float64, nl)
	for l := range ext {
		if rng.Intn(oneIn) == 0 {
			ext[l] = rng.Float64() * 20
		}
	}
	return ext
}

// assertSameState fails unless the batch controller and the reference agree
// exactly on every flow's rate, every link's γ and every route's q.
func assertSameState(t *testing.T, tag string, ctrl *Controller, ref *refController) {
	t.Helper()
	for f := 0; f < ref.flows; f++ {
		if g, w := ctrl.FlowRate(f), ref.FlowRate(f); g != w {
			t.Fatalf("%s: flow %d: batch %v != reference %v", tag, f, g, w)
		}
	}
	for l := range ref.gamma {
		if g, w := ctrl.Gamma(graph.LinkID(l)), ref.gamma[l]; g != w {
			t.Fatalf("%s: gamma[%d]: batch %v != reference %v", tag, l, g, w)
		}
	}
	for r := range ref.q {
		if g, w := ctrl.Price(r), ref.q[r]; g != w {
			t.Fatalf("%s: q[%d]: batch %v != reference %v", tag, r, g, w)
		}
	}
}

// newPair builds the batch controller and the reference for one problem.
func newPair(t *testing.T, net *graph.Network, routes []Route, opts Options) (*Controller, *refController) {
	t.Helper()
	ctrl, err := New(net, routes, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ref, err := newRef(net, routes, opts)
	if err != nil {
		t.Fatalf("newRef: %v", err)
	}
	return ctrl, ref
}

// stepBoth advances both controllers slot by slot, comparing their whole
// state after each.
func stepBoth(t *testing.T, tag string, ctrl *Controller, ref *refController, slots int) {
	t.Helper()
	for s := 0; s < slots; s++ {
		ctrl.Step()
		ref.Step()
		assertSameState(t, fmt.Sprintf("%s slot %d", tag, s), ctrl, ref)
	}
}

// randomOptions draws controller options spanning the feature surface.
func randomOptions(rng *rand.Rand, routes []Route) Options {
	opts := Options{}
	switch rng.Intn(3) {
	case 0:
		opts.Alpha = 0.02
	case 1:
		opts.Alpha = 0.005 + rng.Float64()*0.1
	case 2:
		opts.Alpha = 1 // boundary
	}
	if rng.Intn(2) == 0 {
		opts.Delta = rng.Float64() * 0.3
	}
	opts.Mode = Mode(rng.Intn(3))
	opts.DisableRateCap = rng.Intn(4) == 0
	if rng.Intn(3) == 0 {
		opts.FairShareFloor = 0.1 + rng.Float64()*0.5
	}
	if rng.Intn(3) == 0 {
		opts.UtilityScale = 1 + rng.Float64()*99
	}
	if rng.Intn(3) == 0 {
		opts.InitialRates = make([]float64, len(routes))
		for i := range opts.InitialRates {
			opts.InitialRates[i] = rng.Float64() * 30
		}
	}
	if rng.Intn(4) == 0 {
		opts.Utilities = map[int]Utility{}
		for f := 0; f < 4; f++ {
			switch rng.Intn(3) {
			case 0:
				opts.Utilities[f] = ProportionalFairness{Weight: 1 + rng.Float64()}
			case 1:
				opts.Utilities[f] = AlphaFair{A: 2}
			}
		}
	}
	return opts
}

// TestBatchMatchesReferenceTrajectories is the core equivalence property:
// over random scenarios, every slot of every flow's trajectory must be
// exactly equal (==, no tolerance) between the batch controller and the
// scalar reference.
func TestBatchMatchesReferenceTrajectories(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	cases := 60
	if testing.Short() {
		cases = 15
	}
	for it := 0; it < cases; it++ {
		net, routes := randomScenario(rng)
		if net == nil {
			continue
		}
		opts := randomOptions(rng, routes)
		slots := 50 + rng.Intn(200)

		ctrl, err := New(net, routes, opts)
		if err != nil {
			t.Fatalf("case %d: New: %v", it, err)
		}
		ref, err := newRef(net, routes, opts)
		if err != nil {
			t.Fatalf("case %d: newRef: %v", it, err)
		}
		if rng.Intn(3) == 0 {
			ext := randomLoad(rng, net.NumLinks(), 4)
			ctrl.SetExternalLoad(ext)
			ref.ExternalLoad = ext
		}

		got := ctrl.Run(slots)
		want := ref.Run(slots)
		for s := range want {
			for f := range want[s] {
				if got[s][f] != want[s][f] {
					t.Fatalf("case %d (routes=%d opts=%+v): slot %d flow %d: batch %v != reference %v",
						it, len(routes), opts, s, f, got[s][f], want[s][f])
				}
			}
		}
		// Duals and prices must agree too, not just the rate projections.
		assertSameState(t, fmt.Sprintf("case %d", it), ctrl, ref)
	}
}

// TestBatchMatchesReferenceMidRun steps both controllers slot by slot and
// compares every link's γ — including links with no source in range — and
// every route's q after each slot, while the external load is replaced
// (new links loaded, others cleared) and the step size changed at random
// slots, and MaxAirtimeViolation, which shares Step's offered scratch, is
// called in between.
func TestBatchMatchesReferenceMidRun(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	cases := 40
	if testing.Short() {
		cases = 10
	}
	for it := 0; it < cases; it++ {
		net, routes := randomScenario(rng)
		if net == nil {
			continue
		}
		opts := randomOptions(rng, routes)
		ctrl, ref := newPair(t, net, routes, opts)
		slots := 60 + rng.Intn(120)
		loadAt := [2]int{rng.Intn(slots), rng.Intn(slots)}
		alphaAt := rng.Intn(slots)
		// Dense loads reach every domain; sparse ones leave links with no
		// source in range.
		oneIn := []int{4, 40, 400}[rng.Intn(3)]
		loads := [2][]float64{randomLoad(rng, net.NumLinks(), oneIn), nil}
		if rng.Intn(2) == 0 {
			loads[1] = randomLoad(rng, net.NumLinks(), oneIn)
		}
		for s := 0; s < slots; s++ {
			for i, at := range loadAt {
				if s != at {
					continue
				}
				// The controller copies; the reference aliases. Scribbling
				// on the caller's slice afterwards must not reach the copy.
				mine := append([]float64(nil), loads[i]...)
				ctrl.SetExternalLoad(mine)
				for l := range mine {
					mine[l] = 1e9
				}
				ref.ExternalLoad = loads[i]
			}
			if s == alphaAt {
				a := 0.005 + rng.Float64()*0.2
				ctrl.SetAlpha(a)
				ref.opts.Alpha = a
			}
			if rng.Intn(8) == 0 {
				ctrl.MaxAirtimeViolation()
			}
			ctrl.Step()
			ref.Step()
			assertSameState(t, fmt.Sprintf("case %d (opts=%+v) slot %d", it, opts, s), ctrl, ref)
		}
	}
}

// TestBatchSourcelessLinksMatchReference pins the links no source reaches:
// with routes on WiFi only, the PLC links sit in the γ ≡ 0 cell; a
// saturating external PLC station then drives their budget negative, so
// their γ grows without any own traffic, and decays once it leaves.
func TestBatchSourcelessLinksMatchReference(t *testing.T) {
	b := graph.NewBuilder(nil)
	n0 := b.AddNode("a", 0, 0, graph.TechWiFi, graph.TechPLC)
	n1 := b.AddNode("b", 1, 0, graph.TechWiFi, graph.TechPLC)
	n2 := b.AddNode("c", 2, 0, graph.TechWiFi, graph.TechPLC)
	w0 := b.AddLink(n0, n1, graph.TechWiFi, 40)
	w1 := b.AddLink(n1, n2, graph.TechWiFi, 30)
	p0 := b.AddLink(n0, n1, graph.TechPLC, 20)
	p1 := b.AddLink(n1, n2, graph.TechPLC, 25)
	net := b.Build()
	routes := []Route{{Links: graph.Path{w0, w1}, Flow: 0}}
	ctrl, ref := newPair(t, net, routes, Options{})
	stepBoth(t, "no load", ctrl, ref, 40)
	if g := ctrl.Gamma(p0) + ctrl.Gamma(p1); g != 0 {
		t.Fatalf("PLC duals %v with no source in range, want 0", g)
	}
	ext := make([]float64, net.NumLinks())
	ext[p1] = 50 // twice the link's capacity
	ctrl.SetExternalLoad(ext)
	ref.ExternalLoad = ext
	stepBoth(t, "saturated", ctrl, ref, 40)
	if ctrl.Gamma(p0) <= 0 {
		t.Fatalf("PLC dual %v under a saturating external station, want > 0", ctrl.Gamma(p0))
	}
	ctrl.SetExternalLoad(nil)
	ref.ExternalLoad = nil
	stepBoth(t, "cleared", ctrl, ref, 200)
}

// TestBatchMatchesReferenceManyFlows covers problems with more than 64 used
// links (cells are a partition, not a bitmask over sources), with and
// without external load.
func TestBatchMatchesReferenceManyFlows(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inst := topology.Enterprise(rng, topology.Config{})
	net := inst.BuildCached(topology.ViewHybrid).Network
	routes := randomRoutes(rng, inst, net, 40, true, routing.Config{N: 5, UseCSC: true})
	used := map[graph.LinkID]bool{}
	for _, r := range routes {
		for _, l := range r.Links {
			used[l] = true
		}
	}
	if len(used) <= 64 {
		t.Fatalf("only %d used links, want > 64: pick another seed", len(used))
	}
	for _, withLoad := range []bool{false, true} {
		ctrl, ref := newPair(t, net, routes, Options{Delta: 0.05, FairShareFloor: 0.2})
		if withLoad {
			ext := randomLoad(rng, net.NumLinks(), 4)
			ctrl.SetExternalLoad(ext)
			ref.ExternalLoad = ext
		}
		stepBoth(t, fmt.Sprintf("load=%v", withLoad), ctrl, ref, 150)
	}
}

// TestResetSameNetworkNewRoutes: Reset onto a different route set on the
// same *graph.Network reuses the interference CSR but must leave nothing of
// the previous problem's cells, sources or external load behind.
func TestResetSameNetworkNewRoutes(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	inst := topology.Residential(rng, topology.Config{})
	net := inst.BuildCached(topology.ViewHybrid).Network
	ctrl := &Controller{}
	for it := 0; it < 12; it++ {
		routes := randomRoutes(rng, inst, net, 1+rng.Intn(5), rng.Intn(2) == 0, routing.Config{N: 3, UseCSC: true})
		if len(routes) == 0 {
			continue
		}
		opts := randomOptions(rng, routes)
		if err := ctrl.Reset(net, routes, opts); err != nil {
			t.Fatalf("case %d: Reset: %v", it, err)
		}
		ref, err := newRef(net, routes, opts)
		if err != nil {
			t.Fatalf("case %d: newRef: %v", it, err)
		}
		// Every other problem leaves external load behind for the next
		// Reset to clear.
		if it%2 == 0 {
			ext := randomLoad(rng, net.NumLinks(), 4)
			ctrl.SetExternalLoad(ext)
			ref.ExternalLoad = ext
		}
		stepBoth(t, fmt.Sprintf("case %d", it), ctrl, ref, 60)
	}
}

// TestResetMatchesFreshController: a controller Reset onto a new problem
// must behave exactly like a freshly allocated one — the pooled sweep path
// depends on this.
func TestResetMatchesFreshController(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ctrl := &Controller{}
	for it := 0; it < 25; it++ {
		net, routes := randomScenario(rng)
		if net == nil {
			continue
		}
		opts := randomOptions(rng, routes)
		if err := ctrl.Reset(net, routes, opts); err != nil {
			t.Fatalf("case %d: Reset: %v", it, err)
		}
		fresh, err := New(net, routes, opts)
		if err != nil {
			t.Fatalf("case %d: New: %v", it, err)
		}
		slots := 30 + rng.Intn(100)
		got := ctrl.Run(slots)
		want := fresh.Run(slots)
		for s := range want {
			for f := range want[s] {
				if got[s][f] != want[s][f] {
					t.Fatalf("case %d: slot %d flow %d: reset %v != fresh %v", it, s, f, got[s][f], want[s][f])
				}
			}
		}
	}
}

// TestRunAppendMatchesRun: the flat batch form must produce the same
// values as the row-sliced Run.
func TestRunAppendMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for it := 0; it < 10; it++ {
		net, routes := randomScenario(rng)
		if net == nil {
			continue
		}
		opts := randomOptions(rng, routes)
		a, err := New(net, routes, opts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(net, routes, opts)
		if err != nil {
			t.Fatal(err)
		}
		rows := a.Run(80)
		flat := b.RunAppend(80, nil)
		nf := a.NumFlows()
		if len(flat) != 80*nf {
			t.Fatalf("RunAppend length %d, want %d", len(flat), 80*nf)
		}
		for s := range rows {
			for f := range rows[s] {
				if rows[s][f] != flat[s*nf+f] {
					t.Fatalf("slot %d flow %d: Run %v != RunAppend %v", s, f, rows[s][f], flat[s*nf+f])
				}
			}
		}
	}
}

// TestBatchDeadLinkMatchesReference pins the cap<=0 edge cases (infinite
// prices, zero-capacity bottlenecks) that the SoA rewrite restructured.
func TestBatchDeadLinkMatchesReference(t *testing.T) {
	b := graph.NewBuilder(nil)
	n0 := b.AddNode("a", 0, 0, graph.TechWiFi)
	n1 := b.AddNode("b", 1, 0, graph.TechWiFi)
	n2 := b.AddNode("c", 2, 0, graph.TechWiFi)
	l0 := b.AddLink(n0, n1, graph.TechWiFi, 0) // dead link
	l1 := b.AddLink(n1, n2, graph.TechWiFi, 30)
	net := b.Build()
	routes := []Route{{Links: graph.Path{l0, l1}, Flow: 0}, {Links: graph.Path{l1}, Flow: 1}}
	for _, mode := range []Mode{ModeAuto, ModeMultipath} {
		opts := Options{Mode: mode}
		ctrl, err := New(net, routes, opts)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := newRef(net, routes, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, want := ctrl.Run(120), ref.Run(120)
		for s := range want {
			for f := range want[s] {
				if got[s][f] != want[s][f] {
					t.Fatalf("mode %v slot %d flow %d: %v != %v", mode, s, f, got[s][f], want[s][f])
				}
			}
		}
		if !math.IsInf(ctrl.Price(0), 1) {
			t.Fatalf("mode %v: expected infinite price on dead route, got %v", mode, ctrl.Price(0))
		}
	}
}
