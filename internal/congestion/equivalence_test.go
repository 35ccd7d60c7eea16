package congestion

// Property tests asserting the SoA batch controller is exact-== equivalent
// to the scalar reference (reference_test.go): same trajectories, bit for
// bit, across random topologies, flow sets, alpha values, CSC on/off
// routing, both controller modes, external load, fair-share floors and
// non-default utilities — and, slot by slot, every link's γ and every
// route's q through mid-run changes of the external load and step size.
// The second half holds RunAppend's replay of periodic trajectories to the
// plain stepping loop (referenceRunAppend): same trajectory, same end state.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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
// (new links loaded, others cleared, the first load put back) and the step
// size changed at random slots, and MaxAirtimeViolation, which shares
// Step's offered scratch, is called in between. One pooled controller
// serves every case, so the row sums it keeps cross Resets, and the load
// schedule makes duals clip to 0 and rise again (counted, and required).
func TestBatchMatchesReferenceMidRun(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	cases := 40
	if testing.Short() {
		cases = 10
	}
	ctrl := &Controller{}
	rose := 0 // links whose γ was positive, clipped to 0, and rose again
	for it := 0; it < cases; it++ {
		net, routes := randomScenario(rng)
		if net == nil {
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
		slots := 60 + rng.Intn(120)
		loadAt := [3]int{rng.Intn(slots), rng.Intn(slots), rng.Intn(slots)}
		alphaAt := rng.Intn(slots)
		// Dense loads reach every domain; sparse ones leave links with no
		// source in range.
		oneIn := []int{4, 40, 400}[rng.Intn(3)]
		loads := [3][]float64{randomLoad(rng, net.NumLinks(), oneIn), nil, nil}
		if rng.Intn(2) == 0 {
			loads[1] = randomLoad(rng, net.NumLinks(), oneIn)
		}
		loads[2] = loads[0]
		phase := make([]int8, net.NumLinks()) // 0 never positive, 1 positive, 2 clipped since
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
			for l := range phase {
				switch g := ctrl.Gamma(graph.LinkID(l)); {
				case g > 0 && phase[l] == 2:
					rose++
					phase[l] = 1
				case g > 0:
					phase[l] = 1
				case phase[l] == 1:
					phase[l] = 2
				}
			}
		}
	}
	if rose == 0 {
		t.Fatal("no dual clipped to 0 and rose again: the schedule no longer covers a row whose sum is reused and then re-summed")
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
// depends on this. One pooled controller is Reset onto other networks and
// onto new routes on the same network, and external load arrives between
// slots (new sources split cells); at every slot its rates, every link's γ
// and every route's q equal a fresh controller's and the reference's, and
// so do the trajectories and end states of a following Run.
func TestResetMatchesFreshController(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ctrl := &Controller{}
	var inst *topology.Instance
	var net *graph.Network
	sameNet := 0
	for it := 0; it < 25; it++ {
		if it%3 == 2 && net != nil {
			sameNet++
		} else if rng.Intn(2) == 0 {
			inst = topology.Residential(rng, topology.Config{})
			net = inst.BuildCached(topology.View(rng.Intn(3))).Network
		} else {
			inst = topology.Enterprise(rng, topology.Config{})
			net = inst.BuildCached(topology.View(rng.Intn(3))).Network
		}
		cfg := routing.Config{N: 2 + rng.Intn(4), UseCSC: rng.Intn(2) == 0}
		routes := randomRoutes(rng, inst, net, 1+rng.Intn(4), rng.Intn(2) == 0, cfg)
		if len(routes) == 0 {
			continue
		}
		opts := randomOptions(rng, routes)
		if err := ctrl.Reset(net, routes, opts); err != nil {
			t.Fatalf("case %d: Reset: %v", it, err)
		}
		fresh, ref := newPair(t, net, routes, opts)
		slots := 30 + rng.Intn(100)
		loadAt := rng.Intn(slots)
		ext := randomLoad(rng, net.NumLinks(), []int{4, 40}[rng.Intn(2)])
		for s := 0; s < slots; s++ {
			if s == loadAt {
				ctrl.SetExternalLoad(ext)
				fresh.SetExternalLoad(ext)
				ref.ExternalLoad = ext
			}
			ctrl.Step()
			fresh.Step()
			ref.Step()
			tag := fmt.Sprintf("case %d slot %d", it, s)
			assertSameState(t, tag, ctrl, ref)
			assertSameState(t, tag+" (fresh)", fresh, ref)
		}
		got := ctrl.Run(slots)
		want := fresh.Run(slots)
		for s := range want {
			for f := range want[s] {
				if got[s][f] != want[s][f] {
					t.Fatalf("case %d: slot %d flow %d: reset %v != fresh %v", it, s, f, got[s][f], want[s][f])
				}
			}
		}
		ref.Run(slots)
		assertSameState(t, fmt.Sprintf("case %d after Run", it), ctrl, ref)
	}
	if sameNet == 0 {
		t.Fatal("no Reset onto the same network")
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

// problem is one controller problem; twins builds two batch controllers on
// it, one to run RunAppend and one to run the stepping oracle.
type problem struct {
	net    *graph.Network
	routes []Route
	opts   Options
}

func (p problem) twins(t *testing.T) (got, want *Controller) {
	t.Helper()
	got, err := New(p.net, p.routes, p.opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err = New(p.net, p.routes, p.opts)
	if err != nil {
		t.Fatal(err)
	}
	return got, want
}

// figure4Problem draws a problem the way a Figure-4 evaluation does: one
// instance, random flows on its hybrid view, routes seeded at 70 % of their
// sequential rates, α = δ = 0.05.
func figure4Problem(enterprise bool, seed int64, flows int, multi bool, opts Options) (problem, bool) {
	rng := rand.New(rand.NewSource(seed))
	var inst *topology.Instance
	if enterprise {
		inst = topology.Enterprise(rng, topology.Config{})
	} else {
		inst = topology.Residential(rng, topology.Config{})
	}
	net := inst.BuildCached(topology.ViewHybrid).Network
	routes := randomRoutes(rng, inst, net, flows, multi, routing.Config{N: 5, UseCSC: true})
	if len(routes) == 0 {
		return problem{}, false
	}
	paths := make([]graph.Path, len(routes))
	for i, r := range routes {
		paths[i] = r.Links
	}
	opts.Alpha, opts.Delta = 0.05, 0.05
	opts.InitialRates = routing.AppendSequentialRates(net, paths, nil)
	for i := range opts.InitialRates {
		opts.InitialRates[i] *= 0.7
	}
	return problem{net, routes, opts}, true
}

// stateBits is the controller state Step depends on, as bit patterns.
func stateBits(c *Controller) string {
	nr := len(c.routes)
	var b []byte
	for _, vs := range [][]float64{c.x[:nr], c.xbar[:nr], c.gamma[:c.ncell]} {
		for _, v := range vs {
			b = fmt.Appendf(b, "%016x", math.Float64bits(v))
		}
	}
	return string(b)
}

// findRecurrence steps a fresh controller on p up to n slots and returns
// the first slot whose state comes back and after how many slots it does
// (0, 0 when no state repeats) — by remembering every state, not by the
// anchor scheme under test.
func findRecurrence(t *testing.T, p problem, n int) (first, period int) {
	t.Helper()
	c, _ := p.twins(t)
	seen := map[string]int{stateBits(c): 0}
	for s := 1; s <= n; s++ {
		c.Step()
		k := stateBits(c)
		if at, ok := seen[k]; ok {
			return at, s - at
		}
		seen[k] = s
	}
	return 0, 0
}

func sameBitsAll(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// assertReplayExact runs n slots on got through RunAppend and on want
// through the stepping loop, each appending to its dst, and fails unless the
// two trajectories and the two controllers' whole visible state — rates,
// x̄, every route price, every link's γ, the slot counter — are bit-equal.
func assertReplayExact(t *testing.T, tag string, got, want *Controller, n int, gotDst, wantDst []float64) (g, w []float64) {
	t.Helper()
	g = got.RunAppend(n, gotDst)
	w = referenceRunAppend(want, n, wantDst)
	if len(g) != len(w) {
		t.Fatalf("%s: n=%d: trajectory has %d values, stepping gives %d", tag, n, len(g), len(w))
	}
	nf := max(got.NumFlows(), 1)
	for i := range w {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			t.Fatalf("%s: n=%d: value %d (slot %d flow %d) = %v, stepping gives %v", tag, n, i, (i-len(wantDst))/nf, i%nf, g[i], w[i])
		}
	}
	nr := len(want.routes)
	if !sameBitsAll(got.Rates(), want.Rates()) {
		t.Fatalf("%s: n=%d: rates %v, stepping gives %v", tag, n, got.Rates(), want.Rates())
	}
	if !sameBitsAll(got.xbar[:nr], want.xbar[:nr]) {
		t.Fatalf("%s: n=%d: x̄ %v, stepping gives %v", tag, n, got.xbar[:nr], want.xbar[:nr])
	}
	for r := 0; r < nr; r++ {
		if a, b := got.Price(r), want.Price(r); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s: n=%d: q[%d] = %v, stepping gives %v", tag, n, r, a, b)
		}
	}
	for l := 0; l < want.net.NumLinks(); l++ {
		if a, b := got.Gamma(graph.LinkID(l)), want.Gamma(graph.LinkID(l)); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s: n=%d: gamma[%d] = %v, stepping gives %v", tag, n, l, a, b)
		}
	}
	if got.t != want.t {
		t.Fatalf("%s: n=%d: slot counter %d, stepping gives %d", tag, n, got.t, want.t)
	}
	if want.replayed != 0 {
		t.Fatalf("%s: the stepping oracle replayed %d slots", tag, want.replayed)
	}
	return g, w
}

// TestReplayMatchesSteppingFigure4 is the replay's equivalence property on
// the problems the §5 sweeps solve, over the paper's 4000-slot horizon: both
// topologies, the multipath and the single-path update, default and custom
// utilities. Each group must actually take the replay path somewhere.
func TestReplayMatchesSteppingFigure4(t *testing.T) {
	groups := []struct {
		name  string
		flows int
		multi bool
		opts  Options
	}{
		{"multipath", 1, true, Options{Mode: ModeMultipath}},
		{"multipath-3flows", 3, true, Options{}},
		{"multipath-alphafair", 1, true, Options{Mode: ModeMultipath, Utilities: map[int]Utility{0: AlphaFair{A: 0.5}}}},
		{"singlepath", 1, false, Options{}},
		{"singlepath-custom", 2, false, Options{Utilities: map[int]Utility{0: AlphaFair{A: 2}, 1: ProportionalFairness{Weight: 1.7}}}},
	}
	for _, enterprise := range []bool{false, true} {
		for _, g := range groups {
			replayed := 0
			for seed := int64(1); seed <= 24; seed++ {
				p, ok := figure4Problem(enterprise, seed, g.flows, g.multi, g.opts)
				if !ok {
					continue
				}
				tag := fmt.Sprintf("%s enterprise=%v seed %d", g.name, enterprise, seed)
				got, want := p.twins(t)
				a, b := assertReplayExact(t, tag, got, want, 4000, nil, nil)
				// A second call on both continues from the state the first
				// left, with a fresh anchor.
				assertReplayExact(t, tag+" (continued)", got, want, 150, a, b)
				replayed += got.replayed
			}
			if replayed == 0 {
				t.Errorf("%s enterprise=%v: no instance took the replay path", g.name, enterprise)
			}
		}
	}
}

// replayCase is a problem with its recurrence as findRecurrence measured it.
type replayCase struct {
	name          string
	p             problem
	first, period int // period 0: no state repeats within 4000 slots
}

// replayable reports whether RunAppend can see the recurrence: the period
// must fit between two anchors.
func (rc replayCase) replayable() bool { return rc.period >= 1 && rc.period <= anchorEvery }

// replayCases returns residential single-flow problems of every kind: an
// exact fixed point, short cycles under the single-path and under the
// proximal update, a cycle longer than the anchor interval, and a two-route
// problem that does not recur. The kinds are checked against findRecurrence,
// so a generator change cannot silently turn one into another.
func replayCases(t *testing.T) []replayCase {
	t.Helper()
	cases := []struct {
		name     string
		seed     int64
		multi    bool
		mode     Mode
		min, max int // admissible period
	}{
		{"fixed", 4, false, ModeAuto, 1, 1},
		{"cycle", 7, false, ModeAuto, 2, anchorEvery},
		{"cycle-proximal", 18, false, ModeMultipath, 2, anchorEvery},
		{"long-cycle", 5, false, ModeMultipath, anchorEvery + 1, 4000},
		{"never", 1, true, ModeAuto, 0, 0},
	}
	out := make([]replayCase, len(cases))
	for i, c := range cases {
		p, ok := figure4Problem(false, c.seed, 1, c.multi, Options{Mode: c.mode})
		if !ok {
			t.Fatalf("%s: residential seed %d has no route", c.name, c.seed)
		}
		first, period := findRecurrence(t, p, 4000)
		if period < c.min || period > c.max {
			t.Fatalf("%s: period %d, want %d..%d", c.name, period, c.min, c.max)
		}
		out[i] = replayCase{c.name, p, first, period}
	}
	return out
}

// TestReplayHorizons runs every kind of trajectory over horizons around the
// anchor interval and around the slot the recurrence is detected at, so the
// replay ends on a period boundary, one slot past it, and everywhere in
// between (a non-empty tail shorter than the period).
func TestReplayHorizons(t *testing.T) {
	for _, rc := range replayCases(t) {
		horizons := []int{-1, 0, 1, anchorEvery - 1, anchorEvery, anchorEvery + 1, 2 * anchorEvery, 4000}
		if rc.replayable() {
			// The first anchor on the cycle, one period later the match.
			detect := (rc.first+anchorEvery-1)/anchorEvery*anchorEvery + rc.period
			for n := detect - 1; n <= detect+2*rc.period+1; n++ {
				horizons = append(horizons, n)
			}
		}
		for _, n := range horizons {
			got, want := rc.p.twins(t)
			assertReplayExact(t, rc.name, got, want, n, nil, nil)
			switch {
			case !rc.replayable() && got.replayed != 0:
				t.Errorf("%s: n=%d: replayed %d slots, but the period is %d", rc.name, n, got.replayed, rc.period)
			case rc.replayable() && n == 4000 && got.replayed == 0:
				t.Errorf("%s: n=%d: period %d from slot %d was not replayed", rc.name, n, rc.period, rc.first)
			case rc.replayable() && got.replayed%rc.period != 0:
				t.Errorf("%s: n=%d: replayed %d slots, not a multiple of the period %d", rc.name, n, got.replayed, rc.period)
			}
		}
	}
}

// TestReplayAnchorDoesNotSurviveCall changes what Step depends on between
// back-to-back RunAppend calls — external load, step size, a route rate —
// after the trajectory has become periodic: the next call must start from
// the changed state, not from the previous call's anchor.
func TestReplayAnchorDoesNotSurviveCall(t *testing.T) {
	for _, rc := range replayCases(t) {
		if !rc.replayable() {
			continue
		}
		got, want := rc.p.twins(t)
		both := func(f func(c *Controller)) { f(got); f(want) }
		a, b := assertReplayExact(t, rc.name, got, want, 2000, nil, nil)
		if got.replayed == 0 {
			t.Fatalf("%s: first call did not replay", rc.name)
		}

		ext := make([]float64, rc.p.net.NumLinks())
		ext[rc.p.routes[0].Links[0]] = 3
		both(func(c *Controller) { c.SetExternalLoad(ext) })
		a, b = assertReplayExact(t, rc.name+" after SetExternalLoad", got, want, 1000, a, b)

		both(func(c *Controller) { c.SetAlpha(0.03) })
		a, b = assertReplayExact(t, rc.name+" after SetAlpha", got, want, 1000, a, b)

		both(func(c *Controller) { c.SetRate(0, c.Rates()[0]/2) })
		a, b = assertReplayExact(t, rc.name+" after SetRate", got, want, 1000, a, b)

		// Setting a rate to the value it has changes nothing: the call may
		// replay at once, and must still agree.
		both(func(c *Controller) { c.SetRate(0, c.Rates()[0]) })
		assertReplayExact(t, rc.name+" after no-op SetRate", got, want, 300, a, b)
	}
}

// TestReplayAppendsToFullBuffer: dst arrives with content and no spare
// capacity, so the slice is reallocated while the replay extends it; the
// content must survive and the appended part must match.
func TestReplayAppendsToFullBuffer(t *testing.T) {
	for _, rc := range replayCases(t) {
		if !rc.replayable() {
			continue
		}
		got, want := rc.p.twins(t)
		prefix := []float64{1.5, math.Copysign(0, -1), math.Inf(1)}
		g, _ := assertReplayExact(t, rc.name, got, want, 2000, slices.Clip(slices.Clone(prefix)), slices.Clone(prefix))
		if got.replayed == 0 {
			t.Fatalf("%s: did not replay", rc.name)
		}
		if !sameBitsAll(g[:len(prefix)], prefix) {
			t.Fatalf("%s: prefix became %v", rc.name, g[:len(prefix)])
		}
	}
}

// TestReplayComparesBitPatterns: a NaN rate is a fixed point of the update
// (NaN in, the same NaN out) that == would never recognize, and a −0 rate
// equals the +0 that one slot turns it into under == but is a different
// state. Both must match stepping; the NaN trajectory must be replayed.
func TestReplayComparesBitPatterns(t *testing.T) {
	rc := replayCases(t)[0]
	for _, v := range []float64{math.NaN(), math.Copysign(0, -1)} {
		for _, n := range []int{1, 2, 3, 500} {
			got, want := rc.p.twins(t)
			got.SetRate(0, v)
			want.SetRate(0, v)
			assertReplayExact(t, fmt.Sprintf("rate %v", v), got, want, n, nil, nil)
			if v != v && n == 500 && got.replayed == 0 {
				t.Errorf("a NaN fixed point was stepped for %d slots", n)
			}
		}
	}
}

// TestReplayStateIncludesProximalAverage: on an uncontended link with δ = 0
// the proximal update pins x at the rate cap with γ = 0 within a few slots,
// while x̄ keeps creeping towards x for hundreds more. The trajectory looks
// settled long before the state is: x̄ must be part of what is compared.
func TestReplayStateIncludesProximalAverage(t *testing.T) {
	net, path := singleLink(30)
	p := problem{net, []Route{{Links: path, Flow: 0}}, Options{Mode: ModeMultipath, Alpha: 0.05}}
	for _, n := range []int{100, 300, 4000} {
		got, want := p.twins(t)
		assertReplayExact(t, "capped link", got, want, n, nil, nil)
		if n == 4000 && got.replayed == 0 {
			t.Error("capped link: the fixed point x = x̄ = cap was never replayed")
		}
	}
}

// TestRunNonPositive: Run and RunAppend treat n ≤ 0 as "no slots".
func TestRunNonPositive(t *testing.T) {
	c, _ := replayCases(t)[0].p.twins(t)
	for _, n := range []int{0, -1, -4000} {
		if rows := c.Run(n); rows == nil || len(rows) != 0 {
			t.Errorf("Run(%d) = %v, want an empty trajectory", n, rows)
		}
		if flat := c.RunAppend(n, []float64{7}); !slices.Equal(flat, []float64{7}) {
			t.Errorf("RunAppend(%d) = %v, want dst unchanged", n, flat)
		}
	}
	if c.t != 0 {
		t.Errorf("slot counter %d after running no slots", c.t)
	}
}
