package congestion

// Property tests asserting the SoA batch controller is exact-== equivalent
// to the scalar reference (reference_test.go): same trajectories, bit for
// bit, across random topologies, flow sets, alpha and δ values, initial
// rates, CSC on/off routing and both update rules — and, slot by slot,
// every link's γ and every route's q across Resets of one pooled
// controller.
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
		if g, w := ctrl.gamma[ctrl.cellOf[graph.LinkID(l)]], ref.gamma[l]; g != w {
			t.Fatalf("%s: gamma[%d]: batch %v != reference %v", tag, l, g, w)
		}
	}
	for r := range ref.q {
		if g, w := ctrl.q[r], ref.q[r]; g != w {
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
	if rng.Intn(3) == 0 {
		opts.InitialRates = make([]float64, len(routes))
		for i := range opts.InitialRates {
			opts.InitialRates[i] = rng.Float64() * 30
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
// every route's q after each slot, with MaxAirtimeViolation, which shares
// Step's offered scratch, called in between. One pooled controller serves
// every case, so the row sums it keeps cross Resets, and duals must clip to
// 0 and rise again somewhere (counted, and required): a row whose sum is
// reused while its cells sit at 0 is then re-summed.
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
		phase := make([]int8, net.NumLinks()) // 0 never positive, 1 positive, 2 clipped since
		for s := 0; s < slots; s++ {
			if rng.Intn(8) == 0 {
				ctrl.MaxAirtimeViolation()
			}
			ctrl.Step()
			ref.Step()
			assertSameState(t, fmt.Sprintf("case %d (opts=%+v) slot %d", it, opts, s), ctrl, ref)
			for l := range phase {
				switch g := ctrl.gamma[ctrl.cellOf[graph.LinkID(l)]]; {
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
		t.Fatal("no dual clipped to 0 and rose again: the cases no longer cover a row whose sum is reused and then re-summed")
	}
}

// TestBatchSourcelessLinksMatchReference pins the links no source reaches:
// with routes on WiFi only, the PLC links sit in the γ ≡ 0 cell, and their
// duals must stay 0, as the reference's, while the WiFi duals move.
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
	stepBoth(t, "wifi only", ctrl, ref, 200)
	if g := ctrl.gamma[ctrl.cellOf[p0]] + ctrl.gamma[ctrl.cellOf[p1]]; g != 0 {
		t.Fatalf("PLC duals %v with no source in range, want 0", g)
	}
	if ctrl.gamma[ctrl.cellOf[w0]] <= 0 {
		t.Fatalf("WiFi dual %v on a saturated route, want > 0", ctrl.gamma[ctrl.cellOf[w0]])
	}
}

// TestBatchMatchesReferenceManyFlows covers problems with more than 64 used
// links (cells are a partition, not a bitmask over sources).
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
	ctrl, ref := newPair(t, net, routes, Options{Delta: 0.05})
	stepBoth(t, "40 flows", ctrl, ref, 150)
}

// TestResetSameNetworkNewRoutes: Reset onto a different route set on the
// same *graph.Network reuses the interference CSR but must leave nothing of
// the previous problem's cells or sources behind.
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
		stepBoth(t, fmt.Sprintf("case %d", it), ctrl, ref, 60)
	}
}

// TestResetMatchesFreshController: a controller Reset onto a new problem
// must behave exactly like a freshly allocated one — the pooled sweep path
// depends on this. One pooled controller is Reset onto other networks and
// onto new routes on the same network; at every slot its rates, every
// link's γ and every route's q equal a fresh controller's and the
// reference's, and so do the trajectories and end states of a following
// Run.
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
		for s := 0; s < slots; s++ {
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
// prices, zero-capacity bottlenecks) that the SoA rewrite restructured,
// under the single-path update (one route per flow) and the proximal one
// (flow 0 also gets the direct link).
func TestBatchDeadLinkMatchesReference(t *testing.T) {
	b := graph.NewBuilder(nil)
	n0 := b.AddNode("a", 0, 0, graph.TechWiFi)
	n1 := b.AddNode("b", 1, 0, graph.TechWiFi)
	n2 := b.AddNode("c", 2, 0, graph.TechWiFi)
	l0 := b.AddLink(n0, n1, graph.TechWiFi, 0) // dead link
	l1 := b.AddLink(n1, n2, graph.TechWiFi, 30)
	l2 := b.AddLink(n0, n2, graph.TechWiFi, 10)
	net := b.Build()
	single := []Route{{Links: graph.Path{l0, l1}, Flow: 0}, {Links: graph.Path{l1}, Flow: 1}}
	multi := append(slices.Clone(single), Route{Links: graph.Path{l2}, Flow: 0})
	for _, routes := range [][]Route{single, multi} {
		ctrl, ref := newPair(t, net, routes, Options{})
		if ctrl.single != (len(routes) == 2) {
			t.Fatalf("%d routes: single-path update %v", len(routes), ctrl.single)
		}
		got, want := ctrl.Run(120), ref.Run(120)
		for s := range want {
			for f := range want[s] {
				if got[s][f] != want[s][f] {
					t.Fatalf("%d routes: slot %d flow %d: %v != %v", len(routes), s, f, got[s][f], want[s][f])
				}
			}
		}
		if !math.IsInf(ctrl.q[0], 1) {
			t.Fatalf("%d routes: expected infinite price on dead route, got %v", len(routes), ctrl.q[0])
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
		if a, b := got.q[r], want.q[r]; math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s: n=%d: q[%d] = %v, stepping gives %v", tag, n, r, a, b)
		}
	}
	for l := 0; l < want.net.NumLinks(); l++ {
		if a, b := got.gamma[got.cellOf[graph.LinkID(l)]], want.gamma[want.cellOf[graph.LinkID(l)]]; math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s: n=%d: gamma[%d] = %v, stepping gives %v", tag, n, l, a, b)
		}
	}
	if want.replayed != 0 {
		t.Fatalf("%s: the stepping oracle replayed %d slots", tag, want.replayed)
	}
	return g, w
}

// TestReplayMatchesSteppingFigure4 is the replay's equivalence property on
// the problems the §5 sweeps solve, over the paper's 4000-slot horizon: both
// topologies, single-path and multipath routes, one flow and several. Each
// group must actually take the replay path somewhere.
func TestReplayMatchesSteppingFigure4(t *testing.T) {
	groups := []struct {
		name  string
		flows int
		multi bool
	}{
		{"multipath", 1, true},
		{"multipath-3flows", 3, true},
		{"singlepath", 1, false},
		{"singlepath-2flows", 2, false},
	}
	for _, enterprise := range []bool{false, true} {
		for _, g := range groups {
			replayed := 0
			for seed := int64(1); seed <= 24; seed++ {
				p, ok := figure4Problem(enterprise, seed, g.flows, g.multi, Options{})
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

// replayCases returns Figure-4 problems of every kind: an exact fixed point
// and a short cycle under the single-path update, a short cycle under the
// proximal update (three enterprise flows, one of them route-less), a
// two-route cycle longer than the anchor interval, and a two-route problem
// that does not recur. The kinds — period and update rule — are checked
// against findRecurrence and the controller, so a generator change cannot
// silently turn one into another.
func replayCases(t *testing.T) []replayCase {
	t.Helper()
	cases := []struct {
		name       string
		enterprise bool
		seed       int64
		flows      int
		multi      bool
		min, max   int // admissible period
	}{
		{"fixed", false, 4, 1, false, 1, 1},
		{"cycle", false, 7, 1, false, 2, anchorEvery},
		{"cycle-proximal", true, 82, 3, true, 2, anchorEvery},
		{"long-cycle", true, 71, 1, true, anchorEvery + 1, 4000},
		{"never", false, 1, 1, true, 0, 0},
	}
	out := make([]replayCase, len(cases))
	for i, c := range cases {
		p, ok := figure4Problem(c.enterprise, c.seed, c.flows, c.multi, Options{})
		if !ok {
			t.Fatalf("%s: seed %d has no route", c.name, c.seed)
		}
		if got, _ := p.twins(t); got.single == c.multi {
			t.Fatalf("%s: single-path update %v, want %v", c.name, got.single, !c.multi)
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
// back-to-back RunAppend calls — the step size, a route rate; no public call
// does, so the test writes the fields — after the trajectory has become
// periodic: the next call must start from the changed state, not from the
// previous call's anchor.
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

		both(func(c *Controller) { c.opts.Alpha = 0.03 })
		a, b = assertReplayExact(t, rc.name+" after a new step size", got, want, 1000, a, b)

		both(func(c *Controller) { c.x[0] /= 2 })
		a, b = assertReplayExact(t, rc.name+" after a new rate", got, want, 1000, a, b)

		// Setting a rate to the value it has changes nothing: the call may
		// replay at once, and must still agree.
		both(func(c *Controller) { c.x[0] = c.Rates()[0] })
		assertReplayExact(t, rc.name+" after a no-op rate", got, want, 300, a, b)
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
// state. No public call sets a rate, so the test writes x in-package. Both
// must match stepping; the NaN trajectory must be replayed.
func TestReplayComparesBitPatterns(t *testing.T) {
	rc := replayCases(t)[0]
	for _, v := range []float64{math.NaN(), math.Copysign(0, -1)} {
		for _, n := range []int{1, 2, 3, 500} {
			got, want := rc.p.twins(t)
			got.x[0], want.x[0] = v, v
			assertReplayExact(t, fmt.Sprintf("rate %v", v), got, want, n, nil, nil)
			if v != v && n == 500 && got.replayed == 0 {
				t.Errorf("a NaN fixed point was stepped for %d slots", n)
			}
		}
	}
}

// TestReplayStateIncludesProximalAverage: on two uncontended links — a
// WiFi and a PLC link between the same pair, which do not interfere — with
// δ = 0 the proximal update pins each route's x at its cap with γ = 0
// within a few slots, while x̄ keeps creeping towards x for hundreds more.
// The trajectory looks settled long before the state is: x̄ must be part of
// what is compared.
func TestReplayStateIncludesProximalAverage(t *testing.T) {
	b := graph.NewBuilder(nil)
	u := b.AddNode("u", 0, 0, graph.TechWiFi, graph.TechPLC)
	v := b.AddNode("v", 1, 0, graph.TechWiFi, graph.TechPLC)
	wifi := b.AddLink(u, v, graph.TechWiFi, 4)
	plc := b.AddLink(u, v, graph.TechPLC, 3)
	routes := []Route{{Links: graph.Path{wifi}, Flow: 0}, {Links: graph.Path{plc}, Flow: 0}}
	p := problem{b.Build(), routes, Options{Alpha: 0.05}}
	for _, n := range []int{100, 300, 4000} {
		got, want := p.twins(t)
		assertReplayExact(t, "capped links", got, want, n, nil, nil)
		if n == 4000 && got.replayed == 0 {
			t.Error("capped links: the fixed point x = x̄ = cap was never replayed")
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
}
