package congestion

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// figure1 builds the paper's Figure 1 network (see routing tests).
func figure1() (*graph.Network, graph.Path, graph.Path) {
	b := graph.NewBuilder(nil)
	a := b.AddNode("a", 0, 0, graph.TechPLC, graph.TechWiFi)
	bb := b.AddNode("b", 10, 0, graph.TechPLC, graph.TechWiFi)
	c := b.AddNode("c", 20, 0, graph.TechWiFi)
	plcAB, _ := b.AddDuplex(a, bb, graph.TechPLC, 10)
	wifiAB, _ := b.AddDuplex(a, bb, graph.TechWiFi, 15)
	wifiBC, _ := b.AddDuplex(bb, c, graph.TechWiFi, 30)
	net := b.Build()
	route1 := graph.Path{plcAB, wifiBC}  // hybrid
	route2 := graph.Path{wifiAB, wifiBC} // two-hop WiFi
	return net, route1, route2
}

// singleLink builds a network with one link of the given capacity and
// returns the network and the link's path.
func singleLink(capacity float64) (*graph.Network, graph.Path) {
	b := graph.NewBuilder(nil)
	u := b.AddNode("u", 0, 0, graph.TechWiFi)
	v := b.AddNode("v", 1, 0, graph.TechWiFi)
	l := b.AddLink(u, v, graph.TechWiFi, capacity)
	return b.Build(), graph.Path{l}
}

func TestProportionalFairness(t *testing.T) {
	u := ProportionalFairness{}
	if u.Value(0) != 0 {
		t.Error("U(0) != 0")
	}
	if math.Abs(u.Prime(0)-1) > 1e-12 {
		t.Error("U'(0) != 1")
	}
	// PrimeInv inverts Prime.
	for _, x := range []float64{0, 0.5, 3, 100} {
		if got := u.PrimeInv(u.Prime(x)); math.Abs(got-x) > 1e-9 {
			t.Errorf("PrimeInv(Prime(%v)) = %v", x, got)
		}
	}
	// Prices above U'(0) give zero rate.
	if u.PrimeInv(2) != 0 {
		t.Error("PrimeInv above U'(0) should be 0")
	}
	if !math.IsInf(u.PrimeInv(0), 1) {
		t.Error("PrimeInv(0) should be +Inf")
	}
	// Weighted variant scales.
	w := ProportionalFairness{Weight: 2}
	if math.Abs(w.Prime(1)-1) > 1e-12 {
		t.Error("weighted Prime wrong")
	}
}

func TestProportionalFairnessConcavity(t *testing.T) {
	u := ProportionalFairness{}
	f := func(a, b float64) bool {
		x := math.Abs(math.Mod(a, 100))
		y := math.Abs(math.Mod(b, 100))
		if x > y {
			x, y = y, x
		}
		if x == y {
			return true
		}
		// Increasing and marginal utility decreasing.
		return u.Value(y) >= u.Value(x) && u.Prime(y) <= u.Prime(x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAlphaFair(t *testing.T) {
	u := AlphaFair{A: 2}
	for _, x := range []float64{0.1, 1, 5} {
		if got := u.PrimeInv(u.Prime(x)); math.Abs(got-x) > 1e-6 {
			t.Errorf("AlphaFair PrimeInv(Prime(%v)) = %v", x, got)
		}
	}
	log := AlphaFair{A: 1}
	if math.Abs(log.Value(math.E-log.eps())-1) > 1e-9 {
		t.Error("A=1 should be log utility")
	}
}

func TestNewValidation(t *testing.T) {
	net, r1, _ := figure1()
	if _, err := New(net, []Route{{Links: nil, Flow: 0}}, Options{}); err == nil {
		t.Error("empty route accepted")
	}
	if _, err := New(net, []Route{{Links: r1, Flow: -1}}, Options{}); err == nil {
		t.Error("negative flow accepted")
	}
	if _, err := New(net, []Route{{Links: r1, Flow: 0}}, Options{Alpha: 2}); err == nil {
		t.Error("alpha > 1 accepted")
	}
	if _, err := New(net, []Route{{Links: r1, Flow: 0}}, Options{Delta: 1}); err == nil {
		t.Error("delta = 1 accepted")
	}
}

func TestSingleFlowSingleLinkConvergesToCapacity(t *testing.T) {
	net, p := singleLink(10)
	c, err := New(net, []Route{{Links: p, Flow: 0}}, Options{Alpha: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(2000)
	if got := c.FlowRate(0); math.Abs(got-10) > 0.5 {
		t.Errorf("flow rate = %v, want ~10", got)
	}
	if v := c.MaxAirtimeViolation(); v > 0.05 {
		t.Errorf("airtime violation %v", v)
	}
}

func TestTwoFlowsShareLinkFairly(t *testing.T) {
	net, p := singleLink(10)
	c, err := New(net, []Route{
		{Links: p, Flow: 0},
		{Links: p, Flow: 1},
	}, Options{Alpha: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(4000)
	x0, x1 := c.FlowRate(0), c.FlowRate(1)
	// Proportional fairness with identical utilities: equal split at 5.
	if math.Abs(x0-5) > 0.5 || math.Abs(x1-5) > 0.5 {
		t.Errorf("rates = %v, %v, want ~5 each", x0, x1)
	}
	if v := c.MaxAirtimeViolation(); v > 0.05 {
		t.Errorf("airtime violation %v", v)
	}
}

func TestDeltaMarginReducesRate(t *testing.T) {
	net, p := singleLink(10)
	c, _ := New(net, []Route{{Links: p, Flow: 0}}, Options{Alpha: 0.05, Delta: 0.3})
	c.Run(3000)
	if got := c.FlowRate(0); math.Abs(got-7) > 0.5 {
		t.Errorf("flow rate with δ=0.3 = %v, want ~7", got)
	}
}

func TestMultipathFigure1ConvergesToOptimal(t *testing.T) {
	net, r1, r2 := figure1()
	c, err := New(net, []Route{
		{Links: r1, Flow: 0},
		{Links: r2, Flow: 0},
	}, Options{Alpha: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(6000)
	total := c.FlowRate(0)
	// Paper: optimal split is 10 Mbps on Route 1 and 6.67 on Route 2.
	if math.Abs(total-50.0/3) > 1.0 {
		t.Errorf("total rate = %v, want ~16.67", total)
	}
	if v := c.MaxAirtimeViolation(); v > 0.05 {
		t.Errorf("airtime violation %v at rates %v", v, c.Rates())
	}
	// Route 1 should carry more than Route 2.
	if c.Rates()[0] < c.Rates()[1] {
		t.Errorf("route rates %v: hybrid route should dominate", c.Rates())
	}
}

func TestMultipathAvoidsCongestedMedium(t *testing.T) {
	// Two flows: flow 0 has a PLC route and a WiFi route; flow 1 has only
	// WiFi. At the optimum flow 0 should lean on PLC, leaving WiFi
	// airtime to flow 1 (the Figure 9 offloading behaviour).
	b := graph.NewBuilder(nil)
	s := b.AddNode("s", 0, 0, graph.TechPLC, graph.TechWiFi)
	d := b.AddNode("d", 1, 0, graph.TechPLC, graph.TechWiFi)
	s2 := b.AddNode("s2", 2, 0, graph.TechWiFi)
	d2 := b.AddNode("d2", 3, 0, graph.TechWiFi)
	plc := b.AddLink(s, d, graph.TechPLC, 50)
	wifi := b.AddLink(s, d, graph.TechWiFi, 50)
	wifi2 := b.AddLink(s2, d2, graph.TechWiFi, 50)
	net := b.Build()
	c, err := New(net, []Route{
		{Links: graph.Path{plc}, Flow: 0},
		{Links: graph.Path{wifi}, Flow: 0},
		{Links: graph.Path{wifi2}, Flow: 1},
	}, Options{Alpha: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(8000)
	// Flow 0 should saturate PLC (~50); WiFi is shared between flow 0's
	// second route and flow 1. Proportional fairness splits WiFi airtime
	// to equalize marginal utilities: flow 1 (only WiFi) gets more WiFi
	// than flow 0's WiFi route.
	if c.Rates()[0] < 40 {
		t.Errorf("PLC route rate = %v, want ~50", c.Rates()[0])
	}
	if c.Rates()[2] < c.Rates()[1] {
		t.Errorf("flow 1 WiFi rate %v should exceed flow 0's WiFi rate %v", c.Rates()[2], c.Rates()[1])
	}
	if v := c.MaxAirtimeViolation(); v > 0.05 {
		t.Errorf("airtime violation %v", v)
	}
}

func TestDeadLinkRouteGetsZeroRate(t *testing.T) {
	net, p := singleLink(10)
	net.Link(p[0]).Capacity = 0
	c, _ := New(net, []Route{{Links: p, Flow: 0}}, Options{Alpha: 0.05})
	c.Run(100)
	if got := c.FlowRate(0); got != 0 {
		t.Errorf("rate over dead link = %v, want 0", got)
	}
}

func TestAirtimeConstraintProperty(t *testing.T) {
	// After convergence the airtime constraint must hold (within wiggle)
	// for random capacities.
	f := func(rawCap uint16) bool {
		capacity := 5 + float64(rawCap%200)
		net, p := singleLink(capacity)
		c, _ := New(net, []Route{{Links: p, Flow: 0}}, Options{Alpha: 0.05})
		c.Run(1500)
		return c.MaxAirtimeViolation() < 0.1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestFlowRatesAndUtility(t *testing.T) {
	net, p := singleLink(10)
	c, _ := New(net, []Route{{Links: p, Flow: 0}}, Options{})
	c.x[0] = 4
	if got := c.FlowRates(); len(got) != 1 || got[0] != 4 {
		t.Errorf("FlowRates = %v", got)
	}
	if got := c.Utility(); math.Abs(got-math.Log(5)) > 1e-12 {
		t.Errorf("Utility = %v, want log(5)", got)
	}
	if c.NumRoutes() != 1 || c.NumFlows() != 1 {
		t.Error("counts wrong")
	}
}

func TestSlotsToSteady(t *testing.T) {
	// Converges at index 3.
	s := []float64{0, 5, 9, 10, 10, 10}
	if got := SlotsToSteady(s, 0.01); got != 3 {
		t.Errorf("SlotsToSteady = %d, want 3", got)
	}
	// Never settles within 1%: a late excursion.
	s2 := []float64{10, 10, 20, 10}
	if got := SlotsToSteady(s2, 0.01); got != 3 {
		t.Errorf("SlotsToSteady = %d, want 3", got)
	}
	if SlotsToSteady(nil, 0.01) != 0 {
		t.Error("empty series should settle at 0")
	}
	// Constant series settles immediately.
	if got := SlotsToSteady([]float64{5, 5, 5}, 0.01); got != 0 {
		t.Errorf("constant series: %d, want 0", got)
	}
}

// slotsToSteadyByDefinition is the definition SlotsToSteady implements,
// spelled out: the first t whose whole tail stays inside the band.
func slotsToSteadyByDefinition(series []float64, tol float64) int {
	if len(series) == 0 {
		return 0
	}
	final := series[len(series)-1]
	band := tol * math.Abs(final)
	if band == 0 {
		band = tol
	}
	for t := 0; t < len(series); t++ {
		ok := true
		for u := t; u < len(series); u++ {
			if math.Abs(series[u]-final) > band {
				ok = false
				break
			}
		}
		if ok {
			return t
		}
	}
	return len(series)
}

// TestSlotsToSteadyMatchesDefinition pins the backward scan to the
// tail-rescanning definition on random, empty, constant, never-settling
// and NaN-containing series.
func TestSlotsToSteadyMatchesDefinition(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	fixed := [][]float64{
		nil,
		{},
		{7},
		{5, 5, 5, 5},
		{0, 0, 0},
		{1, 2, 3, 4, 5, 100, 5},    // leaves the band at the last moment
		{10, nan, 10, 20, nan, 10}, // NaN inside the band by the predicate
		{1, 2, nan},                // NaN final value
		{1, inf, 3, inf},
		{-4, -4.01, -4},
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 300; i++ {
		s := make([]float64, rng.Intn(60))
		level := rng.Float64() * 50
		for j := range s {
			s[j] = level
			if rng.Intn(3) == 0 {
				s[j] += rng.NormFloat64() * level * 0.05
			}
			if rng.Intn(40) == 0 {
				s[j] = nan
			}
		}
		fixed = append(fixed, s)
	}
	for _, s := range fixed {
		// A negative tolerance puts even the final value outside the band:
		// the series never settles.
		for _, tol := range []float64{0.01, 0.05, 0, -0.01} {
			if got, want := SlotsToSteady(s, tol), slotsToSteadyByDefinition(s, tol); got != want {
				t.Fatalf("SlotsToSteady(%v, %v) = %d, definition gives %d", s, tol, got, want)
			}
		}
	}
}

func TestAlphaTunerScaling(t *testing.T) {
	// One-hop route: 4x.
	if a := NewAlphaTuner(0.02, 1, 1).Alpha(); math.Abs(a-0.08) > 1e-12 {
		t.Errorf("one-hop alpha = %v, want 0.08", a)
	}
	// Two-hop: 2x.
	if a := NewAlphaTuner(0.02, 2, 2).Alpha(); math.Abs(a-0.04) > 1e-12 {
		t.Errorf("two-hop alpha = %v, want 0.04", a)
	}
	// Single path, long route: 2x.
	if a := NewAlphaTuner(0.02, 1, 4).Alpha(); math.Abs(a-0.04) > 1e-12 {
		t.Errorf("single-path alpha = %v, want 0.04", a)
	}
	// Multipath, long route: base.
	if a := NewAlphaTuner(0.02, 2, 4).Alpha(); math.Abs(a-0.02) > 1e-12 {
		t.Errorf("multipath long alpha = %v, want 0.02", a)
	}
}

func TestAlphaTunerHalvesOnOscillation(t *testing.T) {
	tun := NewAlphaTuner(0.02, 2, 4)
	before := tun.Alpha()
	// Feed a growing oscillation: amplitudes never decrease.
	changed := false
	for i := 0; i < 40; i++ {
		v := 10.0
		amp := 1 + float64(i)*0.1
		if i%2 == 0 {
			v += amp
		} else {
			v -= amp
		}
		if tun.Observe(v) {
			changed = true
		}
	}
	if !changed || tun.Alpha() >= before {
		t.Errorf("alpha should halve under sustained oscillation: %v -> %v", before, tun.Alpha())
	}
}

func TestAlphaTunerStableUnderConvergence(t *testing.T) {
	tun := NewAlphaTuner(0.02, 2, 4)
	before := tun.Alpha()
	// A converging (damped) trajectory must not trigger halving.
	for i := 0; i < 60; i++ {
		v := 10 + math.Pow(0.8, float64(i))*math.Cos(float64(i))
		tun.Observe(v)
	}
	if tun.Alpha() != before {
		t.Errorf("alpha changed on damped trajectory: %v -> %v", before, tun.Alpha())
	}
}

func TestConvergenceFastWithTunedAlpha(t *testing.T) {
	// The paper reports ~90 slots to steady state in simulations. Check
	// that a simple scenario converges within a few hundred slots at the
	// tuned alpha for 2-hop routes (0.04).
	net, r1, r2 := figure1()
	c, _ := New(net, []Route{
		{Links: r1, Flow: 0},
		{Links: r2, Flow: 0},
	}, Options{Alpha: 0.04})
	traj := c.Run(4000)
	series := make([]float64, len(traj))
	for i, row := range traj {
		series[i] = row[0]
	}
	steady := SlotsToSteady(series, 0.01)
	if steady > 3000 {
		t.Errorf("convergence took %d slots", steady)
	}
	t.Logf("slots to steady state: %d (final rate %.2f)", steady, series[len(series)-1])
}
