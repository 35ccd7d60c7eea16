package optimal

import (
	"math"
	"testing"

	"repro/internal/congestion"
	"repro/internal/graph"
)

// figure1 builds the paper's Figure 1 network.
func figure1() (*graph.Network, graph.NodeID, graph.NodeID) {
	b := graph.NewBuilder(nil)
	a := b.AddNode("a", 0, 0, graph.TechPLC, graph.TechWiFi)
	bb := b.AddNode("b", 10, 0, graph.TechPLC, graph.TechWiFi)
	c := b.AddNode("c", 20, 0, graph.TechWiFi)
	b.AddDuplex(a, bb, graph.TechPLC, 10)
	b.AddDuplex(a, bb, graph.TechWiFi, 15)
	b.AddDuplex(bb, c, graph.TechWiFi, 30)
	return b.Build(), a, c
}

// chain builds a 4-node WiFi chain with partial (adjacent-only)
// interference, where the conservative constraint is strictly tighter than
// the true capacity region.
func chain() (*graph.Network, graph.NodeID, graph.NodeID) {
	m := graph.RangeBased{SenseRadius: map[graph.Tech]float64{graph.TechWiFi: 5}}
	b := graph.NewBuilder(m)
	u := b.AddNode("u", 0, 0, graph.TechWiFi)
	v := b.AddNode("v", 10, 0, graph.TechWiFi)
	w := b.AddNode("w", 20, 0, graph.TechWiFi)
	z := b.AddNode("z", 30, 0, graph.TechWiFi)
	b.AddLink(u, v, graph.TechWiFi, 10)
	b.AddLink(v, w, graph.TechWiFi, 10)
	b.AddLink(w, z, graph.TechWiFi, 10)
	return b.Build(), u, z
}

func TestEnumeratePathsFigure1(t *testing.T) {
	net, a, c := figure1()
	paths := EnumeratePaths(net, a, c, EnumerateOptions{})
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2", len(paths))
	}
	for _, p := range paths {
		if err := net.ValidatePath(p, a, c); err != nil {
			t.Errorf("invalid path: %v", err)
		}
	}
}

func TestEnumeratePathsLimits(t *testing.T) {
	net, a, c := figure1()
	if got := EnumeratePaths(net, a, c, EnumerateOptions{MaxHops: 1}); len(got) != 0 {
		t.Errorf("1-hop limit should yield no paths, got %d", len(got))
	}
	if got := EnumeratePaths(net, a, c, EnumerateOptions{MaxPaths: 1}); len(got) != 1 {
		t.Errorf("MaxPaths=1 should yield 1 path, got %d", len(got))
	}
}

func TestEnumeratePathsSkipsDeadLinks(t *testing.T) {
	net, a, c := figure1()
	// Kill the PLC direction a->b: only the WiFi-WiFi path remains.
	for i := 0; i < net.NumLinks(); i++ {
		l := net.Link(graph.LinkID(i))
		if l.Tech == graph.TechPLC && l.From == a {
			l.Capacity = 0
		}
	}
	paths := EnumeratePaths(net, a, c, EnumerateOptions{})
	if len(paths) != 1 {
		t.Fatalf("got %d paths, want 1", len(paths))
	}
}

func TestConflictGraphCliques(t *testing.T) {
	net, _, _ := figure1()
	cg := NewConflictGraph(net)
	cliques := cg.MaximalCliques()
	// Single-domain-per-tech: one clique of the 4 WiFi links, one of the
	// 2 PLC links.
	if len(cliques) != 2 {
		t.Fatalf("got %d cliques, want 2: %v", len(cliques), cliques)
	}
	sizes := []int{len(cliques[0]), len(cliques[1])}
	if !(sizes[0] == 2 && sizes[1] == 4 || sizes[0] == 4 && sizes[1] == 2) {
		t.Errorf("clique sizes %v, want {2,4}", sizes)
	}
}

func TestConflictGraphChainCliques(t *testing.T) {
	net, _, _ := chain()
	cg := NewConflictGraph(net)
	cliques := cg.MaximalCliques()
	// Path conflict graph 1-2-3: cliques {1,2} and {2,3}.
	if len(cliques) != 2 {
		t.Fatalf("got %d cliques, want 2: %v", len(cliques), cliques)
	}
	for _, c := range cliques {
		if len(c) != 2 {
			t.Errorf("clique %v, want size 2", c)
		}
	}
}

func TestMaxWeightIndependentSetExact(t *testing.T) {
	net, _, _ := chain()
	cg := NewConflictGraph(net)
	// Weights: ends 5 each, middle 8. MWIS = {0, 2} with weight 10 > 8.
	w := []float64{5, 8, 5}
	got := cg.MaxWeightIndependentSet(w, 24)
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("MWIS = %v, want [0 2]", got)
	}
	// With a dominant middle weight the middle alone wins.
	w = []float64{5, 20, 5}
	got = cg.MaxWeightIndependentSet(w, 24)
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("MWIS = %v, want [1]", got)
	}
	// Greedy fallback picks the heaviest first (here it happens to agree).
	got = cg.MaxWeightIndependentSet(w, 1)
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("greedy MWIS = %v, want [1]", got)
	}
	if got := cg.MaxWeightIndependentSet([]float64{0, 0, 0}, 24); got != nil {
		t.Errorf("MWIS with zero weights = %v, want nil", got)
	}
}

func TestSolveSingleLink(t *testing.T) {
	p := Problem{
		NumRoutes: 1,
		Flows:     [][]int{{0}},
		Constraints: []Constraint{
			{Coef: map[int]float64{0: 0.1}, Bound: 1}, // x/10 <= 1
		},
		RateCap: []float64{10},
	}
	sol, err := Solve(p, SolveOptions{Iters: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.FlowRates[0]-10) > 0.3 {
		t.Errorf("optimal rate = %v, want 10", sol.FlowRates[0])
	}
	if sol.MaxViolation > 1e-9 {
		t.Errorf("violation %v after projection", sol.MaxViolation)
	}
}

func TestSolveValidation(t *testing.T) {
	if _, err := Solve(Problem{}, SolveOptions{}); err == nil {
		t.Error("empty problem accepted")
	}
	p := Problem{NumRoutes: 2, Flows: [][]int{{0}}}
	if _, err := Solve(p, SolveOptions{Iters: 1}); err == nil {
		t.Error("orphan route accepted")
	}
	p2 := Problem{NumRoutes: 1, Flows: [][]int{{5}}}
	if _, err := Solve(p2, SolveOptions{Iters: 1}); err == nil {
		t.Error("out-of-range route accepted")
	}
	// A route in two flows used to take the last flow's total and both
	// flows' warm start and gain.
	p3 := Problem{NumRoutes: 2, Flows: [][]int{{0, 1}, {1}}}
	if _, err := Solve(p3, SolveOptions{Iters: 1}); err == nil || err.Error() != "optimal: route 1 belongs to flows 0 and 1" {
		t.Errorf("route shared by two flows: error %v", err)
	}
	// Listed twice in one flow it is still one route of that flow.
	p4 := Problem{NumRoutes: 2, Flows: [][]int{{0, 1, 1}}}
	if _, err := Solve(p4, SolveOptions{Iters: 1}); err != nil {
		t.Errorf("route listed twice in its flow: %v", err)
	}
}

func TestOptimalFigure1(t *testing.T) {
	net, a, c := figure1()
	res, err := Optimal(net, []FlowSpec{{Src: a, Dst: c}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 10 on the hybrid route + 6.67 on the WiFi route = 16.67.
	if math.Abs(res.FlowRates[0]-50.0/3) > 0.5 {
		t.Errorf("optimal rate = %v, want 16.67", res.FlowRates[0])
	}
}

func TestConservativeEqualsOptimalInSingleDomain(t *testing.T) {
	// With per-technology collision domains, the conservative constraint
	// coincides with the clique constraint, so the two baselines agree.
	net, a, c := figure1()
	opt, err := Optimal(net, []FlowSpec{{Src: a, Dst: c}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cons, err := ConservativeOpt(net, []FlowSpec{{Src: a, Dst: c}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(opt.FlowRates[0]-cons.FlowRates[0]) > 0.5 {
		t.Errorf("optimal %v vs conservative %v should match", opt.FlowRates[0], cons.FlowRates[0])
	}
}

func TestConservativeStrictlyBelowOptimalOnChain(t *testing.T) {
	// On the 3-hop chain with adjacent-only interference, spatial reuse
	// lets links 1 and 3 transmit together: optimal = 5 Mbps, while the
	// conservative constraint charges the whole domain: 10/3 Mbps.
	net, u, z := chain()
	opt, err := Optimal(net, []FlowSpec{{Src: u, Dst: z}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cons, err := ConservativeOpt(net, []FlowSpec{{Src: u, Dst: z}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(opt.FlowRates[0]-5) > 0.3 {
		t.Errorf("optimal = %v, want 5", opt.FlowRates[0])
	}
	if math.Abs(cons.FlowRates[0]-10.0/3) > 0.3 {
		t.Errorf("conservative = %v, want 3.33", cons.FlowRates[0])
	}
	if cons.FlowRates[0] >= opt.FlowRates[0] {
		t.Error("conservative opt must be below optimal here")
	}
}

func TestOptimalNoConnectivity(t *testing.T) {
	b := graph.NewBuilder(nil)
	u := b.AddNode("u", 0, 0, graph.TechWiFi)
	v := b.AddNode("v", 1, 0, graph.TechWiFi)
	net := b.Build()
	res, err := Optimal(net, []FlowSpec{{Src: u, Dst: v}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.FlowRates[0] != 0 {
		t.Errorf("rate without connectivity = %v", res.FlowRates[0])
	}
}

func TestOptimalTwoFlowsFairness(t *testing.T) {
	// Two flows over one 10 Mbps link: proportional fairness gives 5/5.
	b := graph.NewBuilder(nil)
	u := b.AddNode("u", 0, 0, graph.TechWiFi)
	v := b.AddNode("v", 1, 0, graph.TechWiFi)
	b.AddLink(u, v, graph.TechWiFi, 10)
	net := b.Build()
	res, err := Optimal(net, []FlowSpec{{Src: u, Dst: v}, {Src: u, Dst: v}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.FlowRates[0]-5) > 0.3 || math.Abs(res.FlowRates[1]-5) > 0.3 {
		t.Errorf("rates = %v, want ~[5 5]", res.FlowRates)
	}
}

func TestOptimalWithDelta(t *testing.T) {
	b := graph.NewBuilder(nil)
	u := b.AddNode("u", 0, 0, graph.TechWiFi)
	v := b.AddNode("v", 1, 0, graph.TechWiFi)
	b.AddLink(u, v, graph.TechWiFi, 10)
	net := b.Build()
	res, err := ConservativeOpt(net, []FlowSpec{{Src: u, Dst: v}}, Config{Delta: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.FlowRates[0]-7) > 0.3 {
		t.Errorf("rate with δ=0.3 = %v, want 7", res.FlowRates[0])
	}
}

func TestBackpressureSingleLink(t *testing.T) {
	b := graph.NewBuilder(nil)
	u := b.AddNode("u", 0, 0, graph.TechWiFi)
	v := b.AddNode("v", 1, 0, graph.TechWiFi)
	b.AddLink(u, v, graph.TechWiFi, 10)
	net := b.Build()
	bp := NewBackpressure(net, []FlowSpec{{Src: u, Dst: v}})
	series := bp.Run(8000, 0, 200)
	if got := series[len(series)-1]; got < 8 || got > 10.5 {
		t.Errorf("backpressure trailing rate %v, want ~10", got)
	}
}

func TestBackpressureReachesNearOptimalButSlowly(t *testing.T) {
	net, a, c := figure1()
	bp := NewBackpressure(net, []FlowSpec{{Src: a, Dst: c}})
	series := bp.Run(12000, 0, 200)
	final := series[len(series)-1]
	// Should approach the 16.67 optimum (within 25%: V-dependent gap).
	if final < 0.75*50.0/3 {
		t.Errorf("backpressure final rate %v too far from optimum 16.67", final)
	}
	// And it must be slow: far from optimal after 50 slots.
	early := SlotsToFractionOfOptimal(series, 50.0/3, 0.9)
	if early < 100 {
		t.Errorf("backpressure converged suspiciously fast: %d slots", early)
	}
	t.Logf("backpressure: 90%% of optimal after %d slots (final %.2f, queue %.1f Mb)",
		early, final, totalQueue(bp))
}

func TestBackpressureQueuesGrow(t *testing.T) {
	net, a, c := figure1()
	bp := NewBackpressure(net, []FlowSpec{{Src: a, Dst: c}})
	bp.Run(500, 0, 0)
	if totalQueue(bp) < 1 {
		t.Errorf("backpressure queues should build up, got %v Mb", totalQueue(bp))
	}
}

func TestSlotsToFractionOfOptimal(t *testing.T) {
	s := []float64{1, 5, 9, 10}
	if got := SlotsToFractionOfOptimal(s, 10, 0.9); got != 2 {
		t.Errorf("got %d, want 2", got)
	}
	if got := SlotsToFractionOfOptimal(s, 100, 0.9); got != 4 {
		t.Errorf("got %d, want len", got)
	}
}

func TestSolveWithAlphaFairUtility(t *testing.T) {
	// Flow 0 has a 2x weighted PF utility; it should receive more than
	// flow 1 on a shared link.
	p := Problem{
		NumRoutes: 2,
		Flows:     [][]int{{0}, {1}},
		Utilities: []congestion.Utility{
			weightedLog(2),
			congestion.ProportionalFairness{},
		},
		Constraints: []Constraint{
			{Coef: map[int]float64{0: 0.1, 1: 0.1}, Bound: 1},
		},
		RateCap: []float64{10, 10},
	}
	sol, err := Solve(p, SolveOptions{Iters: 6000})
	if err != nil {
		t.Fatal(err)
	}
	if sol.FlowRates[0] <= sol.FlowRates[1] {
		t.Errorf("weighted flow should win: %v", sol.FlowRates)
	}
	if v := sol.FlowRates[0] + sol.FlowRates[1]; math.Abs(v-10) > 0.5 {
		t.Errorf("total %v, want 10", v)
	}
}

// totalQueue is the aggregate backlog in the network (Mb), a measure of
// the large queues backpressure needs before converging.
func totalQueue(b *Backpressure) float64 {
	var s float64
	for _, row := range b.queues {
		for _, q := range row {
			s += q
		}
	}
	return s
}
