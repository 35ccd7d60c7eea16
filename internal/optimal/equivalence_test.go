package optimal

// Tests asserting that the CSR kernel behind Solve is bit-for-bit the
// per-iteration loop it replaced (reference_test.go): X, FlowRates, Utility
// and MaxViolation compared through math.Float64bits on Figure-6/7
// problems, random problems, and cases built to freeze routes and to wake
// a frozen route up again (park_test.go holds the cases built around parked
// routes). The same for Baselines against the two single-baseline entries.
// Every product that feeds an add is rounded explicitly on both sides, so
// the equality holds on architectures with fused multiply-add too.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/congestion"
	"repro/internal/graph"
	"repro/internal/topology"
)

// assertSameSolution fails unless got and want agree on every bit of every
// exported field.
func assertSameSolution(t *testing.T, got, want Solution) {
	t.Helper()
	if len(got.X) != len(want.X) || len(got.FlowRates) != len(want.FlowRates) {
		t.Fatalf("shape differs: %d routes / %d flows, want %d / %d", len(got.X), len(got.FlowRates), len(want.X), len(want.FlowRates))
	}
	for r := range want.X {
		if !sameBits(got.X[r], want.X[r]) {
			t.Fatalf("X[%d] = %v (%#x), want %v (%#x)", r, got.X[r], math.Float64bits(got.X[r]), want.X[r], math.Float64bits(want.X[r]))
		}
	}
	for f := range want.FlowRates {
		if !sameBits(got.FlowRates[f], want.FlowRates[f]) {
			t.Fatalf("FlowRates[%d] = %v, want %v", f, got.FlowRates[f], want.FlowRates[f])
		}
	}
	if !sameBits(got.Utility, want.Utility) {
		t.Fatalf("Utility = %v, want %v", got.Utility, want.Utility)
	}
	if !sameBits(got.MaxViolation, want.MaxViolation) {
		t.Fatalf("MaxViolation = %v, want %v", got.MaxViolation, want.MaxViolation)
	}
}

// checkAgainstReference solves p both ways and returns the kernel's
// solution for its transition counters.
func checkAgainstReference(t *testing.T, p Problem, opts SolveOptions) Solution {
	t.Helper()
	want, err := referenceSolve(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Solve(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSolution(t, got, want)
	return got
}

// figureInstance draws a Figure-6/7 instance and flows the way
// internal/experiments does.
func figureInstance(enterprise bool, seed int64, flows int) (*graph.Network, []FlowSpec) {
	rng := rand.New(rand.NewSource(seed))
	var inst *topology.Instance
	if enterprise {
		inst = topology.Enterprise(rng, topology.Config{})
	} else {
		inst = topology.Residential(rng, topology.Config{})
	}
	pick := rand.New(rand.NewSource(seed + 1_000_000))
	specs := make([]FlowSpec, flows)
	for i := range specs {
		specs[i].Src, specs[i].Dst = inst.RandomFlow(pick)
	}
	return inst.BuildCached(topology.ViewHybrid).Network, specs
}

var figureConfig = Config{Enumerate: EnumerateOptions{MaxHops: 4, MaxPaths: 512}}

// TestSolveMatchesReferenceOnFigureProblems covers the problems the
// figures solve — both topologies, both capacity regions, one and three
// flows — at seeds the repository benchmark never uses, at the default
// iteration count, so hundreds of routes park.
func TestSolveMatchesReferenceOnFigureProblems(t *testing.T) {
	// The oracle is the slow loop: -short (CI runs it under the race
	// detector) keeps the two single-flow problems of one seed.
	seeds, flowCounts := []int64{5, 12}, []int{1, 3}
	if testing.Short() {
		seeds, flowCounts = seeds[:1], flowCounts[:1]
	}
	for _, enterprise := range []bool{false, true} {
		for _, flows := range flowCounts {
			for _, seed := range seeds {
				t.Run(fmt.Sprintf("enterprise=%v/flows=%d/seed=%d", enterprise, flows, seed), func(t *testing.T) {
					t.Parallel()
					net, specs := figureInstance(enterprise, seed, flows)
					rs := enumerateRoutes(net, specs, figureConfig.Enumerate)
					if rs.problem.NumRoutes == 0 {
						t.Skip("disconnected pair")
					}
					parked := 0
					for _, constraints := range [][]Constraint{rs.cliqueRows(net, 1), rs.conservativeRows(net, 1)} {
						p := rs.problem
						p.Constraints = constraints
						parked += checkAgainstReference(t, p, SolveOptions{}).parks
					}
					if rs.problem.NumRoutes > 100 && parked == 0 {
						t.Errorf("%d routes and none parked: the kernel's fast path did not run", rs.problem.NumRoutes)
					}
				})
			}
		}
	}
}

// randomProblem draws 1–4 flows over 3–40 routes and 0–6 rows, with
// weighted and α-fair utilities, a margin, and caps that bind on some
// routes and are absent on others.
func randomProblem(rng *rand.Rand) Problem {
	flows := 1 + rng.Intn(4)
	p := Problem{Flows: make([][]int, flows)}
	for f := range p.Flows {
		for i, k := 0, 1+rng.Intn(10); i < k; i++ {
			p.Flows[f] = append(p.Flows[f], p.NumRoutes)
			p.NumRoutes++
		}
		switch rng.Intn(3) {
		case 0:
			p.Utilities = append(p.Utilities, nil)
		case 1:
			p.Utilities = append(p.Utilities, congestion.ProportionalFairness{Weight: 0.5 + 2*rng.Float64()})
		default:
			p.Utilities = append(p.Utilities, congestion.AlphaFair{A: 0.5 + 1.5*rng.Float64()})
		}
	}
	bound := 1 - 0.2*rng.Float64() // Delta > 0
	for c, k := 0, rng.Intn(7); c < k; c++ {
		coef := map[int]float64{}
		for r := 0; r < p.NumRoutes; r++ {
			if rng.Intn(3) > 0 {
				coef[r] = (0.01 + 0.2*rng.Float64()) * float64(1+rng.Intn(3))
			}
		}
		if len(coef) > 0 {
			p.Constraints = append(p.Constraints, Constraint{Coef: coef, Bound: bound})
		}
	}
	p.RateCap = make([]float64, p.NumRoutes)
	for r := range p.RateCap {
		switch rng.Intn(4) {
		case 0:
			p.RateCap[r] = math.Inf(1)
		case 1:
			p.RateCap[r] = 0.5 + rng.Float64() // binds: far below 1/coef
		default:
			p.RateCap[r] = 5 + 60*rng.Float64()
		}
	}
	return p
}

// TestSolveMatchesReferenceOnRandomProblems sweeps random problems across
// the options: the default horizon, Step 0.5 (routes reach the fixed point
// after ≈ 1 100 iterations), and explicit Iters below and above it.
func TestSolveMatchesReferenceOnRandomProblems(t *testing.T) {
	options := []SolveOptions{
		{},
		{Step: 0.5, Iters: 600},  // stops before any route can freeze
		{Step: 0.5, Iters: 4000}, // runs far past the freeze horizon
		{Step: 0.5, Iters: 2500, Gain: 5},
		{Iters: 300},
	}
	rng := rand.New(rand.NewSource(99))
	trials := 60
	if testing.Short() {
		trials = 20
	}
	freezes, parks, wakes, reanchors, unconstrained := 0, 0, 0, 0, 0
	for i := 0; i < trials; i++ {
		p := randomProblem(rng)
		if len(p.Constraints) == 0 {
			unconstrained++
		}
		opts := options[i%len(options)]
		sol := checkAgainstReference(t, p, opts)
		freezes, parks, wakes, reanchors = freezes+sol.freezes, parks+sol.parks, wakes+sol.wakes, reanchors+sol.reanchors
		if opts.Iters == 600 && sol.freezes != 0 {
			t.Errorf("trial %d: %d routes froze within 600 iterations of step 0.5", i, sol.freezes)
		}
	}
	if freezes == 0 || parks == 0 || wakes == 0 || reanchors == 0 {
		t.Errorf("freezes = %d, parks = %d, wakes = %d, reanchors = %d over the sweep: a transition of the kernel never ran", freezes, parks, wakes, reanchors)
	}
	if unconstrained == 0 {
		t.Error("no trial without constraints")
	}
}

// TestSolveMatchesReferenceWhenAllButOneRouteDies gives one flow a good
// route and seven that cost ten times the airtime: the optimum uses the
// good one alone. The four routes after it park behind it, and the three
// before it park ahead of it, where nothing live is left. Next to a second
// flow whose one route runs at a small steady rate ahead of them in the row,
// the routes ahead of the good one stay visible and freeze in the pass.
func TestSolveMatchesReferenceWhenAllButOneRouteDies(t *testing.T) {
	p := Problem{NumRoutes: 8, Flows: [][]int{{0, 1, 2, 3, 4, 5, 6, 7}}}
	coef := map[int]float64{3: 0.02}
	for r := 0; r < 8; r++ {
		if r != 3 {
			coef[r] = 0.2 + 0.01*float64(r)
		}
	}
	p.Constraints = []Constraint{{Coef: coef, Bound: 1}}
	sol := checkAgainstReference(t, p, SolveOptions{Step: 0.5, Iters: 3000})
	if sol.parks-sol.wakes != 7 || sol.freezes != 0 || sol.thaws != 0 {
		t.Errorf("parks = %d, wakes = %d, freezes = %d, thaws = %d; want routes 0–2 and 4–7 parked at the end, none frozen", sol.parks, sol.wakes, sol.freezes, sol.thaws)
	}
	if sol.X[3] < 40 {
		t.Errorf("surviving route carries %v, want ≈ 50", sol.X[3])
	}

	// Route 0 is a flow of its own with a weight of 10⁻⁴: its term is ≈ 10⁻³
	// of the good route's, too small to anchor the row, far too large to
	// hide the dead routes between them.
	p = Problem{NumRoutes: 8, Flows: [][]int{{0}, {1, 2, 3, 4, 5, 6, 7}}, Utilities: []congestion.Utility{scaledLog(1e-4), nil}}
	coef = map[int]float64{0: 0.02, 5: 0.02}
	for r := 1; r < 8; r++ {
		if r != 5 {
			coef[r] = 0.2 + 0.01*float64(r)
		}
	}
	p.Constraints = []Constraint{{Coef: coef, Bound: 1}}
	sol = checkAgainstReference(t, p, SolveOptions{Step: 0.5, Iters: 3000})
	if sol.parks-sol.wakes != 2 || sol.freezes != 4 || sol.X[0] <= 0 {
		t.Errorf("parks = %d, wakes = %d, freezes = %d, X[0] = %v; want routes 6–7 parked and routes 1–4 frozen at the end next to a live route 0", sol.parks, sol.wakes, sol.freezes, sol.X[0])
	}
}

// TestSolveThawsFrozenRoutes exercises the exit path with a problem whose
// duals wind up: uncapped routes warm-start at 150 Mbps each against
// airtime coefficients of 2–3.5, so the first iterations overload the
// constraint a thousandfold and the price climbs to ≈ 1 500. It falls by
// only α·bound per iteration, so every route stays clipped for ≈ 3 000
// iterations — long enough at step 0.5 to decay to the fixed point and
// freeze — and once the price is back near U′(0) the update is no longer
// clipped: the kernel must resume each route on exactly the iterate the
// reference holds, still bit for bit.
func TestSolveThawsFrozenRoutes(t *testing.T) {
	p := Problem{NumRoutes: 4, Flows: [][]int{{0, 1, 2, 3}}}
	coef := map[int]float64{}
	for r := 0; r < 4; r++ {
		coef[r] = 2 + 0.5*float64(r)
	}
	p.Constraints = []Constraint{{Coef: coef, Bound: 1}}
	sol := checkAgainstReference(t, p, SolveOptions{Step: 0.5, Iters: 6000})
	if sol.freezes < 4 || sol.thaws == 0 {
		t.Fatalf("freezes = %d, thaws = %d: the re-activation path did not run", sol.freezes, sol.thaws)
	}
	if sol.X[0] <= 0 {
		t.Errorf("the cheapest route ends at %v, want it carrying the flow again", sol.X[0])
	}
}

// assertSameResult compares two baseline results bit for bit.
func assertSameResult(t *testing.T, name string, got, want Result) {
	t.Helper()
	if !sameBits(got.Utility, want.Utility) {
		t.Fatalf("%s: Utility = %v, want %v", name, got.Utility, want.Utility)
	}
	if len(got.FlowRates) != len(want.FlowRates) || len(got.X) != len(want.X) || len(got.Paths) != len(want.Paths) {
		t.Fatalf("%s: shape differs", name)
	}
	for f := range want.FlowRates {
		if !sameBits(got.FlowRates[f], want.FlowRates[f]) {
			t.Fatalf("%s: FlowRates[%d] = %v, want %v", name, f, got.FlowRates[f], want.FlowRates[f])
		}
		if len(got.X[f]) != len(want.X[f]) || len(got.Paths[f]) != len(want.Paths[f]) {
			t.Fatalf("%s: flow %d has %d rates / %d paths, want %d / %d", name, f, len(got.X[f]), len(got.Paths[f]), len(want.X[f]), len(want.Paths[f]))
		}
		for i := range want.X[f] {
			if !sameBits(got.X[f][i], want.X[f][i]) {
				t.Fatalf("%s: X[%d][%d] = %v, want %v", name, f, i, got.X[f][i], want.X[f][i])
			}
		}
	}
}

// TestBaselinesEqualsSingleEntries checks Baselines against (Optimal,
// ConservativeOpt) where the two regions coincide (Figure 1, a residential
// instance), where they differ (the chain, an enterprise instance), with a
// margin, and with no connectivity; and that its two results can be
// modified independently.
func TestBaselinesEqualsSingleEntries(t *testing.T) {
	type instance struct {
		name     string
		net      *graph.Network
		flows    []FlowSpec
		cfg      Config
		coincide bool
	}
	fig1, a, c := figure1()
	chainNet, u, z := chain()
	resNet, resFlows := figureInstance(false, 12, 1)
	entNet, entFlows := figureInstance(true, 5, 3)
	quick := Config{Solver: SolveOptions{Iters: 2000}}
	quickFig := figureConfig
	quickFig.Solver.Iters = 1500
	island := graph.NewBuilder(nil)
	n0 := island.AddNode("a", 0, 0, graph.TechWiFi)
	n1 := island.AddNode("b", 1, 0, graph.TechWiFi)
	instances := []instance{
		{"figure1", fig1, []FlowSpec{{Src: a, Dst: c}}, quick, true},
		{"figure1/delta", fig1, []FlowSpec{{Src: a, Dst: c}}, Config{Delta: 0.1, Solver: quick.Solver}, true},
		{"chain", chainNet, []FlowSpec{{Src: u, Dst: z}}, quick, false},
		{"residential", resNet, resFlows, quickFig, true},
		{"enterprise", entNet, entFlows, quickFig, false},
		{"unconnected", island.Build(), []FlowSpec{{Src: n0, Dst: n1}}, quick, true},
	}
	for _, in := range instances {
		t.Run(in.name, func(t *testing.T) {
			wantOpt, err := Optimal(in.net, in.flows, in.cfg)
			if err != nil {
				t.Fatal(err)
			}
			wantCons, err := ConservativeOpt(in.net, in.flows, in.cfg)
			if err != nil {
				t.Fatal(err)
			}
			opt, cons, err := Baselines(in.net, in.flows, in.cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertSameResult(t, "optimal", opt, wantOpt)
			assertSameResult(t, "conservative", cons, wantCons)

			rs := enumerateRoutes(in.net, in.flows, in.cfg.Enumerate)
			cliques, _ := densify(rs.cliqueRows(in.net, 1-in.cfg.Delta), rs.problem.NumRoutes)
			domains, _ := densify(rs.conservativeRows(in.net, 1-in.cfg.Delta), rs.problem.NumRoutes)
			if got := cliques.equal(domains); got != in.coincide {
				t.Errorf("regions coincide = %v, want %v", got, in.coincide)
			}

			// Writing through one result must not show in the other.
			for f := range opt.FlowRates {
				opt.FlowRates[f] = -1
				for i := range opt.X[f] {
					opt.X[f][i] = -1
				}
			}
			assertSameResult(t, "conservative after overwriting optimal", cons, wantCons)
		})
	}
}

func TestDomainKeyIsInjective(t *testing.T) {
	// The two-byte packing mapped both of these to {0x00, 0x01}.
	if domainKey([]graph.LinkID{1}) == domainKey([]graph.LinkID{65537}) {
		t.Error("links 1 and 65537 share a key")
	}
	// Self-delimiting: a list is not confused with its concatenation.
	if domainKey([]graph.LinkID{1, 2}) == domainKey([]graph.LinkID{258}) || domainKey([]graph.LinkID{300}) == domainKey([]graph.LinkID{172, 2}) {
		t.Error("different member lists share a key")
	}
	if domainKey([]graph.LinkID{7, 9}) != domainKey([]graph.LinkID{7, 9}) {
		t.Error("equal member lists have different keys")
	}
}
