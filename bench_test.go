// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, plus micro-benchmarks for the load-bearing
// primitives (route computation, controller slots, header codec, MAC
// events). The figure benches run reduced instance counts per iteration —
// the cmd/ binaries regenerate the full figures; these benches make the
// regeneration cost measurable and keep the harness exercised by
// `go test -bench`.
package empower

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/congestion"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/graph"
	"repro/internal/mac"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/optimal"
	"repro/internal/routing"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/wire"
)

// benchSim is a reduced Monte-Carlo configuration for per-iteration runs.
var benchSim = experiments.SimConfig{Runs: 8, Seed: 42, Core: core.Options{Slots: 1200}}

// benchTestbed is a reduced emulation configuration.
var benchTestbed = experiments.TestbedConfig{Seed: 42, Duration: 10, Pairs: 3, Flows: 2, Repeats: 1, Delta: 0.05}

// must unwraps a sweep that cannot fail under context.Background().
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func BenchmarkFigure4Residential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := must(experiments.Figure4Ctx(context.Background(), experiments.TopoResidential, benchSim))
		if len(r.Samples[core.SchemeEMPoWER]) == 0 {
			b.Fatal("no samples")
		}
	}
}

func BenchmarkFigure4Enterprise(b *testing.B) {
	for i := 0; i < b.N; i++ {
		must(experiments.Figure4Ctx(context.Background(), experiments.TopoEnterprise, benchSim))
	}
}

// BenchmarkFigure4ParallelSweep measures the replication-level speedup of
// the internal/runner refactor on the Figure 4 Monte-Carlo sweep: the
// workers=1 case is the old serial loop, workers=GOMAXPROCS the default
// parallel configuration. The results are bit-identical across the two
// (see TestFigure4ParallelDeterminism); only the wall-clock differs.
func BenchmarkFigure4ParallelSweep(b *testing.B) {
	counts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		cfg := benchSim
		cfg.Runs = 16
		cfg.Parallel = workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := must(experiments.Figure4Ctx(context.Background(), experiments.TopoResidential, cfg))
				if len(r.Samples[core.SchemeEMPoWER]) != cfg.Runs {
					b.Fatal("sample count wrong")
				}
			}
		})
	}
}

func BenchmarkFigure5WorstFlows(b *testing.B) {
	f4 := must(experiments.Figure4Ctx(context.Background(), experiments.TopoResidential, benchSim))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure5(f4)
	}
}

func BenchmarkFigure6OptimalRatios(b *testing.B) {
	cfg := benchSim
	cfg.Runs = 4
	for i := 0; i < b.N; i++ {
		must(experiments.Figure6Ctx(context.Background(), experiments.TopoResidential, cfg))
	}
}

// BenchmarkOptimalSolve measures one centralized solve of the problem the
// repository benchmark's sim-fig6 workload solves first: the residential
// instance of seed 1, 512 enumerated routes of one flow under the two
// per-technology airtime rows. It is assembled from the package's exported
// pieces, so the same benchmark runs on any commit.
func BenchmarkOptimalSolve(b *testing.B) {
	inst := topology.Residential(stats.NewRand(1), topology.Config{})
	src, dst := inst.RandomFlow(stats.NewRand(1_000_001))
	net := inst.Build(topology.ViewHybrid).Network
	paths := optimal.EnumeratePaths(net, src, dst, optimal.EnumerateOptions{MaxHops: 4, MaxPaths: 512})
	p := optimal.Problem{NumRoutes: len(paths), Flows: [][]int{make([]int, len(paths))}, RateCap: make([]float64, len(paths))}
	for r, path := range paths {
		p.Flows[0][r] = r
		p.RateCap[r] = net.Link(path[0]).Capacity
		for _, l := range path {
			p.RateCap[r] = min(p.RateCap[r], net.Link(l).Capacity)
		}
	}
	for _, clique := range optimal.NewConflictGraph(net).MaximalCliques() {
		coef := map[int]float64{}
		for _, cl := range clique {
			for r, path := range paths {
				for _, l := range path {
					if int(l) == cl {
						coef[r] += net.Link(l).D()
					}
				}
			}
		}
		if len(coef) > 0 {
			p.Constraints = append(p.Constraints, optimal.Constraint{Coef: coef, Bound: 1})
		}
	}
	if len(paths) != 512 || len(p.Constraints) != 2 {
		b.Fatalf("problem has %d routes and %d rows, want 512 and 2", len(paths), len(p.Constraints))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var live float64
	for i := 0; i < b.N; i++ {
		sol, err := optimal.Solve(p, optimal.SolveOptions{})
		if err != nil || sol.FlowRates[0] <= 0 {
			b.Fatalf("solve failed: %v, rate %v", err, sol.FlowRates)
		}
		live = sol.LiveShare
	}
	// The mechanism next to the time: the mean share of the 512 routes the
	// iteration pass visits (1 = every route on every iteration).
	b.ReportMetric(live, "live-share")
}

func BenchmarkFigure7Utility(b *testing.B) {
	cfg := benchSim
	cfg.Runs = 3
	for i := 0; i < b.N; i++ {
		must(experiments.Figure7Ctx(context.Background(), experiments.TopoResidential, cfg))
	}
}

func BenchmarkConvergenceComparison(b *testing.B) {
	cfg := benchSim
	cfg.Runs = 2
	for i := 0; i < b.N; i++ {
		must(experiments.ConvergenceCtx(context.Background(), experiments.TopoResidential, cfg))
	}
}

func BenchmarkFigure9TwoFlowTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure9(benchTestbed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure10TestbedPairs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		must(experiments.Figure10Ctx(context.Background(), benchTestbed))
	}
}

func BenchmarkFigure11FlowBars(b *testing.B) {
	for i := 0; i < b.N; i++ {
		must(experiments.Figure11Ctx(context.Background(), benchTestbed))
	}
}

func BenchmarkTable1Downloads(b *testing.B) {
	cfg := benchTestbed
	for i := 0; i < b.N; i++ {
		must(experiments.Table1Ctx(context.Background(), cfg))
	}
}

func BenchmarkFigure12TCPTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure12Ctx(context.Background(), benchTestbed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure13TCPBars(b *testing.B) {
	for i := 0; i < b.N; i++ {
		must(experiments.Figure13Ctx(context.Background(), benchTestbed))
	}
}

// --- micro-benchmarks ---

// BenchmarkRoutingN5 measures the full multipath route computation on a
// residential instance with n = 5, the paper's ~50 ms operation (§3.2).
func BenchmarkRoutingN5(b *testing.B) {
	inst := topology.Residential(stats.NewRand(1), topology.Config{})
	net := inst.Build(topology.ViewHybrid)
	rng := stats.NewRand(2)
	src, dst := inst.RandomFlow(rng)
	// Warm the routing workspace pool before the timer: testing runs a GC
	// ahead of every benchmark, which drains sync.Pool (two collections
	// clear the victim cache), so at -benchtime 1x the first op would be
	// charged the full workspace rebuild and report thousands of phantom
	// bytes/op. Steady-state cost is what the benchmark is after.
	routing.Multipath(net.Network, src, dst, routing.DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		routing.Multipath(net.Network, src, dst, routing.DefaultConfig())
	}
}

// BenchmarkAblationNShortest sweeps n (the n-shortest parameter) to show
// the cost/benefit knob of §3.2.
func BenchmarkAblationNShortest(b *testing.B) {
	inst := topology.Residential(stats.NewRand(1), topology.Config{})
	net := inst.Build(topology.ViewHybrid)
	rng := stats.NewRand(2)
	src, dst := inst.RandomFlow(rng)
	for _, n := range []int{1, 2, 5, 8} {
		cfg := routing.DefaultConfig()
		cfg.N = n
		b.Run(benchName("n", n), func(b *testing.B) {
			// Untimed warm-up: repopulate the workspace pool drained by the
			// pre-benchmark GC (see BenchmarkRoutingN5).
			routing.Multipath(net.Network, src, dst, cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				routing.Multipath(net.Network, src, dst, cfg)
			}
		})
	}
}

// BenchmarkAblationCSC compares route computation with and without the
// channel-switching cost.
func BenchmarkAblationCSC(b *testing.B) {
	inst := topology.Residential(stats.NewRand(3), topology.Config{})
	net := inst.Build(topology.ViewHybrid)
	rng := stats.NewRand(4)
	src, dst := inst.RandomFlow(rng)
	for _, csc := range []bool{true, false} {
		cfg := routing.DefaultConfig()
		cfg.UseCSC = csc
		name := "csc-on"
		if !csc {
			name = "csc-off"
		}
		b.Run(name, func(b *testing.B) {
			// Untimed warm-up: repopulate the workspace pool drained by the
			// pre-benchmark GC (see BenchmarkRoutingN5).
			routing.SinglePath(net.Network, src, dst, cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				routing.SinglePath(net.Network, src, dst, cfg)
			}
		})
	}
}

// controllerBenchProblem draws the controller benchmarks' problem: EMPoWER
// routes for the given number of random flows (seed 6) on the hybrid view of
// an instance.
func controllerBenchProblem(b *testing.B, inst *topology.Instance, flows int) (*graph.Network, []congestion.Route) {
	rng := stats.NewRand(6)
	pairs := make([][2]graph.NodeID, flows)
	for i := range pairs {
		s, d := inst.RandomFlow(rng)
		pairs[i] = [2]graph.NodeID{s, d}
	}
	net := inst.Build(topology.ViewHybrid)
	var routes []congestion.Route
	for f, pr := range pairs {
		for _, p := range core.RoutesFor(core.SchemeEMPoWER, net.Network, pr[0], pr[1]) {
			routes = append(routes, congestion.Route{Links: p, Flow: f})
		}
	}
	if len(routes) == 0 {
		b.Skip("no connected flows on this seed")
	}
	return net.Network, routes
}

// BenchmarkControllerSlot measures one congestion-controller time slot on
// an enterprise instance with three multipath flows.
func BenchmarkControllerSlot(b *testing.B) {
	net, routes := controllerBenchProblem(b, topology.Enterprise(stats.NewRand(5), topology.Config{}), 3)
	ctrl, err := congestion.New(net, routes, congestion.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctrl.Step()
	}
}

// benchControllerRun measures the batch controller API end to end: one
// Reset (pooled re-initialization onto the same network and routes) plus a
// RunAppend of the given length into a reused trajectory buffer.
func benchControllerRun(b *testing.B, net *graph.Network, routes []congestion.Route, opts congestion.Options, slots int) {
	var ctrl congestion.Controller
	if err := ctrl.Reset(net, routes, opts); err != nil {
		b.Fatal(err)
	}
	traj := ctrl.RunAppend(slots, nil) // warm-up sizes the buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ctrl.Reset(net, routes, opts); err != nil {
			b.Fatal(err)
		}
		traj = ctrl.RunAppend(slots, traj[:0])
	}
	_ = traj
}

// BenchmarkControllerBatch is the BenchmarkControllerSlot problem run 100
// slots at a time: too short for a trajectory to settle, so it meters what
// RunAppend adds to a slot it has to step (one state compare, one snapshot
// per 64 slots), amortized with the Reset.
func BenchmarkControllerBatch(b *testing.B) {
	net, routes := controllerBenchProblem(b, topology.Enterprise(stats.NewRand(5), topology.Config{}), 3)
	benchControllerRun(b, net, routes, congestion.Options{}, 100)
}

// BenchmarkControllerHorizon is the §5 sweep's per-evaluation controller
// cost: Reset plus the paper's 4000-slot horizon with core.Evaluate's step
// size and warm start. How much of the horizon is stepped depends on when
// (and whether) the trajectory becomes periodic, so there is one problem of
// each kind: the BenchmarkControllerSlot problem, three multipath flows that
// never settle exactly (every slot is stepped and compared to the anchor),
// and a residential flow with a single route, the sweep's common case, whose
// state recurs after some 200 slots.
func BenchmarkControllerHorizon(b *testing.B) {
	for _, tc := range []struct {
		name  string
		inst  *topology.Instance
		flows int
	}{
		{"enterprise-3flows", topology.Enterprise(stats.NewRand(5), topology.Config{}), 3},
		{"residential-1flow", topology.Residential(stats.NewRand(2), topology.Config{}), 1},
	} {
		b.Run(tc.name, func(b *testing.B) {
			net, routes := controllerBenchProblem(b, tc.inst, tc.flows)
			paths := make([]graph.Path, len(routes))
			for i, r := range routes {
				paths[i] = r.Links
			}
			// Seeded per flow, as core.Evaluate does.
			var initial []float64
			for lo := 0; lo < len(routes); {
				hi := lo
				for hi < len(routes) && routes[hi].Flow == routes[lo].Flow {
					hi++
				}
				initial = routing.AppendSequentialRates(net, paths[lo:hi], initial)
				lo = hi
			}
			for i := range initial {
				initial[i] *= 0.7
			}
			benchControllerRun(b, net, routes, congestion.Options{Alpha: 0.05, Delta: 0.05, InitialRates: initial}, 4000)
		})
	}
}

// BenchmarkInstanceBuildViews materializes the three views of one
// enterprise instance, as a scheme sweep does once per replication: node and
// link tables, adjacency, and the interference rows.
func BenchmarkInstanceBuildViews(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// A fresh instance per iteration, as a replication generates one.
		b.StopTimer()
		inst := topology.Enterprise(stats.NewRand(5), topology.Config{})
		b.StartTimer()
		for _, view := range []topology.View{topology.ViewHybrid, topology.ViewWiFiSingle, topology.ViewWiFiDual} {
			if inst.Build(view).NumLinks() == 0 {
				b.Fatal("empty view")
			}
		}
	}
}

// BenchmarkHeaderCodec measures the 20-byte layer-2.5 header round trip.
func BenchmarkHeaderCodec(b *testing.B) {
	h := wire.Header{QR: 1.25, Seq: 7}
	h.SetRoute([]wire.InterfaceID{1, 2, 3})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := h.AppendBinary(nil)
		var g wire.Header
		if err := g.UnmarshalBinary(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDataFrameCodec measures the full data-frame round trip.
func BenchmarkDataFrameCodec(b *testing.B) {
	f := wire.DataFrame{Src: 1, Dst: 13, FlowID: 3, PayloadLen: 1500}
	f.Header.SetRoute([]wire.InterfaceID{4, 5})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := f.AppendBinary(nil)
		var g wire.DataFrame
		if err := g.UnmarshalBinary(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMACCompletion measures one MAC frame completion on the
// 22-node testbed's hybrid network (482 links, interference rows of
// ≈ 170) with three links of one collision domain kept backlogged — the
// regime the §6 emulation spends its time in: a long freed row, a couple
// of links that can actually start. It is the micro meter of the MAC
// completion kernel (row shuffle, contender skip, cell counts); its
// recorded twin is bench/'s mac.kernel_ns_per_frame.
func BenchmarkMACCompletion(b *testing.B) {
	net := topology.Testbed(stats.NewRand(42), topology.Config{}).Build(topology.ViewHybrid).Network
	var eng sim.Engine
	m := mac.New(&eng, net, stats.NewRand(7), mac.Options{})
	links := net.Interference(0)[:3]
	const frameBits = 12000
	delivered, target := 0, 0
	m.Deliver = func(l graph.LinkID, _ mac.Packet) {
		if delivered++; delivered < target {
			m.Send(l, frameBits, nil)
		}
	}
	run := func(n int) {
		target = delivered + n
		for _, l := range links {
			m.Send(l, frameBits, nil)
			m.Send(l, frameBits, nil)
		}
		eng.RunUntilIdle()
	}
	run(64) // warm the rings, the timer pool and the heap
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}

// engineTicker is one self-rescheduling timer of BenchmarkEngineHeap.
type engineTicker struct {
	eng    *sim.Engine
	period float64
}

func engineTick(arg any) {
	t := arg.(*engineTicker)
	t.eng.ScheduleFunc(t.period, engineTick, t)
}

// BenchmarkEngineHeap measures one event through the bare engine — pop,
// recycle, handler, push — with `depth` self-rescheduling closure-free
// timers of distinct periods pending: depth 57 is the churn-testbed
// workload's peak heap depth, 4096 a heap that has left the L1 cache.
// The micro meter of the event heap; its recorded twin is bench/'s
// sim.kernel_ns_per_event.
func BenchmarkEngineHeap(b *testing.B) {
	for _, depth := range []int{57, 4096} {
		b.Run(benchName("depth", depth), func(b *testing.B) {
			var eng sim.Engine
			for i := 0; i < depth; i++ {
				t := &engineTicker{eng: &eng, period: 1 + float64(i)/float64(depth)}
				eng.ScheduleFunc(t.period, engineTick, t)
			}
			eng.Run(4) // every slot recycled at least once
			start := eng.Fired()
			// About 0.7 events fall in each step (the periods lie in
			// [1, 2)), so the loop stops within a few events of b.N.
			step := 1 / float64(depth)
			b.ReportAllocs()
			b.ResetTimer()
			for eng.Fired()-start < uint64(b.N) {
				eng.Run(eng.Now() + step)
			}
		})
	}
}

// BenchmarkEmulationSecond measures one emulated second of the shipped
// flaps scenario under EMPoWER with route management — the steady-state
// cost every §6 figure and churn experiment pays per emulated second
// (MAC events, agents, acks, price broadcasts, scenario events). It is
// the allocation canary of the emulation fast path; its recorded twin is
// bench/'s node.ns_per_event.
func BenchmarkEmulationSecond(b *testing.B) {
	sc, err := scenario.Load("examples/scenarios/flaps.json")
	if err != nil {
		b.Fatal(err)
	}
	var em *node.Emulation
	var t float64
	setup := func() {
		net, err := sc.Topology.BuildView(stats.SplitSeed(42, 2_000_000), core.SchemeEMPoWER.View())
		if err != nil {
			b.Fatal(err)
		}
		em = node.NewEmulation(net, node.Config{Estimation: true}, 7)
		if _, err := scenario.Bind(em, sc, stats.SplitSeed(42, 1_000_000), scenario.Options{ManageRoutes: true}); err != nil {
			b.Fatal(err)
		}
		em.Run(5) // warm up past the ramp
		t = 5
	}
	setup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if t+1 > sc.Duration {
			b.StopTimer()
			setup()
			b.StartTimer()
		}
		t++
		em.Run(t)
	}
}

// BenchmarkMetricsOverhead is BenchmarkEmulationSecond with the full
// observability layer attached: a 256-record flight recorder per domain
// (one ring-slot write per engine/MAC event) plus a registry sample per
// emulated second — more often than real sweeps, which sample once per
// replication. The comparison against BenchmarkEmulationSecond is the
// observability budget: ≤ 5% ns/op, and still zero allocs/op. Its
// recorded twin is bench/'s trace.overhead_frac.
func BenchmarkMetricsOverhead(b *testing.B) {
	sc, err := scenario.Load("examples/scenarios/flaps.json")
	if err != nil {
		b.Fatal(err)
	}
	reg := obs.NewRegistry()
	var em *node.Emulation
	var t float64
	setup := func() {
		net, err := sc.Topology.BuildView(stats.SplitSeed(42, 2_000_000), core.SchemeEMPoWER.View())
		if err != nil {
			b.Fatal(err)
		}
		em = node.NewEmulation(net, node.Config{Estimation: true, Recorder: 256}, 7)
		if _, err := scenario.Bind(em, sc, stats.SplitSeed(42, 1_000_000), scenario.Options{ManageRoutes: true}); err != nil {
			b.Fatal(err)
		}
		em.Run(5) // warm up past the ramp
		em.SampleMetrics(reg)
		t = 5
	}
	setup()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if t+1 > sc.Duration {
			b.StopTimer()
			setup()
			b.StartTimer()
		}
		t++
		em.Run(t)
		em.SampleMetrics(reg)
	}
}

// BenchmarkChurnSweep measures one reduced churn-failover sweep on the
// shipped flap scenario: per iteration, 2 replications × 2 schemes of
// the full scenario pipeline (topology build, bind, expansion, 150
// emulated seconds of flapping, failover measurement) on the parallel
// runner. Its recorded twins are bench/'s churn-* workloads.
func BenchmarkChurnSweep(b *testing.B) {
	sc, err := scenario.Load("examples/scenarios/flaps.json")
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiments.ChurnConfig{
		Seed: 42, Runs: 2, ManageRoutes: true,
		Schemes: []core.Scheme{core.SchemeEMPoWER, core.SchemeSPWoCC},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ChurnFailoverCtx(context.Background(), sc, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChurnBurst measures, in process, the sweep bench/'s
// fleet-burst workload submits: sweep-burst.json's 4 s flap scenario,
// 4 runs × EMPoWER,SP at seed 7, parsed as the daemon parses it. Its
// B/op is the per-sweep heap traffic of short replications, where the
// per-packet logs and reorder rings are recycled between replications
// (node.Emulation.Release); reps/op converts it to bytes per replication.
func BenchmarkChurnBurst(b *testing.B) {
	data, err := os.ReadFile("bench/workloads/sweep-burst.json")
	if err != nil {
		b.Fatal(err)
	}
	spec, err := fleet.ParseSpec(data)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ReportMetric(float64(spec.Total), "reps/op")
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ChurnFailoverCtx(context.Background(), spec.Scenario, spec.Churn); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChurnCollect measures the collect reads of one finished 150 s
// replication of the shipped flaps scenario (EMPoWER with route
// management): per iteration, the failover latencies, aggregate goodput
// and degraded goodput a churn replication reads after its run. The run
// itself happens once, outside the timer. The delivery logs do not change
// across iterations, so from the second one on every binning is a memo
// read — the cost of each further read of a finished run; a
// replication's first read also pays one binning per bin width. Its
// recorded twin is bench/'s scenario.collect_ms.
func BenchmarkChurnCollect(b *testing.B) {
	sc, err := scenario.Load("examples/scenarios/flaps.json")
	if err != nil {
		b.Fatal(err)
	}
	net, err := sc.Topology.BuildView(stats.SplitSeed(42, 2_000_000), core.SchemeEMPoWER.View())
	if err != nil {
		b.Fatal(err)
	}
	em := node.NewEmulation(net, node.Config{Estimation: true}, 7)
	rt, err := scenario.Bind(em, sc, stats.SplitSeed(42, 1_000_000), scenario.Options{ManageRoutes: true})
	if err != nil {
		b.Fatal(err)
	}
	rt.Run()
	if len(rt.Failures) == 0 {
		b.Fatal("no failure episode to measure")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.FailoverLatencies(0.2, 0.8)
		rt.AggregateGoodput()
		rt.DegradedGoodput()
	}
}

func benchName(prefix string, n int) string {
	return prefix + "=" + strconv.Itoa(n)
}
