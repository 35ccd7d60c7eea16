package experiments

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/stats"
)

// must unwraps a sweep that cannot fail under context.Background().
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// fastSim keeps the Monte-Carlo smoke tests quick.
var fastSim = SimConfig{Runs: 12, Seed: 7, Core: core.Options{Slots: 1500}}

// fastTestbed keeps the emulation smoke tests quick.
var fastTestbed = TestbedConfig{Seed: 7, Duration: 12, Pairs: 4, Flows: 2, Repeats: 1, Delta: 0.05}

func TestFigure4Enterprise(t *testing.T) {
	res := must(Figure4Ctx(context.Background(), TopoEnterprise, SimConfig{Runs: 6, Seed: 3, Core: core.Options{Slots: 1500}}))
	if len(res.Samples[core.SchemeEMPoWER]) != 6 {
		t.Fatal("sample count wrong")
	}
	if res.Topo != TopoEnterprise {
		t.Error("topo label wrong")
	}
	if !strings.Contains(res.Render(), "Figure 4") {
		t.Error("render missing title")
	}
}

func TestFigure5FromFigure4(t *testing.T) {
	f4 := must(Figure4Ctx(context.Background(), TopoResidential, fastSim))
	res := Figure5(f4)
	if len(res.Ratios) == 0 {
		t.Fatal("no worst-flow ratios")
	}
	for _, r := range res.Ratios {
		if r < 0 {
			t.Fatalf("negative ratio %v", r)
		}
	}
	if res.EMPoWERBetterFrac < 0 || res.EMPoWERBetterFrac > 1 {
		t.Error("fraction out of range")
	}
	_ = res.Render()
}

func TestFigure6RatiosBounded(t *testing.T) {
	runs := 8
	if testing.Short() {
		runs = 2 // the optimal-baseline solver dominates this sweep
	}
	res := must(Figure6Ctx(context.Background(), TopoResidential, SimConfig{Runs: runs, Seed: 11, Core: core.Options{Slots: 1500}}))
	names := []string{"conservative opt", "EMPoWER", "MP-2bp", "MP-w/o-CC", "SP"}
	for _, n := range names {
		for _, v := range res.Ratios[n] {
			if v < 0 || v > 1 {
				t.Fatalf("%s ratio %v out of [0,1]", n, v)
			}
		}
	}
	// EMPoWER should dominate SP in the mean.
	if len(res.Ratios["EMPoWER"]) > 0 && len(res.Ratios["SP"]) > 0 {
		if mean(res.Ratios["EMPoWER"]) < mean(res.Ratios["SP"])-0.05 {
			t.Errorf("EMPoWER mean ratio %.2f below SP %.2f",
				mean(res.Ratios["EMPoWER"]), mean(res.Ratios["SP"]))
		}
	}
	_ = res.Render()
}

func TestFigure7UtilityRatios(t *testing.T) {
	if testing.Short() {
		t.Skip("3-flow optimal baseline is ~10 s per instance")
	}
	res := must(Figure7Ctx(context.Background(), TopoResidential, SimConfig{Runs: 5, Seed: 17, Core: core.Options{Slots: 1500}}))
	if len(res.Ratios["EMPoWER"]) == 0 {
		t.Skip("no connected 3-flow instances in this tiny sweep")
	}
	for _, v := range res.Ratios["EMPoWER"] {
		if v < 0 || v > 1 {
			t.Fatalf("utility ratio %v out of range", v)
		}
	}
	_ = res.Render()
}

// TestFigure7RoutelessLastPair rebuilds replication 63 of the enterprise
// Figure 7 sweep at seed 1 the way Figure7Ctx draws it: its third pair has
// no hybrid route, so the controller's trajectory rows are two flows wide
// under the CC schemes. Every scheme must report three flows, the
// route-less one at 0 Mbps.
func TestFigure7RoutelessLastPair(t *testing.T) {
	const seed, rep = 1, 63
	inst := generate(TopoEnterprise, seed+rep)
	rng := stats.NewRand(seed + rep + 1_000_000)
	pairs := make([][2]graph.NodeID, 3)
	for i := range pairs {
		s, d := inst.RandomFlow(rng)
		pairs[i] = [2]graph.NodeID{s, d}
	}
	for _, s := range figure7Schemes {
		ev := core.Evaluate(inst, s, pairs, core.Options{Delta: 0.05})
		if len(ev.Flows) != len(pairs) {
			t.Fatalf("%v: %d flow results for %d pairs", s, len(ev.Flows), len(pairs))
		}
		last := ev.Flows[len(pairs)-1]
		if len(last.Routes) != 0 || last.Throughput != 0 {
			t.Fatalf("%v: last pair has %d routes and %v Mbps, want none and 0", s, len(last.Routes), last.Throughput)
		}
		for f, fr := range ev.Flows[:len(pairs)-1] {
			if fr.Throughput <= 0 || math.IsInf(fr.Throughput, 0) {
				t.Errorf("%v: flow %d reports %v Mbps", s, f, fr.Throughput)
			}
		}
	}
}

func TestConvergenceComparison(t *testing.T) {
	res := must(ConvergenceCtx(context.Background(), TopoEnterprise, SimConfig{Runs: 8, Seed: 23, Core: core.Options{Slots: 3000}}))
	if res.EMPoWERSlots <= 0 || res.BackpressureSlots <= 0 {
		t.Skip("no connected instances in this tiny sweep")
	}
	// The separation of timescales is the reproduced claim; on small
	// samples individual instances vary, so assert the aggregate
	// direction with slack.
	if res.BackpressureSlots < res.EMPoWERSlots*1.2 {
		t.Errorf("backpressure (%0.f slots) should converge clearly slower than EMPoWER (%.0f)",
			res.BackpressureSlots, res.EMPoWERSlots)
	}
	t.Log(res.Render())
}

// TestConvergenceReportsJobTime checks that the convergence sweep, which
// dispatches candidates in waves, hands every candidate's duration to the
// JobTime hook — once per candidate, as the other sweeps do.
func TestConvergenceReportsJobTime(t *testing.T) {
	var jobs, dispatched int
	cfg := SimConfig{Runs: 2, Seed: 23, Parallel: 2,
		Progress: func(done, _ int) { dispatched = max(dispatched, done) },
		JobTime:  func(time.Duration) { jobs++ },
	}
	must(ConvergenceCtx(context.Background(), TopoResidential, cfg))
	if dispatched == 0 || jobs != dispatched {
		t.Errorf("JobTime fired %d times for %d dispatched candidates", jobs, dispatched)
	}
}

func TestFigure9Trace(t *testing.T) {
	res, err := Figure9(fastTestbed)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Times) == 0 || len(res.Total) != len(res.Times) {
		t.Fatal("trace series malformed")
	}
	// The received goodput in the final phase should be positive.
	last := res.Received[len(res.Received)-1]
	if last <= 0 {
		t.Errorf("no goodput at the end of the trace")
	}
	_ = res.Render()
}

func TestFigure10Ratios(t *testing.T) {
	if testing.Short() {
		t.Skip("per-pair packet emulation plus five analytic schemes is slow")
	}
	res := must(Figure10Ctx(context.Background(), fastTestbed))
	if len(res.Ratios["SP"]) == 0 {
		t.Skip("no connected pairs in this tiny run")
	}
	// SP-bf can never exceed the EMPoWER combination by much; SP-WiFi
	// ratios must be finite and non-negative.
	for name, rs := range res.Ratios {
		for _, v := range rs {
			if v < 0 {
				t.Fatalf("%s ratio %v negative", name, v)
			}
		}
	}
	_ = res.Render()
}

// TestTestbedDeltaUsedAsGiven checks that an explicit δ = 0 reaches the
// controllers rather than being replaced by §6.3's 0.05: Figure 10 at the
// two margins must differ.
func TestTestbedDeltaUsedAsGiven(t *testing.T) {
	cfg := TestbedConfig{Seed: 7, Duration: 4, Pairs: 2, Parallel: 1}
	zero := must(Figure10Ctx(context.Background(), cfg))
	cfg.Delta = 0.05
	margin := must(Figure10Ctx(context.Background(), cfg))
	if reflect.DeepEqual(zero, margin) {
		t.Fatalf("Figure 10 is identical at δ = 0 and δ = 0.05: %+v", zero)
	}
}

func TestFigure11Table(t *testing.T) {
	res := must(Figure11Ctx(context.Background(), fastTestbed))
	if len(res.Pairs) != fastTestbed.Flows {
		t.Fatalf("pairs = %d, want %d", len(res.Pairs), fastTestbed.Flows)
	}
	for _, s := range res.Schemes {
		if len(res.Mean[s]) != len(res.Pairs) {
			t.Fatalf("%s means missing", s)
		}
	}
	_ = res.Render()
}

func TestTable1SmallFiles(t *testing.T) {
	if testing.Short() {
		t.Skip("file-download emulation is slow")
	}
	cfg := fastTestbed
	res := must(Table1Ctx(context.Background(), cfg))
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
	tiny, short := res.Rows[0], res.Rows[1]
	if tiny.EMPoWERMean <= 0 || short.EMPoWERMean <= 0 {
		t.Error("download times not measured")
	}
	if tiny.EMPoWERMean >= short.EMPoWERMean {
		t.Errorf("tiny (%.2f s) should download faster than short (%.2f s)",
			tiny.EMPoWERMean, short.EMPoWERMean)
	}
	_ = res.Render()
}

func TestFigure12TCPPhases(t *testing.T) {
	res, err := Figure12Ctx(context.Background(), fastTestbed)
	if err != nil {
		t.Fatal(err)
	}
	if res.EMPoWERGoodput <= 0 {
		t.Error("EMPoWER TCP phase produced no goodput")
	}
	_ = res.Render()
}

func TestFigure13Comparison(t *testing.T) {
	res := must(Figure13Ctx(context.Background(), fastTestbed))
	if len(res.Pairs) != fastTestbed.Flows {
		t.Fatalf("pairs = %d, want %d", len(res.Pairs), fastTestbed.Flows)
	}
	_ = res.Render()
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	if len(xs) == 0 {
		return 0
	}
	return s / float64(len(xs))
}
