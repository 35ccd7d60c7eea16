package experiments

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
)

// TestFigure4ParallelDeterminism is the tentpole guarantee of the runner
// refactor: the same base seed produces bit-identical aggregates at
// parallel=1 and parallel=8, so the worker count is purely a wall-clock
// knob. reflect.DeepEqual on float64 slices is exact-bits comparison —
// any reordering of the sample collection would fail it.
func TestFigure4ParallelDeterminism(t *testing.T) {
	base := SimConfig{Runs: 8, Seed: 7, Core: core.Options{Slots: 1500}}

	serial := base
	serial.Parallel = 1
	wide := base
	wide.Parallel = 8

	r1 := must(Figure4Ctx(context.Background(), TopoResidential, serial))
	r8 := must(Figure4Ctx(context.Background(), TopoResidential, wide))
	if !reflect.DeepEqual(r1.Samples, r8.Samples) {
		t.Fatal("Figure4 samples differ between parallel=1 and parallel=8")
	}
	if r1.GainVsWiFi != r8.GainVsWiFi || r1.GainVsSP != r8.GainVsSP {
		t.Fatalf("Figure4 gains differ: (%v, %v) vs (%v, %v)",
			r1.GainVsWiFi, r1.GainVsSP, r8.GainVsWiFi, r8.GainVsSP)
	}
}

// TestFigure6ParallelDeterminism covers the optimality-ratio sweep. It
// also pins the centralized solver itself: optimal.Solve once iterated its
// constraint coefficient maps directly, which made every airtime sum
// follow Go's randomized map order and the ratios differ in the last bits
// from run to run — caught here by exact-bits comparison of two sweeps.
func TestFigure6ParallelDeterminism(t *testing.T) {
	base := SimConfig{Runs: 4, Seed: 11, Core: core.Options{Slots: 1500}}
	serial := base
	serial.Parallel = 1
	wide := base
	wide.Parallel = 8
	r1 := must(Figure6Ctx(context.Background(), TopoResidential, serial))
	r8 := must(Figure6Ctx(context.Background(), TopoResidential, wide))
	if !reflect.DeepEqual(r1.Ratios, r8.Ratios) {
		t.Fatalf("Figure6 ratios differ across worker counts:\n  parallel=1: %+v\n  parallel=8: %+v", r1.Ratios, r8.Ratios)
	}
}

// TestFigure7ParallelDeterminism covers the fairness-utility sweep on the
// batch-controller evaluation path: per-scheme utility ratio samples must
// be bit-identical at parallel=1 and parallel=8, pinning both the wave
// dispatch and the pooled evaluator state against scheduling effects.
func TestFigure7ParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("figure 7 evaluates every scheme per replication")
	}
	base := SimConfig{Runs: 6, Seed: 13, Core: core.Options{Slots: 1500}}
	serial := base
	serial.Parallel = 1
	wide := base
	wide.Parallel = 8
	r1 := must(Figure7Ctx(context.Background(), TopoResidential, serial))
	r8 := must(Figure7Ctx(context.Background(), TopoResidential, wide))
	if !reflect.DeepEqual(r1.Ratios, r8.Ratios) {
		t.Fatalf("Figure7 ratios differ across worker counts:\n  parallel=1: %+v\n  parallel=8: %+v", r1.Ratios, r8.Ratios)
	}
}

// TestConvergenceParallelDeterminism covers the early-stop sweep: the
// wave dispatch must accept exactly the candidates the serial loop
// accepted, in the same order, for any worker count.
func TestConvergenceParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("convergence sweeps are slow")
	}
	base := SimConfig{Runs: 3, Seed: 23, Core: core.Options{Slots: 3000}}
	serial := base
	serial.Parallel = 1
	wide := base
	wide.Parallel = 8
	r1 := must(ConvergenceCtx(context.Background(), TopoResidential, serial))
	r8 := must(ConvergenceCtx(context.Background(), TopoResidential, wide))
	if r1 != r8 {
		t.Fatalf("Convergence differs across worker counts:\n  parallel=1: %+v\n  parallel=8: %+v", r1, r8)
	}
}

// TestFigure10ParallelDeterminism covers the testbed side: pair draws,
// emulation seeds and ratio aggregation must be scheduling-independent.
func TestFigure10ParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("testbed emulations are slow")
	}
	base := TestbedConfig{Seed: 7, Duration: 12, Pairs: 3, Flows: 2, Repeats: 1, Delta: 0.05}
	serial := base
	serial.Parallel = 1
	wide := base
	wide.Parallel = 8
	r1 := must(Figure10Ctx(context.Background(), serial))
	r8 := must(Figure10Ctx(context.Background(), wide))
	if !reflect.DeepEqual(r1, r8) {
		t.Fatalf("Figure10 differs across worker counts:\n  parallel=1: %+v\n  parallel=8: %+v", r1, r8)
	}
}

// TestFigure4Cancellation proves a sweep aborts promptly when its
// context is canceled instead of running all replications.
func TestFigure4Cancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cfg := SimConfig{Runs: 500, Seed: 7, Core: core.Options{Slots: 1500}, Parallel: 2}
	done := 0
	cfg.Progress = func(d, total int) {
		done = d
		if d == 3 {
			cancel()
		}
	}
	if _, err := Figure4Ctx(ctx, TopoResidential, cfg); err == nil {
		t.Fatal("canceled sweep returned no error")
	}
	if done >= 500 {
		t.Fatalf("sweep ran all %d replications despite cancellation", done)
	}
}
