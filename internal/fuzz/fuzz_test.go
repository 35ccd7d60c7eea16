package fuzz

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/scenario"
	"repro/internal/stats"
)

// TestGenerateDeterministic pins the generator's seed contract: the
// same stream yields the same scenario, and every generated scenario
// passes the schema's own validation (a scenario that cannot bind is a
// generator bug, not a fuzzing finding).
func TestGenerateDeterministic(t *testing.T) {
	for i := 0; i < 5; i++ {
		r1 := stats.NewRand(stats.SplitSeed(1, seedGenerate+i))
		r2 := stats.NewRand(stats.SplitSeed(1, seedGenerate+i))
		s1 := Generate(r1, 12)
		s2 := Generate(r2, 12)
		if !reflect.DeepEqual(s1, s2) {
			t.Fatalf("run %d: same seed generated different scenarios", i)
		}
		if err := s1.Validate(); err != nil {
			t.Fatalf("run %d: generated scenario fails validation: %v", i, err)
		}
		if len(s1.Flows) == 0 && len(s1.Processes) == 0 {
			t.Fatalf("run %d: generated scenario has neither flows nor processes", i)
		}
	}
}

// TestCleanSession runs a short fuzzing session with no injected
// defect: every scenario must pass all oracles.
func TestCleanSession(t *testing.T) {
	if testing.Short() {
		t.Skip("each fuzz run emulates three full trajectories")
	}
	res, err := RunCtx(context.Background(), Config{Runs: 3, Seed: 1, OutDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failure != nil {
		t.Fatalf("clean session failed %s: %s (repro %s)",
			res.Failure.Check, res.Failure.Detail, res.Failure.Repro)
	}
	if res.Clean != 3 {
		t.Fatalf("clean count %d, want 3", res.Clean)
	}
}

// TestInjectCounterCaught seeds a deliberate relay-counter corruption
// and demands the invariant oracle catch it and write a reproducer that
// reloads through the strict schema — the checker self-test the
// acceptance criteria ask for.
func TestInjectCounterCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("each fuzz run emulates three full trajectories")
	}
	res, err := RunCtx(context.Background(), Config{Runs: 1, Seed: 1, OutDir: t.TempDir(), Inject: InjectCounter})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failure == nil {
		t.Fatal("injected counter corruption went uncaught")
	}
	if res.Failure.Check != "invariant:flow-conservation" {
		t.Fatalf("caught as %q, want invariant:flow-conservation (detail: %s)",
			res.Failure.Check, res.Failure.Detail)
	}
	if res.Failure.Repro == "" {
		t.Fatalf("no reproducer written: %s", res.Failure.Detail)
	}
	if _, err := scenario.Load(res.Failure.Repro); err != nil {
		t.Fatalf("reproducer does not reload through the strict schema: %v", err)
	}
}

// TestInjectSeedCaught perturbs the differential arm's seeds and
// demands the signature comparison between the invariant arm and the
// recorded arm flag the divergence.
func TestInjectSeedCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("each fuzz run emulates three full trajectories")
	}
	res, err := RunCtx(context.Background(), Config{Runs: 1, Seed: 1, OutDir: t.TempDir(), Inject: InjectSeed})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failure == nil {
		t.Fatal("injected seed divergence went uncaught")
	}
	if res.Failure.Check != "differential" {
		t.Fatalf("caught as %q, want differential (detail: %s)",
			res.Failure.Check, res.Failure.Detail)
	}
	if res.Failure.Repro == "" {
		t.Fatalf("no reproducer written: %s", res.Failure.Detail)
	}
	if _, err := scenario.Load(res.Failure.Repro); err != nil {
		t.Fatalf("reproducer does not reload through the strict schema: %v", err)
	}
}
