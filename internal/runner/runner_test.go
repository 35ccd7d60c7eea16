package runner

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/stats"
)

// burn draws a few values from the replication's RNG stream and folds
// them into one number — a stand-in for a Monte-Carlo replication whose
// result depends only on its seed.
func burn(seed int64) float64 {
	rng := stats.NewRand(seed)
	var x float64
	for i := 0; i < 100; i++ {
		x += rng.Float64()
	}
	return x
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	const total = 64
	job := func(_ context.Context, rep Rep) (float64, error) {
		return burn(rep.Seed) + float64(rep.Index), nil
	}
	var want []float64
	for _, workers := range []int{1, 2, 3, 8, 16} {
		got, err := Run(context.Background(), total, Config{Workers: workers, BaseSeed: 7}, job)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != total {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), total)
		}
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: result[%d] = %v, want %v (bit-identical)", workers, i, got[i], want[i])
			}
		}
	}
}

func TestSplitSeedsAreStableAndDistinct(t *testing.T) {
	seen := map[int64]int{}
	for i := 0; i < 10_000; i++ {
		s := stats.SplitSeed(42, i)
		if j, dup := seen[s]; dup {
			t.Fatalf("SplitSeed(42, %d) == SplitSeed(42, %d)", i, j)
		}
		seen[s] = i
	}
	if stats.SplitSeed(1, 5) != stats.SplitSeed(1, 5) {
		t.Fatal("SplitSeed is not a pure function")
	}
	if stats.SplitSeed(1, 5) == stats.SplitSeed(2, 5) {
		t.Fatal("SplitSeed ignores the base seed")
	}
}

func TestRunCancellationStopsDispatch(t *testing.T) {
	const total = 10_000
	ctx, cancel := context.WithCancel(context.Background())
	var executed atomic.Int64
	_, err := Run(ctx, total, Config{Workers: 2}, func(ctx context.Context, rep Rep) (int, error) {
		if executed.Add(1) == 5 {
			cancel()
		}
		return rep.Index, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := executed.Load(); n >= total {
		t.Fatalf("all %d replications ran despite mid-sweep cancellation", n)
	}
}

func TestRunErrorFailsFastWithLowestIndex(t *testing.T) {
	boom := errors.New("boom")
	var executed atomic.Int64
	res, err := Run(context.Background(), 10_000, Config{Workers: 4},
		func(_ context.Context, rep Rep) (int, error) {
			executed.Add(1)
			if rep.Index == 3 || rep.Index == 7 {
				return 0, boom
			}
			return rep.Index, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if res != nil {
		t.Fatal("results should be nil on error")
	}
	if n := executed.Load(); n >= 10_000 {
		t.Fatalf("all %d replications ran despite a failing job", n)
	}
}

func TestRunPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run swallowed the replication panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "replication 3 panicked: kaboom") {
			t.Fatalf("unexpected panic payload: %v", r)
		}
	}()
	_, _ = Run(context.Background(), 8, Config{Workers: 4},
		func(_ context.Context, rep Rep) (int, error) {
			if rep.Index == 3 {
				panic("kaboom")
			}
			return rep.Index, nil
		})
}

func TestRunProgressReachesTotal(t *testing.T) {
	const total = 50
	var calls atomic.Int64
	var maxDone atomic.Int64
	cfg := Config{Workers: 4, OnProgress: func(done, tot int) {
		calls.Add(1)
		if tot != total {
			t.Errorf("progress total = %d, want %d", tot, total)
		}
		if int64(done) > maxDone.Load() {
			maxDone.Store(int64(done))
		}
	}}
	if _, err := Run(context.Background(), total, cfg, func(_ context.Context, rep Rep) (int, error) {
		return rep.Index, nil
	}); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != total || maxDone.Load() != total {
		t.Fatalf("progress: %d calls, max done %d, want %d of each", calls.Load(), maxDone.Load(), total)
	}
}

func TestRunEmptyAndCanceledUpfront(t *testing.T) {
	res, err := Run(context.Background(), 0, Config{}, func(_ context.Context, rep Rep) (int, error) {
		t.Error("job ran for an empty sweep")
		return 0, nil
	})
	if res != nil || err != nil {
		t.Fatalf("empty sweep: (%v, %v), want (nil, nil)", res, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, 5, Config{}, func(_ context.Context, rep Rep) (int, error) {
		t.Error("job ran under a pre-canceled context")
		return 0, nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled: err = %v", err)
	}
}

// TestRunFromMergesBitIdentical is the resume contract behind the fleet
// daemon: a sweep executed as a plain Run and a sweep executed in two
// RunFrom halves (the first half's results carried over, as a daemon
// restores them from its WAL) must merge to bit-identical output at any
// worker count — and the second half must never re-execute a completed
// index.
func TestRunFromMergesBitIdentical(t *testing.T) {
	const total = 97
	job := func(_ context.Context, rep Rep) (float64, error) {
		return burn(rep.Seed) + float64(rep.Index), nil
	}
	want, err := Run(context.Background(), total, Config{Workers: 5, BaseSeed: 11}, job)
	if err != nil {
		t.Fatal(err)
	}
	// "Checkpoint" an arbitrary completed set — every third index plus a
	// dense prefix, mimicking a sweep killed mid-flight.
	done := NewRepSet(total)
	for i := 0; i < total; i++ {
		if i < 20 || i%3 == 0 {
			done.Add(i)
		}
	}
	for _, workers := range []int{1, 4, 16} {
		var reran atomic.Int64
		got, err := RunFrom(context.Background(), total, done,
			Config{Workers: workers, BaseSeed: 11},
			func(ctx context.Context, rep Rep) (float64, error) {
				if done.Has(rep.Index) {
					t.Errorf("completed replication %d re-executed", rep.Index)
				}
				if rep.Seed != stats.SplitSeed(11, rep.Index) {
					t.Errorf("replication %d seed %d, want SplitSeed(11, %d)", rep.Index, rep.Seed, rep.Index)
				}
				reran.Add(1)
				return job(ctx, rep)
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if int(reran.Load()) != total-done.Count() {
			t.Fatalf("workers=%d: %d replications ran, want %d", workers, reran.Load(), total-done.Count())
		}
		// Fill the skipped slots from the checkpoint, as the daemon does.
		for i := range got {
			if done.Has(i) {
				got[i] = want[i]
			}
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: merged result[%d] = %v, want %v (bit-identical)", workers, i, got[i], want[i])
			}
		}
	}
}

// TestRunFromProgressCountsFromCheckpoint pins the (done, total) progress
// convention: a resumed sweep reports sweep-level completion, starting
// above the checkpointed count, ending at total.
func TestRunFromProgressCountsFromCheckpoint(t *testing.T) {
	const total = 10
	done := NewRepSet(total)
	for _, i := range []int{0, 2, 4} {
		done.Add(i)
	}
	var first, last atomic.Int64
	first.Store(-1)
	_, err := RunFrom(context.Background(), total, done,
		Config{Workers: 2, OnProgress: func(d, tot int) {
			if tot != total {
				t.Errorf("progress total = %d, want %d", tot, total)
			}
			if first.Load() == -1 {
				first.Store(int64(d))
			}
			last.Store(int64(d))
		}},
		func(_ context.Context, rep Rep) (int, error) { return rep.Index, nil })
	if err != nil {
		t.Fatal(err)
	}
	if first.Load() != int64(done.Count())+1 {
		t.Fatalf("first progress call reported %d, want %d", first.Load(), done.Count()+1)
	}
	if last.Load() != total {
		t.Fatalf("last progress call reported %d, want %d", last.Load(), total)
	}
}

// TestRepSet covers the bitset basics plus the nil-receiver convention
// RunFrom relies on.
func TestRepSet(t *testing.T) {
	s := NewRepSet(130)
	if s.Count() != 0 || s.total != 130 || s.Has(0) {
		t.Fatal("fresh set not empty")
	}
	s.Add(0)
	s.Add(64)
	s.Add(129)
	s.Add(129) // idempotent
	s.Add(-1)  // ignored
	s.Add(130) // ignored
	if s.Count() != 3 {
		t.Fatalf("count = %d, want 3", s.Count())
	}
	for _, i := range []int{0, 64, 129} {
		if !s.Has(i) {
			t.Errorf("Has(%d) = false after Add", i)
		}
	}
	if s.Has(1) || s.Has(-1) || s.Has(130) {
		t.Error("Has reports indices never added")
	}
	var nilSet *RepSet
	if nilSet.Count() != 0 || nilSet.Has(3) {
		t.Error("nil RepSet must behave as empty")
	}
	nilSet.Add(1) // must not panic
}

func TestCollectIndexesResults(t *testing.T) {
	got, err := Collect(context.Background(), 9, Config{Workers: 3},
		func(_ context.Context, rep Rep) int { return rep.Index * rep.Index })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("got[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestPoolSize(t *testing.T) {
	if PoolSize(3) != 3 {
		t.Error("explicit worker count not honored")
	}
	if PoolSize(0) < 1 || PoolSize(-1) < 1 {
		t.Error("default pool size must be at least 1")
	}
}
