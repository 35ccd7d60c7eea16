// Package runner is the deterministic parallel replication runner behind
// every Monte-Carlo sweep in the repository.
//
// The discrete-event engine (internal/sim) is deliberately single-threaded
// within one run so that a seed fully determines a trajectory; the scaling
// axis for the paper's 1000-instance sweeps (§5) and repeated testbed
// emulations (§6) is therefore replication-level parallelism. Run executes
// N independent replications of a job on a worker pool bounded by
// GOMAXPROCS (overridable via Config.Workers) and collects the results
// into a slice indexed by replication number, so any aggregate computed
// from them in index order is bit-identical regardless of how many workers
// ran the sweep or how the scheduler interleaved them: determinism is
// preserved by construction, not by luck.
//
// Each replication receives a seed split from Config.BaseSeed with
// stats.SplitSeed, which depends only on (base, index). Jobs must draw all
// their randomness from that seed (or another pure function of the
// replication index) and must not mutate state shared across replications
// — the experiment packages uphold this by building every topology view
// and emulation per replication and cloning networks before estimation.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/stats"
)

// Config tunes a parallel sweep.
type Config struct {
	// Workers bounds the worker pool; values <= 0 use
	// runtime.GOMAXPROCS(0). The worker count never affects results,
	// only wall-clock time.
	Workers int
	// BaseSeed is split into per-replication seeds with stats.SplitSeed.
	BaseSeed int64
	// OnProgress, when non-nil, is called after each replication
	// completes with the number finished so far and the total. Calls
	// are serialized, but completions may arrive out of replication
	// order.
	OnProgress func(done, total int)
	// OnJobTime, when non-nil, receives each replication's wall-clock
	// duration. Calls are serialized with OnProgress under the same
	// mutex; sweeps feed the durations into phase breakdowns and
	// worker-utilization gauges.
	OnJobTime func(d time.Duration)
}

// PoolSize reports the effective worker count for a configured Workers
// value: the value itself when positive, otherwise runtime.GOMAXPROCS(0).
func PoolSize(workers int) int {
	if workers > 0 {
		return workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) workers(total int) int {
	w := PoolSize(c.Workers)
	if w > total {
		w = total
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Rep identifies one replication handed to a Job.
type Rep struct {
	// Index is the replication number in [0, N).
	Index int
	// Seed is stats.SplitSeed(Config.BaseSeed, Index): an independent
	// RNG stream for this replication.
	Seed int64
}

// RepAt returns replication index of a sweep whose Config.BaseSeed is
// base — the seed rule Run applies, for callers that re-run one
// replication outside a sweep.
func RepAt(base int64, index int) Rep {
	return Rep{Index: index, Seed: stats.SplitSeed(base, index)}
}

// Job computes one replication. The context is canceled when the sweep is
// aborted (caller cancellation, a failed replication, or a panic in
// another replication); long-running jobs may poll it to stop early.
type Job[T any] func(ctx context.Context, rep Rep) (T, error)

// panicRecord remembers the first (lowest-index) replication panic so Run
// can rethrow it on the caller's goroutine.
type panicRecord struct {
	index int
	value any
	stack []byte
}

// RepSet is a fixed-size bitset over replication indices [0, total) —
// the checkpoint currency of resumable sweeps. A sweep's completed set
// is a RepSet; RunFrom skips its members. The zero value is unusable;
// build with NewRepSet.
type RepSet struct {
	bits  []uint64
	total int
	count int
}

// NewRepSet returns an empty set over [0, total).
func NewRepSet(total int) *RepSet {
	if total < 0 {
		total = 0
	}
	return &RepSet{bits: make([]uint64, (total+63)/64), total: total}
}

// Add marks index i completed. Out-of-range indices are ignored.
func (s *RepSet) Add(i int) {
	if s == nil || i < 0 || i >= s.total {
		return
	}
	w, b := i/64, uint(i%64)
	if s.bits[w]&(1<<b) == 0 {
		s.bits[w] |= 1 << b
		s.count++
	}
}

// Has reports whether index i is in the set.
func (s *RepSet) Has(i int) bool {
	if s == nil || i < 0 || i >= s.total {
		return false
	}
	return s.bits[i/64]&(1<<uint(i%64)) != 0
}

// Count returns the number of completed indices.
func (s *RepSet) Count() int {
	if s == nil {
		return 0
	}
	return s.count
}

// Run executes total replications of job on the worker pool and returns
// their results indexed by replication number.
//
// If any job returns an error, the remaining replications are canceled
// and Run returns a nil slice and the error with the lowest replication
// index among those observed. If a job panics, Run cancels the sweep,
// waits for the workers to drain, and re-panics on the caller's goroutine
// with the replication index and original stack attached. If ctx is
// canceled first, Run returns ctx.Err().
func Run[T any](ctx context.Context, total int, cfg Config, job Job[T]) ([]T, error) {
	return RunFrom(ctx, total, nil, cfg, job)
}

// RunFrom is Run with a resume point: indices in done are never
// re-executed — their slots in the returned slice stay zero values for
// the caller to fill from its checkpoint — while every missing index
// runs with exactly the seed a fresh Run would have handed it
// (stats.SplitSeed(BaseSeed, index)). Collection stays index-ordered,
// so a sweep that completes across any number of RunFrom resumptions
// merges to output bit-identical to a single uninterrupted Run at any
// worker count. OnProgress counts from done.Count(), so (done, total)
// reflects sweep-level completion, not just this resumption's share.
//
// A nil done set makes RunFrom identical to Run.
func RunFrom[T any](ctx context.Context, total int, done *RepSet, cfg Config, job Job[T]) ([]T, error) {
	if total <= 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]T, total)
	errs := make([]error, total)
	var (
		mu       sync.Mutex
		finished = done.Count()
		panicked *panicRecord
		failed   bool
	)

	runOne := func(idx int) {
		defer func() {
			if r := recover(); r != nil {
				stack := debug.Stack()
				mu.Lock()
				if panicked == nil || idx < panicked.index {
					panicked = &panicRecord{index: idx, value: r, stack: stack}
				}
				mu.Unlock()
				cancel()
			}
		}()
		var start time.Time
		if cfg.OnJobTime != nil {
			start = time.Now()
		}
		out, err := job(runCtx, RepAt(cfg.BaseSeed, idx))
		if cfg.OnJobTime != nil {
			elapsed := time.Since(start)
			mu.Lock()
			cfg.OnJobTime(elapsed)
			mu.Unlock()
		}
		if err != nil {
			errs[idx] = err
			mu.Lock()
			failed = true
			mu.Unlock()
			cancel()
			return
		}
		results[idx] = out
		mu.Lock()
		finished++
		if cfg.OnProgress != nil {
			cfg.OnProgress(finished, total)
		}
		mu.Unlock()
	}

	next := make(chan int)
	var wg sync.WaitGroup
	workers := cfg.workers(total - done.Count())
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for idx := range next {
				runOne(idx)
			}
		}()
	}
feed:
	for i := 0; i < total; i++ {
		if done.Has(i) {
			continue
		}
		select {
		case next <- i:
		case <-runCtx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()

	if panicked != nil {
		panic(fmt.Sprintf("runner: replication %d panicked: %v\n%s",
			panicked.index, panicked.value, panicked.stack))
	}
	if failed {
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// Collect is Run for jobs that cannot fail: replications that have
// nothing to report encode it in T (typically a nil pointer) rather than
// an error, so a sweep never aborts halfway.
func Collect[T any](ctx context.Context, total int, cfg Config, job func(ctx context.Context, rep Rep) T) ([]T, error) {
	return Run(ctx, total, cfg, func(ctx context.Context, rep Rep) (T, error) {
		return job(ctx, rep), nil
	})
}
