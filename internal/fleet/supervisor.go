package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/runner"
)

// SupervisorConfig tunes the worker pool and its failure policy.
type SupervisorConfig struct {
	// Workers bounds each sweep's replication pool (<= 0: GOMAXPROCS).
	// Determinism makes this a pure throughput knob: results are
	// byte-identical at any worker count.
	Workers int
	// MaxRetries is how many times a failed/timed-out/panicked
	// replication is retried before the whole sweep fails (default 2,
	// so 3 attempts; a pure function of the seed will fail the same way
	// every time unless the failure was environmental — timeouts,
	// memory pressure — which is exactly what retries are for).
	MaxRetries int
	// RepTimeout bounds one replication attempt's wall clock (0: no
	// timeout). The emulation cannot be preempted mid-event-loop, so a
	// timed-out attempt is abandoned to finish in the background while
	// the supervisor moves on; its late result is discarded.
	RepTimeout time.Duration
	// BackoffBase/BackoffMax shape the exponential retry backoff:
	// base·2^(attempt-1) capped at max, with ±50% uniform jitter so
	// co-failing replications don't retry in lockstep (defaults 100ms /
	// 5s). Backoff timing never touches result bytes — replication
	// outputs are pure functions of (spec, seed, index).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// RepDelay injects a fixed sleep before every replication attempt —
	// a fault-injection/testing aid (it widens the window in which a
	// crash catches a sweep mid-flight) in the spirit of the scenario
	// fuzzer's -inject modes. Zero in production.
	RepDelay time.Duration
	// Log receives supervision events (retries, timeouts, sweep
	// transitions); nil silences them.
	Log *log.Logger
}

func (c SupervisorConfig) maxRetries() int {
	if c.MaxRetries < 0 {
		return 0
	}
	if c.MaxRetries == 0 {
		return 2
	}
	return c.MaxRetries
}

func (c SupervisorConfig) backoffBase() time.Duration {
	if c.BackoffBase <= 0 {
		return 100 * time.Millisecond
	}
	return c.BackoffBase
}

func (c SupervisorConfig) backoffMax() time.Duration {
	if c.BackoffMax <= 0 {
		return 5 * time.Second
	}
	return c.BackoffMax
}

// backoff returns the sleep before retry `attempt` (1-based):
// exponential with ±50% jitter, capped.
func (c SupervisorConfig) backoff(attempt int) time.Duration {
	d := c.backoffBase() << uint(attempt-1)
	if max := c.backoffMax(); d > max || d <= 0 {
		d = max
	}
	// Uniform in [d/2, 3d/2): full-jitter's tamer cousin — enough to
	// decorrelate retry storms, small enough to keep tests brisk.
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// Supervisor executes queued sweeps one at a time on a replication
// worker pool, checkpointing every completion through the store and
// surviving per-replication faults: a poisoned replication is retried
// with backoff and, if it keeps failing, fails its sweep — never the
// daemon.
type Supervisor struct {
	st  *Store
	cfg SupervisorConfig
	// agg is the daemon-level aggregator (/metrics): queue depth,
	// reps/sec, retry/timeout/panic/restart counters.
	agg *obs.Aggregator

	mu       sync.Mutex
	resumed  int // sweeps resumed from a previous process's checkpoint
	finished int

	// wrapJob, when non-nil, wraps every sweep's replication job — the
	// test seam fault-injection uses to make replications fail, hang,
	// or panic on demand without touching the experiment code.
	wrapJob func(runner.Job[*experiments.ChurnRepOut]) runner.Job[*experiments.ChurnRepOut]
}

// NewSupervisor wires a supervisor over a store; agg receives the
// daemon-level series (it may be shared with the gateway's /metrics).
func NewSupervisor(st *Store, cfg SupervisorConfig, agg *obs.Aggregator) *Supervisor {
	return &Supervisor{st: st, cfg: cfg, agg: agg}
}

func (s *Supervisor) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log.Printf(format, args...)
	}
}

// Run executes sweeps until ctx is done, then drains: the in-flight
// replications of the current sweep finish and checkpoint, nothing new
// starts, and Run returns. A partially executed sweep stays resumable —
// its next run (this process or the next) starts from the completed set.
func (s *Supervisor) Run(ctx context.Context) {
	for {
		s.sampleDaemon()
		sw, ok := s.st.NextPending(ctx)
		if !ok {
			return
		}
		s.runSweep(ctx, sw)
	}
}

// runSweep executes one sweep from its checkpoint to a terminal state,
// or to a drain point.
func (s *Supervisor) runSweep(ctx context.Context, sw *Sweep) {
	done := sw.doneSnapshot()
	if done.Count() > 0 {
		s.mu.Lock()
		s.resumed++
		s.mu.Unlock()
		s.logf("fleet: resuming sweep %s from %d/%d completed replications",
			sw.ID, done.Count(), sw.Spec.Total)
	} else {
		s.logf("fleet: starting sweep %s (%d replications)", sw.ID, sw.Spec.Total)
	}

	sweepCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	sw.mu.Lock()
	sw.cancel = cancel
	sw.mu.Unlock()

	ccfg := sw.Spec.Churn
	ccfg.Parallel = s.cfg.Workers
	ccfg.Metrics = sw.Agg

	job := experiments.ChurnRepJob(sw.Spec.Scenario, ccfg)
	if s.wrapJob != nil {
		job = s.wrapJob(job)
	}
	supervised := func(repCtx context.Context, rep runner.Rep) (*experiments.ChurnRepOut, error) {
		out, err := s.superviseRep(repCtx, sw, job, rep)
		if err != nil {
			return nil, err
		}
		raw, err := json.Marshal(out)
		if err != nil {
			return nil, fmt.Errorf("replication %d: encode output: %w", rep.Index, err)
		}
		// Durability before acknowledgement: the rep record hits the
		// fsync'd WAL before the runner counts the replication done.
		if err := s.st.CompleteRep(sw, rep.Index, raw); err != nil {
			return nil, fmt.Errorf("replication %d: checkpoint: %w", rep.Index, err)
		}
		s.sampleDaemon()
		return out, nil
	}

	_, err := runner.RunFrom(sweepCtx, sw.Spec.Total, done,
		runner.Config{Workers: s.cfg.Workers, BaseSeed: ccfg.Seed,
			OnJobTime: obs.JobTimeHook(sw.Agg, runner.PoolSize(s.cfg.Workers))},
		supervised)

	s.mu.Lock()
	s.finished++
	s.mu.Unlock()

	switch {
	case err == nil:
		if ferr := s.st.Finish(sw, StateDone, ""); ferr != nil {
			s.logf("fleet: sweep %s: recording completion: %v", sw.ID, ferr)
		}
		s.logf("fleet: sweep %s done (%d replications)", sw.ID, sw.Spec.Total)
	case errors.Is(context.Cause(sweepCtx), errSweepCancelled):
		s.st.Finish(sw, StateCancelled, "cancelled while running")
		s.logf("fleet: sweep %s cancelled", sw.ID)
	case ctx.Err() != nil:
		// Drain: every checkpointed replication is durable; if the last
		// in-flight ones actually completed the set, close the sweep out
		// now rather than leaving a fully-computed sweep "pending".
		if sw.doneSnapshot().Count() == sw.Spec.Total {
			s.st.Finish(sw, StateDone, "")
			s.logf("fleet: sweep %s completed during drain", sw.ID)
			return
		}
		s.st.Finish(sw, StatePending, "")
		s.logf("fleet: drain: sweep %s checkpointed at %d/%d replications",
			sw.ID, sw.doneSnapshot().Count(), sw.Spec.Total)
	default:
		s.st.Finish(sw, StateFailed, err.Error())
		s.logf("fleet: sweep %s failed: %v", sw.ID, err)
	}
	s.sampleDaemon()
}

// superviseRep runs one replication with panic isolation, a per-attempt
// timeout, and bounded retries with exponential backoff + jitter.
func (s *Supervisor) superviseRep(ctx context.Context, sw *Sweep, job runner.Job[*experiments.ChurnRepOut], rep runner.Rep) (*experiments.ChurnRepOut, error) {
	maxRetries := s.cfg.maxRetries()
	var lastErr error
	for attempt := 0; attempt <= maxRetries; attempt++ {
		if attempt > 0 {
			sw.mu.Lock()
			sw.retries++
			sw.mu.Unlock()
			s.bumpCounter("fleet_rep_retries_total", "replication retry attempts")
			delay := s.cfg.backoff(attempt)
			s.logf("fleet: sweep %s replication %d: attempt %d/%d after %v (last error: %v)",
				sw.ID, rep.Index, attempt+1, maxRetries+1, delay.Round(time.Millisecond), lastErr)
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		out, err := s.attemptRep(ctx, sw, job, rep)
		if err == nil {
			return out, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return nil, fmt.Errorf("replication %d failed after %d attempts: %w",
		rep.Index, maxRetries+1, lastErr)
}

// attemptRep is a single supervised attempt: the job runs on its own
// goroutine so a panic is contained and a timeout can abandon it.
func (s *Supervisor) attemptRep(ctx context.Context, sw *Sweep, job runner.Job[*experiments.ChurnRepOut], rep runner.Rep) (*experiments.ChurnRepOut, error) {
	type result struct {
		out *experiments.ChurnRepOut
		err error
	}
	// Buffered so an abandoned (timed-out) attempt can still deposit
	// its late result and exit instead of leaking a blocked goroutine.
	ch := make(chan result, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				sw.mu.Lock()
				sw.panics++
				sw.mu.Unlock()
				s.bumpCounter("fleet_rep_panics_total", "replication panics isolated by the supervisor")
				ch <- result{nil, fmt.Errorf("replication %d panicked: %v\n%s", rep.Index, r, debug.Stack())}
			}
		}()
		if s.cfg.RepDelay > 0 {
			time.Sleep(s.cfg.RepDelay)
		}
		out, err := job(ctx, rep)
		ch <- result{out, err}
	}()

	if s.cfg.RepTimeout <= 0 {
		r := <-ch
		return r.out, r.err
	}
	timer := time.NewTimer(s.cfg.RepTimeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.out, r.err
	case <-timer.C:
		sw.mu.Lock()
		sw.timeouts++
		sw.mu.Unlock()
		s.bumpCounter("fleet_rep_timeouts_total", "replication attempts abandoned on timeout")
		return nil, fmt.Errorf("replication %d timed out after %v", rep.Index, s.cfg.RepTimeout)
	}
}

// bumpCounter increments a daemon-level counter series.
func (s *Supervisor) bumpCounter(name, help string) {
	if s.agg == nil {
		return
	}
	s.agg.With(func(r *obs.Registry) {
		r.Counter(name, help).Inc()
	})
}

// sampleDaemon refreshes the daemon-level gauges: queue depth, sweep
// states, WAL size. Counters for retries/timeouts/panics are bumped at
// their sites; everything here is a snapshot.
func (s *Supervisor) sampleDaemon() {
	if s.agg == nil {
		return
	}
	byState, completed := s.st.Tally()
	records, bytes := s.st.WALStats()
	s.mu.Lock()
	resumed, finished := s.resumed, s.finished
	s.mu.Unlock()
	s.agg.With(func(r *obs.Registry) {
		r.Gauge("fleet_queue_depth", "sweeps queued and not yet running").
			Set(float64(s.st.QueueDepth()))
		for i, state := range sweepStates {
			r.Gauge("fleet_sweeps", "sweeps by lifecycle state",
				obs.Label{Key: "state", Value: string(state)}).
				Set(float64(byState[i]))
		}
		r.Counter("fleet_reps_completed_total", "replications completed and checkpointed").
			Set(float64(completed))
		r.Counter("fleet_sweeps_resumed_total", "sweeps resumed from a prior process's checkpoint").
			Set(float64(resumed))
		r.Counter("fleet_sweep_runs_total", "sweep executions finished (any outcome)").
			Set(float64(finished))
		r.Gauge("fleet_wal_records", "durable WAL records").Set(float64(records))
		r.Gauge("fleet_wal_bytes", "durable WAL bytes").Set(float64(bytes))
	})
}
