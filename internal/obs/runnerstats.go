package obs

import (
	"sync"
	"time"
)

// RunnerStats folds the parallel runner's per-replication wall-clock
// timings (runner.Config.OnJobTime) into sweep-level throughput and
// worker-utilization metrics. The runner serializes OnJobTime calls, but
// a sweep may issue several runner invocations, so the stats carry their
// own mutex. A nil *RunnerStats is inert.
type RunnerStats struct {
	mu      sync.Mutex
	workers int
	jobs    int
	busy    time.Duration
	start   time.Time
	now     func() time.Time // test seam
}

// NewRunnerStats starts tracking a sweep executed on `workers` workers.
func NewRunnerStats(workers int) *RunnerStats {
	s := &RunnerStats{workers: workers, now: time.Now}
	s.start = s.now()
	return s
}

// JobTimeHook returns a runner.Config.OnJobTime callback that tracks a
// sweep on `workers` workers and refreshes the runner series in agg
// after every finished replication — the -metrics wiring of the sweep
// CLIs and of the fleet supervisor.
func JobTimeHook(agg *Aggregator, workers int) func(time.Duration) {
	rs := NewRunnerStats(workers)
	return func(d time.Duration) {
		rs.JobTime(d)
		agg.With(rs.Sample)
	}
}

// JobTime records one replication's wall-clock duration — wire it to
// runner.Config.OnJobTime.
func (s *RunnerStats) JobTime(d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.jobs++
	s.busy += d
	s.mu.Unlock()
}

// Sample registers the runner series into r: replications completed,
// summed replication wall-clock, completion rate, and worker utilization
// (busy worker-seconds over elapsed × workers). The values are wall-clock
// derived, so they belong in metric snapshots, never in result output.
func (s *RunnerStats) Sample(r *Registry) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	elapsed := s.now().Sub(s.start).Seconds()
	r.Counter("empower_runner_replications_total",
		"replications completed by the parallel runner").Set(float64(s.jobs))
	r.Counter("empower_runner_job_seconds_total",
		"summed per-replication wall-clock time").Set(s.busy.Seconds())
	rate := r.Gauge("empower_runner_replications_per_second",
		"replication completion rate since sweep start")
	util := r.Gauge("empower_runner_worker_utilization",
		"busy worker-seconds over elapsed time x workers (0..1)")
	if elapsed > 0 {
		rate.Set(float64(s.jobs) / elapsed)
		if s.workers > 0 {
			u := s.busy.Seconds() / (elapsed * float64(s.workers))
			if u > 1 {
				u = 1
			}
			util.Set(u)
		}
	}
}
