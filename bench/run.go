package main

import (
	"fmt"
	"strconv"
	"sync"
	"time"
)

// session is a workload made ready to time: binaries built, inputs
// written, the warm-up operation done and, for a fleet workload, a daemon
// answering.
type session struct {
	w   *workload
	cfg config
	in  inputs
	d   *daemon
}

// setUp does everything that precedes the first timed operation.
func setUp(w *workload, cfg config) (*session, error) {
	if err := buildBinaries(); err != nil {
		return nil, err
	}
	in, err := writeInputs(w)
	if err != nil {
		return nil, fmt.Errorf("%s: inputs: %w", w.name, err)
	}
	s := &session{w: w, cfg: cfg, in: in}
	if w.fleet() {
		if s.d, err = startDaemon(1); err != nil {
			return nil, err
		}
	}
	if err := s.warmUp(); err != nil {
		s.close()
		return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}
	return s, nil
}

func (s *session) close() error {
	if s.d == nil {
		return nil
	}
	return s.d.stop()
}

// setups is how often the timed pass sets a workload up: setup_s is the
// median, so that one slow `go build` or daemon start does not decide it.
const setups = 3

// prepare sets a workload up `setups` times (once under -quick), keeping
// the last session, and returns each set-up's duration in seconds.
func prepare(w *workload, cfg config) (*session, []float64, error) {
	n := setups
	if cfg.quick {
		n = 1
	}
	var times []float64
	for {
		start := time.Now()
		s, err := setUp(w, cfg)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if len(times) == n {
			return s, times, nil
		}
		if err := s.close(); err != nil {
			return nil, nil, err
		}
	}
}

// warmUp runs one tiny untimed operation and checks its output.
func (s *session) warmUp() error {
	w := s.w
	var res opResult
	if w.fleet() {
		res, _ = s.d.runSweep(s.in.warmBody, nil)
	} else {
		res = runCLI(w.bin, cliArgs(s.in.warmPath, w.warmArgs)...)
	}
	if res.err != nil {
		return res.err
	}
	return checkOutput(w, res.out, w.warmRuns, w.warmSchemes)
}

// op runs one operation.
func (s *session) op() opResult {
	if s.w.fleet() {
		res, _ := s.d.runSweep(s.in.specBody, nil)
		return res
	}
	return runCLI(s.w.bin, cliArgs(s.in.scenarioPath, s.w.args)...)
}

// timedPass is the raw outcome of a workload's timed loop.
type timedPass struct {
	ops []opResult
	// Fleet only: the daemon's CPU time over the loop.
	daemonCPU time.Duration
}

// timed runs the closed loop with tracing off: each client starts its
// next operation when its previous one returned, until both the minimum
// operation count and the measuring time are reached.
func (s *session) timed() (timedPass, error) {
	var tp timedPass
	minOps := s.cfg.opCount(s.w)
	clients := max(1, s.w.clients)

	var cpu0 time.Duration
	if s.d != nil {
		var err error
		if cpu0, err = procCPU(s.d.pid()); err != nil {
			return tp, err
		}
	}
	var mu sync.Mutex
	started := 0
	start := time.Now()
	next := func() bool {
		mu.Lock()
		defer mu.Unlock()
		if started >= minOps && time.Since(start).Seconds() >= s.cfg.seconds {
			return false
		}
		started++
		return true
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next() {
				res := s.op()
				mu.Lock()
				tp.ops = append(tp.ops, res)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if s.d != nil {
		cpu1, err := procCPU(s.d.pid())
		if err != nil {
			return tp, err
		}
		tp.daemonCPU = cpu1 - cpu0
	}
	return tp, nil
}

// reference runs empower-scenario on a fleet workload's scenario, runs,
// seed and schemes on one worker, like the daemon: the result the daemon
// must reproduce, and the rate fleet.overhead_frac compares against.
// -delta 0 is what a spec without "delta" means to the daemon; the CLI's
// own default is 0.05.
func (s *session) reference() opResult {
	w := s.w
	return runCLI(binScenario, cliArgs(s.in.scenarioPath, []string{
		"-runs", strconv.Itoa(w.runs), "-schemes", w.schemes, "-delta", "0",
		"-parallel", "1", "-json",
	})...)
}

// verify applies the output checks to the operations of one pass and
// returns one verdict per operation (nil = passed) plus printed notes. An
// operation fails on a process or HTTP error, a malformed output, an
// output that differs from the pass's first, a pin mismatch, or — fleet
// workloads — a result that differs from empower-scenario's (ref, run
// here when the caller has none).
func (s *session) verify(ops []opResult, ref *opResult) (verdicts []error, notes []string) {
	w := s.w
	verdicts = make([]error, len(ops))
	var good []int
	for i, op := range ops {
		verdicts[i] = op.err
		if op.err == nil {
			verdicts[i] = checkOutput(w, op.out, w.runs, w.schemes)
		}
		if verdicts[i] == nil {
			good = append(good, i)
		}
	}
	if len(good) == 0 {
		return verdicts, notes
	}
	first := ops[good[0]].out
	for _, i := range good[1:] {
		verdicts[i] = checkIdentical(first, ops[i].out)
	}
	// The remaining checks are on the shared output: a failure fails
	// every operation that produced it.
	var shared error
	g, err := loadGolden()
	if err != nil {
		shared = err
	} else if skipped, err := g.checkPin(w.name, first); err != nil {
		shared = err
	} else if skipped != "" {
		notes = append(notes, "sha256 pin skipped: "+skipped)
	}
	if shared == nil && w.fleet() {
		if ref == nil {
			r := s.reference()
			ref = &r
		}
		if shared = ref.err; shared == nil {
			if shared = sameChurnResult(first, ref.out); shared != nil {
				shared = fmt.Errorf("daemon against empower-scenario: %w", shared)
			}
		}
	}
	if shared != nil {
		for _, i := range good {
			if verdicts[i] == nil {
				verdicts[i] = shared
			}
		}
	}
	return verdicts, notes
}

// millis converts a duration to float milliseconds.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEndMetrics derives the end-to-end metrics from a timed pass.
// Timings come from the operations that ran to completion; a metric that
// was not measured is absent, never zero: op_ms_p95 where fewer than 200
// operations ran, every timing when all of them failed.
func endToEndMetrics(w *workload, tp timedPass, setupTimes []float64) measurements {
	var walls, cpus []float64
	for _, op := range tp.ops {
		if op.err == nil {
			walls = append(walls, millis(op.wall))
			cpus = append(cpus, millis(op.cpu))
		}
	}
	m := measurements{
		"setup_s": {Value: median(setupTimes), N: len(setupTimes), Samples: setupTimes},
	}
	if len(walls) == 0 {
		return m
	}
	p50 := median(walls)
	m["op_ms_p50"] = measurement{Value: p50, N: len(walls), Samples: walls}
	if supportsPercentile(len(walls), 95) {
		m["op_ms_p95"] = measurement{Value: percentile(walls, 95), N: len(walls)}
	}

	// A closed loop keeps one operation per client in flight, so it
	// completes that many operations' replications per operation time;
	// the median operation time keeps a stall (an fsync behind a
	// neighbour's writes) out of the rate.
	reps := float64(w.reps)
	inFlight := reps * float64(max(1, w.clients))
	perOpRate := make([]float64, len(walls))
	for i := range walls {
		perOpRate[i] = inFlight / (walls[i] / 1000)
	}
	rate := measurement{Value: inFlight / (p50 / 1000), N: len(walls), Samples: perOpRate}
	var cpuPerRep measurement
	if w.fleet() {
		cpuPerRep = measurement{Value: millis(tp.daemonCPU) / (reps * float64(len(walls))), N: len(walls)}
	} else {
		perOpCPU := make([]float64, len(walls))
		for i := range walls {
			perOpCPU[i] = cpus[i] / reps
		}
		cpuPerRep = measurement{Value: sum(cpus) / (reps * float64(len(cpus))), N: len(cpus), Samples: perOpCPU}
	}
	m["reps_per_s"] = rate
	m["cpu_ms_per_rep"] = cpuPerRep
	return m
}

// passResult is what one pass of one workload reports.
type passResult struct {
	Attempted int          `json:"attempted"`
	Failed    int          `json:"failed"`
	Metrics   measurements `json:"metrics"`
	Notes     []string     `json:"notes,omitempty"`
}

// countFailed counts the failed operations and adds one note per distinct
// failure: a check on the shared output fails every operation alike.
func countFailed(verdicts []error, notes []string) (int, []string) {
	failed := 0
	seen := map[string]int{}
	var order []string
	for _, v := range verdicts {
		if v == nil {
			continue
		}
		failed++
		if seen[v.Error()] == 0 {
			order = append(order, v.Error())
		}
		seen[v.Error()]++
	}
	for _, msg := range order {
		notes = append(notes, fmt.Sprintf("FAILED (%d of %d ops): %s", seen[msg], len(verdicts), msg))
	}
	return failed, notes
}

// runTimed is a workload's whole untraced run: set-up (several times),
// the timed loop, the output checks and the daemon's drain.
func runTimed(w *workload, cfg config) (passResult, error) {
	s, setupTimes, err := prepare(w, cfg)
	if err != nil {
		return passResult{}, err
	}
	tp, err := s.timed()
	if err != nil {
		s.close()
		return passResult{}, err
	}
	verdicts, notes := s.verify(tp.ops, nil)
	res := passResult{Attempted: len(tp.ops), Metrics: endToEndMetrics(w, tp, setupTimes)}
	res.Failed, res.Notes = countFailed(verdicts, notes)
	if err := s.close(); err != nil {
		res.Failed++
		res.Notes = append(res.Notes, err.Error())
	}
	res.Metrics.setUnits(endToEnd)
	return res, nil
}
