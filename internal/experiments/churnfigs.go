package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// ChurnConfig tunes the dynamic-network (churn) experiment family: the
// workload class the paper gestures at in §6.1 — failover under link
// failures, flapping links, node churn and flow arrival processes — run
// as Monte-Carlo sweeps over scenario replications on the deterministic
// parallel runner.
type ChurnConfig struct {
	Seed int64
	// Runs is the number of scenario replications per scheme (default
	// 20). Generated topologies get a fresh channel realization per run;
	// each run uses the same realization and the same expanded event
	// timeline across all schemes, so scheme differences are paired.
	Runs int
	// Schemes selects the evaluated schemes (default: all eight).
	Schemes []core.Scheme
	// Delta is the congestion-control constraint margin δ.
	Delta float64
	// Bin is the failover-measurement bin width in seconds (default 0.2
	// — the resolution of the paper's "hundreds of milliseconds" claim).
	Bin float64
	// Frac is the goodput-recovery fraction defining failover (default
	// 0.8 of the episode's own steady level).
	Frac float64
	// ManageRoutes attaches the §3.2 route manager (with fast failover)
	// to the flows of CC schemes, letting them recompute routes — under
	// their own scheme's selection procedure — when a route dies or the
	// network's capacity shifts. The w/o-CC baselines never get one: the
	// paper's baselines have no EMPoWER machinery.
	ManageRoutes bool
	// Parallel bounds the replication worker pool (<= 0: GOMAXPROCS).
	// The worker count never changes results, only wall-clock time.
	Parallel int
	// Shards is read by nothing: every replication runs its interference
	// domains in order, so its values 0 and 1 (the only ones set) run the
	// same sequential engine. It stays only because the benchmark harness
	// still sets it.
	Shards int
	// Invariants attaches the runtime invariant checker to every
	// replication and surfaces violation counts and per-reason drop
	// totals in the result rows. Off, the output stays byte-identical
	// to a build without the checker.
	Invariants bool
	// Progress, when non-nil, receives (done, total) after every
	// finished replication (serialized, completion order).
	Progress func(done, total int)
	// JobTime, when non-nil, receives each replication's wall-clock
	// duration (serialized with Progress).
	JobTime func(d time.Duration)
	// Metrics, when non-nil, aggregates every replication's sampled
	// registry — the -metrics plumbing of the sweep CLIs.
	Metrics *obs.Aggregator
	// Phases, when non-nil, accumulates the bind/run/collect wall-clock
	// breakdown across replications.
	Phases *obs.Phases
}

func (c ChurnConfig) runs() int {
	if c.Runs <= 0 {
		return 20
	}
	return c.Runs
}

func (c ChurnConfig) schemes() []core.Scheme {
	if len(c.Schemes) == 0 {
		return core.AllSchemes()
	}
	return c.Schemes
}

func (c ChurnConfig) bin() float64 {
	if c.Bin <= 0 {
		return 0.2
	}
	return c.Bin
}

func (c ChurnConfig) frac() float64 {
	if c.Frac <= 0 {
		return 0.8
	}
	return c.Frac
}

// maxRuns bounds Runs so that the flat replication count runs × schemes
// (at most eight) cannot overflow an int.
const maxRuns = 1_000_000

// CheckRanges names the first range-checked knob of c that is outside
// its range, with the reason, or returns two empty strings. The sweep
// spec's field and the CLI flag that set a knob share its name, so the
// fleet's 400 bodies and the CLIs' usage errors both come from here. A
// zero knob is always in range.
func (c ChurnConfig) CheckRanges() (knob, reason string) {
	switch {
	case c.Runs < 0:
		return "runs", fmt.Sprintf("must be >= 0 (0 = default 20), got %d", c.Runs)
	case c.Runs > maxRuns:
		return "runs", fmt.Sprintf("must be <= %d, got %d", maxRuns, c.Runs)
	case !(c.Delta >= 0 && c.Delta < 1):
		return "delta", fmt.Sprintf("must be in [0, 1), got %g", c.Delta)
	case !(c.Bin >= 0):
		return "bin", fmt.Sprintf("must be >= 0, got %g", c.Bin)
	case !(c.Frac >= 0 && c.Frac <= 1):
		return "frac", fmt.Sprintf("must be in [0, 1], got %g", c.Frac)
	}
	return "", ""
}

// ParseSchemes maps a comma-separated list of paper scheme names
// ("EMPoWER,SP-w/o-CC", or "all") to scheme values.
func ParseSchemes(csv string) ([]core.Scheme, error) {
	if csv == "" || csv == "all" {
		return core.AllSchemes(), nil
	}
	var out []core.Scheme
	for _, name := range strings.Split(csv, ",") {
		s, err := core.ParseScheme(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// ChurnRow aggregates one scheme's behaviour across scenario
// replications.
type ChurnRow struct {
	Scheme string `json:"scheme"`
	// Latencies are the finite failover latencies in seconds, one per
	// recovered failure episode, in (run, episode) order.
	Latencies []float64 `json:"latencies"`
	// Censored counts episodes that never failed over — the flow stayed
	// degraded until the link itself returned (§6.1's contrast case).
	Censored int `json:"censored"`
	// MedianLatency is the median over all episodes with censored ones
	// counted as infinite; -1 encodes an infinite or undefined median.
	MedianLatency float64 `json:"median_latency"`
	// MeanGoodput is the aggregate delivered goodput (Mbps) averaged
	// over runs; DegradedGoodput the mean goodput of affected flows
	// inside failure windows.
	MeanGoodput     float64 `json:"mean_goodput"`
	DegradedGoodput float64 `json:"degraded_goodput"`
	// Reroutes counts route-manager swaps (ManageRoutes only);
	// SkippedFlows counts arrivals that found no route.
	Reroutes     int `json:"reroutes"`
	SkippedFlows int `json:"skipped_flows"`
	Episodes     int `json:"episodes"`
	// Drops totals the per-reason MAC drop counters across runs and
	// Violations counts invariant breaches; both only with
	// ChurnConfig.Invariants (absent otherwise, keeping default output
	// byte-stable).
	Drops      map[string]int `json:"drops,omitempty"`
	Violations int            `json:"violations,omitempty"`
	// ViolationDetails carries each violation line together with the
	// owning domain's flight-recorder tail (Invariants only; absent
	// when no violation fired).
	ViolationDetails []string `json:"violation_details,omitempty"`
}

// ChurnResult is the failover experiment outcome.
type ChurnResult struct {
	Scenario string     `json:"scenario"`
	Runs     int        `json:"runs"`
	Rows     []ChurnRow `json:"rows"`
}

// Violation is one invariant breach of a sweep run with
// ChurnConfig.Invariants: the scheme it fired under and the violation
// line with the owning domain's flight-recorder tail.
type Violation struct {
	Scheme, Detail string
}

// Violations lists the sweep's invariant breaches in row order.
func (r ChurnResult) Violations() []Violation {
	var out []Violation
	for _, row := range r.Rows {
		for _, detail := range row.ViolationDetails {
			out = append(out, Violation{Scheme: row.Scheme, Detail: detail})
		}
	}
	return out
}

// ChurnRepOut is one (run, scheme) replication outcome — the unit of
// work a churn failover sweep checkpoints. It is deliberately a plain
// JSON-serializable record with no omitempty tags: a round trip through
// encoding/json is lossless in every aspect MergeChurnReps folds on
// (float64 encodes with shortest-roundtrip precision; a nil Drops map
// stays nil through null), so a sweep resumed from persisted rep
// records merges to output byte-identical to an uninterrupted run.
type ChurnRepOut struct {
	Latencies        []float64      `json:"latencies"`
	Censored         int            `json:"censored"`
	Goodput          float64        `json:"goodput"`
	Degraded         []float64      `json:"degraded"`
	Reroutes         int            `json:"reroutes"`
	Skipped          int            `json:"skipped"`
	Drops            map[string]int `json:"drops"`
	Violations       int            `json:"violations"`
	ViolationDetails []string       `json:"violation_details"`
}

// BindReplication is the one place a §6 replication is bound: it builds
// the scenario's topology under the scheme's view, the packet emulation
// under the scheme's policy (congestion control on or off, capacity
// estimation, cfg's δ, a flight recorder of `recorder` records
// per domain, 0 for none) and binds the scenario to it with the scheme's
// route selection, the route manager on CC schemes when cfg.ManageRoutes,
// and the invariant checker when cfg.Invariants. The seeds are explicit
// because callers own their seed domains: the churn sweep derives them
// from (Seed, run), the fuzzer from its own. Given the same arguments, a
// replication follows the same trajectory with or without a recorder.
func BindReplication(sc *scenario.Scenario, scheme core.Scheme, cfg ChurnConfig, recorder int, topoSeed, timelineSeed, emuSeed int64) (*scenario.Runtime, error) {
	if sc.Topology == nil {
		return nil, fmt.Errorf("experiments: scenario %q has no topology; churn sweeps need self-contained scenarios", sc.Name)
	}
	net, err := sc.Topology.BuildView(topoSeed, scheme.View())
	if err != nil {
		return nil, err
	}
	em := node.NewEmulation(net, node.Config{
		Delta: cfg.Delta, DisableCC: !scheme.CC(), Estimation: true, Recorder: recorder,
	}, emuSeed)
	opts := scenario.Options{
		Routes: func(n *graph.Network, src, dst graph.NodeID) []graph.Path {
			return core.RoutesFor(scheme, n, src, dst)
		},
		ManageRoutes: cfg.ManageRoutes && scheme.CC(),
		Invariants:   cfg.Invariants,
	}
	return scenario.Bind(em, sc, timelineSeed, opts)
}

// bindChurn binds one (run, scheme) replication of the churn sweep —
// shared by the sweep replications and the trace re-runs, so both see the
// identical trajectory. The topology and timeline seed domains are
// offset away from the runner's per-replication SplitSeed(Seed, index)
// domain: replication index `run` must not share an RNG stream with run
// `run`'s channel realization, or replications would be statistically
// correlated.
func bindChurn(sc *scenario.Scenario, scheme core.Scheme, cfg ChurnConfig, run int, emSeed int64, recorder int) (*scenario.Runtime, error) {
	return BindReplication(sc, scheme, cfg, recorder,
		stats.SplitSeed(cfg.Seed, 2_000_000+run), stats.SplitSeed(cfg.Seed, 1_000_000+run), emSeed)
}

// churnReplication executes one scenario replication under one scheme.
// All seeds are pure functions of (base seed, run, scheme position), so
// sweeps are bit-identical at any worker count; the topology realization
// and the expanded event timeline depend only on the run, so schemes are
// compared on paired instances.
func churnReplication(sc *scenario.Scenario, scheme core.Scheme, cfg ChurnConfig, run int, emSeed int64) (*ChurnRepOut, error) {
	// With the checker on, each domain keeps the flight-recorder tail a
	// violation report prints; off, nothing records.
	recorder := 0
	if cfg.Invariants {
		recorder = violationTail
	}
	bindStart := time.Now()
	rt, err := bindChurn(sc, scheme, cfg, run, emSeed, recorder)
	if err != nil {
		return nil, err
	}
	cfg.Phases.AddBind(time.Since(bindStart))
	runStart := time.Now()
	rt.Run()
	cfg.Phases.AddRun(time.Since(runStart))
	collectStart := time.Now()
	lat, censored := rt.FailoverLatencies(cfg.bin(), cfg.frac())
	out := &ChurnRepOut{
		Latencies: lat,
		Censored:  censored,
		Goodput:   rt.AggregateGoodput(),
		Degraded:  rt.DegradedGoodput(),
		Reroutes:  rt.Em.Reroutes(),
		Skipped:   len(rt.SkippedFlows),
	}
	if cfg.Invariants {
		out.Drops = rt.Em.DropsByReason()
		vs := rt.Violations()
		out.Violations = len(vs)
		for _, v := range vs {
			out.ViolationDetails = append(out.ViolationDetails,
				rt.ViolationReport(v, violationTail))
		}
	}
	if cfg.Metrics != nil {
		reg := obs.NewRegistry()
		rt.SampleMetrics(reg)
		cfg.Metrics.Add(reg)
	}
	cfg.Phases.AddCollect(time.Since(collectStart))
	return out, nil
}

// violationTail is how many flight-recorder records a violation report
// carries from the owning domain.
const violationTail = 64

// ChurnTrace re-runs the sweep's (run, scheme) replication (churnRep)
// with a flight recorder of `size` records per domain and returns each
// domain's full ring contents — the -trace export of empower-scenario,
// showing exactly the trajectory the sweep measured.
func ChurnTrace(sc *scenario.Scenario, cfg ChurnConfig, run int, scheme core.Scheme, size int) ([][]obs.Record, error) {
	rep, err := churnRep(cfg, run, scheme)
	if err != nil {
		return nil, err
	}
	rt, err := bindChurn(sc, scheme, cfg, run, rep.Seed, size)
	if err != nil {
		return nil, err
	}
	rt.Run()
	return rt.Em.RecorderTails(size), nil
}

// churnRep returns the sweep replication that runs `run` under scheme:
// flat index run*len(schemes)+position — the layout ChurnRepJob decodes
// and MergeChurnReps folds — seeded as the runner seeds it.
func churnRep(cfg ChurnConfig, run int, scheme core.Scheme) (runner.Rep, error) {
	schemes := cfg.schemes()
	if run < 0 || run >= cfg.runs() {
		return runner.Rep{}, fmt.Errorf("experiments: run %d is outside the sweep's %d runs", run, cfg.runs())
	}
	for si, s := range schemes {
		if s == scheme {
			return runner.RepAt(cfg.Seed, run*len(schemes)+si), nil
		}
	}
	return runner.Rep{}, fmt.Errorf("experiments: scheme %v is not one of the sweep's schemes %v", scheme, schemes)
}

// runnerConfig maps the sweep configuration onto the shared runner.
func (c ChurnConfig) runnerConfig() runner.Config {
	return runner.Config{Workers: c.Parallel, BaseSeed: c.Seed, OnProgress: c.Progress, OnJobTime: c.JobTime}
}

// ChurnFailoverCtx runs the failover experiment: Runs replications of the
// scenario per scheme, collecting failover-latency distributions and
// goodput under churn. Replications fan out over (run, scheme) on the
// parallel runner and fold back in run order per scheme. It is exactly
// ChurnReps + ChurnRepJob + a full runner.Run + MergeChurnReps — the same
// primitives a checkpointing service composes with runner.RunFrom, so a
// resumed sweep reproduces this function's output bit for bit.
func ChurnFailoverCtx(ctx context.Context, sc *scenario.Scenario, cfg ChurnConfig) (ChurnResult, error) {
	outs, err := runner.Run(ctx, ChurnReps(cfg), cfg.runnerConfig(), ChurnRepJob(sc, cfg))
	if err != nil {
		return ChurnResult{Scenario: sc.Name, Runs: cfg.runs()}, err
	}
	return MergeChurnReps(sc.Name, cfg, outs), nil
}

// ChurnReps returns the flat replication count of a churn failover
// sweep: runs × schemes. Index i maps to run i/len(schemes), scheme
// i%len(schemes) — the layout ChurnRepJob and MergeChurnReps share.
func ChurnReps(cfg ChurnConfig) int {
	return cfg.runs() * len(cfg.schemes())
}

// ChurnRepJob returns the per-replication job of the churn failover
// sweep in the runner's flat index space. Every seed a replication draws
// is a pure function of (cfg.Seed, index), so any subset of indices can
// be executed on any pool — or re-executed after a crash — and yield the
// identical ChurnRepOut.
func ChurnRepJob(sc *scenario.Scenario, cfg ChurnConfig) runner.Job[*ChurnRepOut] {
	schemes := cfg.schemes()
	return func(_ context.Context, rep runner.Rep) (*ChurnRepOut, error) {
		run, si := rep.Index/len(schemes), rep.Index%len(schemes)
		return churnReplication(sc, schemes[si], cfg, run, rep.Seed)
	}
}

// MergeChurnReps folds a complete, index-ordered replication set into
// the sweep result. The fold is a pure function of the slice contents,
// so callers that persist ChurnRepOut records (a checkpointing daemon)
// and callers that hold them in memory (ChurnFailoverCtx) produce the
// same ChurnResult — and the same JSON bytes — for the same sweep.
// Every entry must be non-nil and outs must have length ChurnReps(cfg).
func MergeChurnReps(scenarioName string, cfg ChurnConfig, outs []*ChurnRepOut) ChurnResult {
	schemes := cfg.schemes()
	runs := cfg.runs()
	res := ChurnResult{Scenario: scenarioName, Runs: runs}
	for si, scheme := range schemes {
		row := ChurnRow{Scheme: scheme.String()}
		var goodputs, degraded []float64
		for run := 0; run < runs; run++ {
			out := outs[run*len(schemes)+si]
			row.Latencies = append(row.Latencies, out.Latencies...)
			row.Censored += out.Censored
			row.Reroutes += out.Reroutes
			row.SkippedFlows += out.Skipped
			goodputs = append(goodputs, out.Goodput)
			degraded = append(degraded, out.Degraded...)
			if out.Drops != nil {
				if row.Drops == nil {
					row.Drops = map[string]int{}
				}
				for reason, n := range out.Drops {
					row.Drops[reason] += n
				}
				row.Violations += out.Violations
				row.ViolationDetails = append(row.ViolationDetails, out.ViolationDetails...)
			}
		}
		row.Episodes = len(row.Latencies) + row.Censored
		row.MedianLatency = medianWithCensored(row.Latencies, row.Censored)
		row.MeanGoodput = stats.Mean(goodputs)
		row.DegradedGoodput = stats.Mean(degraded)
		res.Rows = append(res.Rows, row)
	}
	return res
}

// medianWithCensored returns the median of the episode latencies with
// censored episodes counted as +Inf, encoded as -1 (JSON cannot carry
// infinities).
func medianWithCensored(finite []float64, censored int) float64 {
	n := len(finite) + censored
	if n == 0 {
		return -1
	}
	sorted := append([]float64(nil), finite...)
	sort.Float64s(sorted)
	mid := n / 2
	if mid >= len(sorted) {
		return -1
	}
	return sorted[mid]
}

// Render prints the per-scheme failover summary and latency CDFs.
func (r ChurnResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Churn failover: scenario %q, %d runs per scheme\n", r.Scenario, r.Runs)
	fmt.Fprintf(&b, "%-10s %9s %9s %9s %10s %10s %9s\n",
		"scheme", "episodes", "censored", "median(s)", "goodput", "degraded", "reroutes")
	for _, row := range r.Rows {
		med := "inf"
		if row.MedianLatency >= 0 {
			med = fmt.Sprintf("%.2f", row.MedianLatency)
		}
		fmt.Fprintf(&b, "%-10s %9d %9d %9s %10.2f %10.2f %9d\n",
			row.Scheme, row.Episodes, row.Censored, med,
			row.MeanGoodput, row.DegradedGoodput, row.Reroutes)
	}
	// The drops/violations section appears only when the invariant
	// checker ran, so default output stays byte-identical.
	if len(r.Rows) > 0 && r.Rows[0].Drops != nil {
		fmt.Fprintf(&b, "Drops by reason (invariant checker on):\n")
		for _, row := range r.Rows {
			reasons := make([]string, 0, len(row.Drops))
			for reason := range row.Drops {
				reasons = append(reasons, reason)
			}
			sort.Strings(reasons)
			fmt.Fprintf(&b, "%-10s", row.Scheme)
			for _, reason := range reasons {
				fmt.Fprintf(&b, " %s=%d", reason, row.Drops[reason])
			}
			fmt.Fprintf(&b, " violations=%d\n", row.Violations)
		}
	}
	fmt.Fprintf(&b, "Failover-latency CDFs (finite episodes only):\n")
	for _, row := range r.Rows {
		writeCDF(&b, row.Scheme, row.Latencies)
	}
	return b.String()
}

// FlapSweepResult is the goodput-vs-flap-rate sweep outcome.
type FlapSweepResult struct {
	Scenario string `json:"scenario"`
	// RatesPerMin are the swept flap frequencies (cycles per minute).
	RatesPerMin []float64 `json:"rates_per_min"`
	Schemes     []string  `json:"schemes"`
	// Goodput[s][r] is scheme s's mean aggregate goodput (Mbps) at flap
	// rate r, averaged over runs.
	Goodput [][]float64 `json:"goodput"`
}

// CheckFlapRates rejects the flap frequencies ChurnFlapSweepCtx cannot
// sweep: each must be positive and finite.
func CheckFlapRates(ratesPerMin []float64) error {
	for _, rate := range ratesPerMin {
		if !(rate > 0) || math.IsInf(rate, 1) {
			return fmt.Errorf("flap rate must be positive and finite, got %g", rate)
		}
	}
	return nil
}

// ChurnFlapSweepCtx sweeps the scenario's flap processes across flap
// frequencies and measures goodput per scheme. For each swept rate,
// every flap process keeps its down-time fraction but changes its cycle
// length to 60/rate seconds; everything else about the scenario is
// untouched. All (rate, run, scheme) replications run on the parallel
// runner, rate-major, each rate's block being one churn failover sweep
// (ChurnRepJob) of the scaled scenario. With ChurnConfig.Invariants the
// checker's findings come back beside the result.
func ChurnFlapSweepCtx(ctx context.Context, sc *scenario.Scenario, cfg ChurnConfig, ratesPerMin []float64) (FlapSweepResult, []Violation, error) {
	if err := CheckFlapRates(ratesPerMin); err != nil {
		return FlapSweepResult{}, nil, fmt.Errorf("experiments: %w", err)
	}
	jobs := make([]runner.Job[*ChurnRepOut], len(ratesPerMin))
	for i, rate := range ratesPerMin {
		jobs[i] = ChurnRepJob(flapScaled(sc, rate), cfg)
	}
	perRate := ChurnReps(cfg)
	outs, err := runner.Run(ctx, len(jobs)*perRate, cfg.runnerConfig(),
		func(ctx context.Context, rep runner.Rep) (*ChurnRepOut, error) {
			// The seed stays the flat index's; the job sees its block's.
			job := jobs[rep.Index/perRate]
			rep.Index %= perRate
			return job(ctx, rep)
		})
	if err != nil {
		return FlapSweepResult{}, nil, err
	}
	res, violations := mergeFlapSweep(sc.Name, cfg, ratesPerMin, outs)
	return res, violations, nil
}

// mergeFlapSweep folds the rate-major replication set: each rate's block
// merges like a failover sweep, of which the sweep keeps the per-scheme
// mean goodput and the invariant violations.
func mergeFlapSweep(name string, cfg ChurnConfig, ratesPerMin []float64, outs []*ChurnRepOut) (FlapSweepResult, []Violation) {
	res := FlapSweepResult{Scenario: name, RatesPerMin: ratesPerMin}
	for _, s := range cfg.schemes() {
		res.Schemes = append(res.Schemes, s.String())
		res.Goodput = append(res.Goodput, make([]float64, len(ratesPerMin)))
	}
	var violations []Violation
	perRate := ChurnReps(cfg)
	for ri := range ratesPerMin {
		block := MergeChurnReps(name, cfg, outs[ri*perRate:][:perRate])
		for si, row := range block.Rows {
			res.Goodput[si][ri] = row.MeanGoodput
		}
		violations = append(violations, block.Violations()...)
	}
	return res, violations
}

// flapScaled derives a scenario whose flap processes run at the given
// frequency (cycles per minute), preserving each process's down-time
// fraction exactly: the clamp floors the whole cycle (at 2 s, against
// degenerate sub-second flapping), never the components, so the realized
// outage fraction is the scenario's at every swept rate.
func flapScaled(sc *scenario.Scenario, ratePerMin float64) *scenario.Scenario {
	out := *sc
	out.Processes = append([]scenario.Process(nil), sc.Processes...)
	cycle := 60 / ratePerMin
	if cycle < 2 {
		cycle = 2
	}
	for i, p := range out.Processes {
		if p.Kind != scenario.ProcFlap {
			continue
		}
		frac := p.DownMean / (p.DownMean + p.UpMean)
		p.DownMean = frac * cycle
		p.UpMean = cycle - p.DownMean
		out.Processes[i] = p
	}
	return &out
}

// Render prints the sweep as a rate × scheme table.
func (r FlapSweepResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Goodput vs flap rate: scenario %q (Mbps, mean over runs)\n", r.Scenario)
	fmt.Fprintf(&b, "%-12s", "flaps/min")
	for _, s := range r.Schemes {
		fmt.Fprintf(&b, " %10s", s)
	}
	fmt.Fprintln(&b)
	for ri, rate := range r.RatesPerMin {
		fmt.Fprintf(&b, "%-12.2f", rate)
		for si := range r.Schemes {
			fmt.Fprintf(&b, " %10.2f", r.Goodput[si][ri])
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}
