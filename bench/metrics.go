package main

// metricDef fixes a metric's name, unit and direction. BENCHMARK.json
// repeats name, unit and better, with declaredBound as every bound, for
// every metric but tailMetric; TestBenchmarkJSONMatchesTables keeps the
// two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound (end-to-end only) is the share of the old value by which the
	// metric may worsen before -compare calls the change a regression.
	bound float64
	// Per-layer only: the end-to-end metric the layer metric should move,
	// the workloads it should move it on, and the workloads on which the
	// prediction is no change.
	moves, on, noChange string
}

// endToEnd lists the metrics a user of the system sees, measured with
// tracing off, with ISSUE 12's bounds: -compare calls a change improved
// or regressed against these. setup_s depends on the build cache and is
// informational. Failed operations are not a metric here: they are the
// failed/attempted counts of every result, and any failure fails the run.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 1.00},
	{name: "op_ms_p50", unit: "ms", better: "lower", bound: 0.08},
	{name: "op_ms_p95", unit: "ms", better: "lower", bound: 0.20},
	{name: "reps_per_s", unit: "1/s", better: "higher", bound: 0.08},
	{name: "cpu_ms_per_rep", unit: "ms", better: "lower", bound: 0.08},
}

// tailMetric is measured, printed, kept in results.json and judged by
// -compare, but BENCHMARK.json does not declare it and the driver's JSON
// line leaves it out: a p95 with ten of 200 samples beyond it spread
// 13 % between identical runs on a quiet sandbox and 33-37 % in the
// driver's, which no bound a benchmark may declare clears, and the five
// workloads with too few operations for a tail would have had to repeat
// their median under its name.
const tailMetric = "op_ms_p95"

// declaredBound is the bound BENCHMARK.json declares for every end-to-end
// metric: the most a benchmark may declare, and what the sizing sandbox
// needs. Ten identical runs of a workload there spread (interquartile
// range over median) by 4-18 % on every timing, CPU time included,
// because a neighbour slows the two vCPUs for minutes at a time; a gate
// on single runs has to clear that several times over. -aa holds two
// runs of one tree to gate(), -compare resolves smaller changes from the
// per-operation samples of paired runs.
const declaredBound = 0.25

// gate is the difference between two runs of the same tree that -aa
// accepts on a metric.
func (d metricDef) gate() float64 { return max(d.bound, declaredBound) }

// perLayer lists the traced-pass metrics; layer = package name. A metric
// that does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	{name: "topology.generate_ms", unit: "ms", better: "lower", moves: "reps_per_s", on: "sim-fig4", noChange: "churn-*, fleet-*"},
	{name: "graph.build_ms", unit: "ms", better: "lower", moves: "reps_per_s", on: "sim-fig4", noChange: "churn-*, fleet-*"},
	{name: "routing.route_ms", unit: "ms", better: "lower", moves: "reps_per_s, cpu_ms_per_rep", on: "sim-fig4", noChange: "sim-fig6"},
	{name: "routing.calls", unit: "count", better: "lower", moves: "reps_per_s, cpu_ms_per_rep", on: "sim-fig4", noChange: "sim-fig6"},
	{name: "routing.paths_per_call", unit: "count", better: "higher", moves: "reps_per_s, cpu_ms_per_rep", on: "sim-fig4", noChange: "sim-fig6"},
	{name: "routing.seed_rates_us", unit: "us", better: "lower", moves: "reps_per_s, cpu_ms_per_rep", on: "sim-fig4", noChange: "sim-fig6"},
	{name: "congestion.reset_us", unit: "us", better: "lower", moves: "reps_per_s, cpu_ms_per_rep", on: "sim-fig4", noChange: "sim-fig6, churn-*"},
	{name: "congestion.ns_per_slot", unit: "ns", better: "lower", moves: "reps_per_s, cpu_ms_per_rep", on: "sim-fig4", noChange: "sim-fig6, churn-*"},
	{name: "congestion.share", unit: "ratio", better: "lower", moves: "reps_per_s, cpu_ms_per_rep", on: "sim-fig4", noChange: "sim-fig6, churn-*"},
	{name: "core.evaluate_ms", unit: "ms", better: "lower", moves: "op_ms_p50", on: "sim-fig4"},
	{name: "core.coverage", unit: "ratio", better: "higher", moves: "op_ms_p50", on: "sim-fig4"},
	{name: "optimal.optimal_ms_p50", unit: "ms", better: "lower", moves: "op_ms_p50, reps_per_s", on: "sim-fig6", noChange: "all others"},
	{name: "optimal.optimal_ms_max", unit: "ms", better: "lower", moves: "op_ms_p50, reps_per_s", on: "sim-fig6", noChange: "all others"},
	{name: "optimal.conservative_ms_p50", unit: "ms", better: "lower", moves: "op_ms_p50, reps_per_s", on: "sim-fig6", noChange: "all others"},
	{name: "optimal.share", unit: "ratio", better: "lower", moves: "op_ms_p50, reps_per_s", on: "sim-fig6", noChange: "all others"},
	{name: "runner.rep_ms_p50", unit: "ms", better: "lower", moves: "none at one worker (guards -parallel)", on: "sim-fig4, churn-clusters"},
	{name: "runner.rep_ms_p95", unit: "ms", better: "lower", moves: "none at one worker (guards -parallel)", on: "sim-fig4, churn-clusters"},
	{name: "runner.utilization_w2", unit: "ratio", better: "higher", moves: "none at one worker (guards -parallel)", on: "sim-fig4, churn-clusters"},
	{name: "runner.speedup_w2", unit: "ratio", better: "higher", moves: "none at one worker (guards -parallel)", on: "sim-fig4, churn-clusters"},
	{name: "scenario.bind_ms", unit: "ms", better: "lower", moves: "reps_per_s", on: "churn-clusters", noChange: "sim-*"},
	{name: "scenario.run_ms", unit: "ms", better: "lower", moves: "reps_per_s", on: "churn-testbed", noChange: "sim-*"},
	{name: "scenario.collect_ms", unit: "ms", better: "lower", moves: "reps_per_s", on: "churn-clusters", noChange: "sim-*"},
	{name: "sim.events", unit: "count", better: "lower", moves: "cpu_ms_per_rep, reps_per_s", on: "churn-testbed, fleet-flaps", noChange: "sim-*"},
	{name: "sim.heap_depth_peak", unit: "count", better: "lower", moves: "cpu_ms_per_rep, reps_per_s", on: "churn-testbed, fleet-flaps", noChange: "sim-*"},
	{name: "node.ns_per_event", unit: "ns", better: "lower", moves: "cpu_ms_per_rep, reps_per_s", on: "churn-testbed, fleet-flaps", noChange: "sim-*"},
	{name: "mac.frames_delivered", unit: "count", better: "higher", moves: "must not move under a perf PR", on: "churn-*, fleet-*"},
	{name: "mac.frames_dropped", unit: "count", better: "lower", moves: "must not move under a perf PR", on: "churn-*, fleet-*"},
	{name: "mac.airtime_s", unit: "s", better: "lower", moves: "must not move under a perf PR", on: "churn-*, fleet-*"},
	{name: "node.reroutes", unit: "count", better: "lower", moves: "must not move under a perf PR", on: "churn-*, fleet-*"},
	{name: "node.failovers", unit: "count", better: "lower", moves: "must not move under a perf PR", on: "churn-*, fleet-*"},
	{name: "scenario.transitions", unit: "count", better: "lower", moves: "must not move under a perf PR", on: "churn-*, fleet-*"},
	{name: "sim.kernel_ns_per_event", unit: "ns", better: "lower", moves: "node.ns_per_event -> reps_per_s", on: "churn-testbed, fleet-flaps", noChange: "sim-*, fleet-burst (diluted)"},
	{name: "mac.kernel_ns_per_frame", unit: "ns", better: "lower", moves: "node.ns_per_event -> reps_per_s", on: "churn-testbed", noChange: "sim-*"},
	{name: "wire.codec_ns", unit: "ns", better: "lower", moves: "node.ns_per_event", on: "fleet-flaps", noChange: "sim-*"},
	{name: "shard.windows", unit: "count", better: "lower", moves: "reps_per_s", on: "churn-clusters", noChange: "churn-testbed, fleet-* (one domain)"},
	{name: "shard.stalls", unit: "count", better: "lower", moves: "reps_per_s", on: "churn-clusters", noChange: "churn-testbed, fleet-* (one domain)"},
	{name: "shard.cross_events", unit: "count", better: "lower", moves: "reps_per_s", on: "churn-clusters", noChange: "churn-testbed, fleet-* (one domain)"},
	{name: "shard.events_per_window", unit: "count", better: "higher", moves: "reps_per_s", on: "churn-clusters", noChange: "churn-testbed, fleet-* (one domain)"},
	{name: "shard.decompose_overhead_frac", unit: "ratio", better: "lower", moves: "reps_per_s", on: "churn-clusters", noChange: "churn-testbed, fleet-* (one domain)"},
	{name: "shard.speedup_w2", unit: "ratio", better: "higher", moves: "reps_per_s", on: "churn-clusters", noChange: "churn-testbed, fleet-* (one domain)"},
	{name: "gateway.submit_ms_p50", unit: "ms", better: "lower", moves: "op_ms_p50, op_ms_p95", on: "fleet-burst", noChange: "fleet-flaps"},
	{name: "gateway.status_ms_p50", unit: "ms", better: "lower", moves: "op_ms_p50, op_ms_p95", on: "fleet-burst", noChange: "fleet-flaps"},
	{name: "gateway.results_ms_p50", unit: "ms", better: "lower", moves: "op_ms_p50, op_ms_p95", on: "fleet-burst", noChange: "fleet-flaps"},
	{name: "gateway.metrics_ms_p50", unit: "ms", better: "lower", moves: "op_ms_p50, op_ms_p95", on: "fleet-burst", noChange: "fleet-flaps"},
	{name: "fleet.parse_spec_us", unit: "us", better: "lower", moves: "op_ms_p50", on: "fleet-burst", noChange: "fleet-flaps"},
	{name: "wal.records", unit: "count", better: "lower", moves: "reps_per_s, op_ms_p95", on: "fleet-burst", noChange: "fleet-flaps"},
	{name: "wal.bytes", unit: "count", better: "lower", moves: "reps_per_s, op_ms_p95", on: "fleet-burst", noChange: "fleet-flaps"},
	{name: "wal.append_us_p50", unit: "us", better: "lower", moves: "reps_per_s, op_ms_p95", on: "fleet-burst", noChange: "fleet-flaps"},
	{name: "wal.append_us_p95", unit: "us", better: "lower", moves: "reps_per_s, op_ms_p95", on: "fleet-burst", noChange: "fleet-flaps"},
	{name: "wal.fsync_share", unit: "ratio", better: "lower", moves: "reps_per_s, op_ms_p95", on: "fleet-burst", noChange: "fleet-flaps (share < 0.5 %)"},
	{name: "wal.replay_ms", unit: "ms", better: "lower", moves: "restart cost", on: "fleet-burst", noChange: "fleet-flaps"},
	{name: "supervisor.queue_wait_ms_p50", unit: "ms", better: "lower", moves: "op_ms_p50, op_ms_p95", on: "fleet-burst", noChange: "fleet-flaps"},
	{name: "supervisor.retries", unit: "count", better: "lower", moves: "must be 0", on: "fleet-*"},
	{name: "supervisor.timeouts", unit: "count", better: "lower", moves: "must be 0", on: "fleet-*"},
	{name: "supervisor.panics", unit: "count", better: "lower", moves: "must be 0", on: "fleet-*"},
	{name: "fleet.overhead_frac", unit: "ratio", better: "lower", moves: "reps_per_s", on: "fleet-burst (~0.25), fleet-flaps (~0)"},
	{name: "fleet.speedup_w2", unit: "ratio", better: "higher", moves: "none at one worker (guards concurrent checkpoints)", on: "fleet-burst"},
	{name: "fleet.rss_mb_end", unit: "MB", better: "lower", moves: "none (guard)", on: "fleet-burst"},
	{name: "fleet.rss_kb_per_rep", unit: "KB", better: "lower", moves: "none (guard)", on: "fleet-burst"},
	{name: "proc.peak_rss_mb", unit: "MB", better: "lower", moves: "none (guard)", on: "all"},
	{name: "experiments.merge_encode_us", unit: "us", better: "lower", moves: "op_ms_p50", on: "fleet-burst", noChange: "others"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower", moves: "-", on: "all"},
}

// exactCounts are the per-layer metrics a seeded run must reproduce
// exactly: -aa fails when they differ between its two suite runs.
var exactCounts = []string{
	"routing.calls", "sim.events", "mac.frames_delivered", "mac.frames_dropped",
	"node.reroutes", "node.failovers", "scenario.transitions",
	"shard.windows", "shard.cross_events", "wal.records",
}

// measurement is one reported metric value; n is the number of samples
// behind it and samples (end-to-end only) are the per-operation values
// -compare derives the spread from.
type measurement struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	N       int       `json:"n,omitempty"`
	Note    string    `json:"note,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

// measurements maps metric name to value for one workload and one pass.
type measurements map[string]measurement

// setUnits gives every metric of m its unit from defs. A name outside
// defs is a bug in the harness.
func (m measurements) setUnits(defs []metricDef) {
	units := make(map[string]string, len(defs))
	for _, d := range defs {
		units[d.name] = d.unit
	}
	for name, v := range m {
		unit, ok := units[name]
		if !ok {
			panic("bench: metric " + name + " is in no table")
		}
		v.Unit = unit
		m[name] = v
	}
}

// fillLayers completes m so that it holds exactly the per-layer metrics:
// every traced pass reports the full set, with 0 and a note for a metric
// the workload has no use for.
func (m measurements) fillLayers() {
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			m[d.name] = measurement{Note: "not applicable to this workload"}
		}
	}
	m.setUnits(perLayer)
}
