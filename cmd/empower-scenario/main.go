// Command empower-scenario runs a dynamic-network scenario — link
// failures and recoveries, flapping links, capacity drift, node churn,
// stochastic flow arrivals — against the packet-level EMPoWER emulation
// and reports failover latency and goodput per scheme (§6.1's dynamics,
// systematized).
//
// A scenario is a JSON file (see examples/scenarios/ and the schema
// section in DESIGN.md) that is self-contained: it carries its topology
// (a generated instance kind or an explicit custom network), its flows,
// an explicit event timeline, and stochastic processes expanded
// deterministically from the seed. The replications run on the
// deterministic parallel runner: -parallel bounds the worker pool and
// never changes the numbers — the same -seed yields byte-identical
// output at any worker count.
//
// Flags:
//
//	-scenario file   scenario JSON file (required)
//	-runs N          scenario replications per scheme (default 20)
//	-seed N          base RNG seed
//	-parallel N      worker pool size (<= 0: GOMAXPROCS)
//	-schemes list    comma-separated scheme names, or "all"
//	                 (default "EMPoWER,SP,MP-w/o-CC,SP-w/o-CC")
//	-json            emit one JSON object on stdout instead of text
//	-delta D         congestion-control constraint margin δ
//	-bin S           failover measurement bin in seconds (default 0.2)
//	-frac F          goodput-recovery fraction defining failover (0.8)
//	-manage          attach the §3.2 route manager with fast failover to
//	                 multipath CC flows (default true)
//	-shards N        worker cap inside a replication: up to N goroutines
//	                 over the topology's interference domains (default 1;
//	                 0 = one per core); never changes results
//	-invariants      attach the runtime invariant checker (flow
//	                 conservation, dead-link silence, rate bounds) to
//	                 every replication, report per-reason drop counters,
//	                 and exit non-zero on any violation (the failure
//	                 message includes each owning domain's flight-recorder
//	                 tail)
//	-flaprates list  run the goodput-vs-flap-rate sweep at these flap
//	                 frequencies (cycles/minute, e.g. "0.5,1,2,4")
//	                 instead of the failover experiment
//	-metrics target  publish Prometheus metric snapshots: a file path is
//	                 rewritten every 2 s (atomic rename), ":8080" or
//	                 "host:port" serves /metrics over HTTP
//	-pprof addr      serve net/http/pprof on addr (e.g. ":6060")
//	-progress        live progress line (done/total, reps/sec, ETA) on
//	                 stderr
//	-trace file      re-run one replication with the flight recorder
//	                 attached and write a Chrome trace-event JSON (open
//	                 in Perfetto); -tracerun picks the replication
//	-tracerun N      replication index for -trace (default 0; the scheme
//	                 is the first of -schemes)
//	-recorder N      attach an N-record flight recorder to every domain of
//	                 every replication (0 disables; -invariants implies
//	                 256 so violation reports carry their event tail)
//	-phases          report the bind/run/collect wall-clock breakdown
//	                 (a "phases" object with -json, a stderr line without)
//
// Every observability flag is purely observational: stdout stays
// byte-identical with them on or off at the same seed and shard count.
//
// Usage:
//
//	empower-scenario -scenario examples/scenarios/flaps.json -runs 50 -seed 7 -parallel 8
//	empower-scenario -scenario examples/scenarios/flaps.json -flaprates 0.5,1,2,4 -json
//	empower-scenario -scenario examples/scenarios/churn.json -schemes all
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/scenario"
)

func main() {
	scPath := flag.String("scenario", "", "scenario JSON file (required)")
	runs := flag.Int("runs", 20, "scenario replications per scheme")
	seed := flag.Int64("seed", 1, "base RNG seed")
	parallel := flag.Int("parallel", 0, "replication workers (<= 0: GOMAXPROCS)")
	schemesCSV := flag.String("schemes", "EMPoWER,SP,MP-w/o-CC,SP-w/o-CC",
		`comma-separated scheme names, or "all"`)
	jsonOut := flag.Bool("json", false, "emit results as a JSON object on stdout")
	delta := flag.Float64("delta", 0.05, "constraint margin δ")
	bin := flag.Float64("bin", 0.2, "failover measurement bin (seconds)")
	frac := flag.Float64("frac", 0.8, "goodput-recovery fraction defining failover")
	manage := flag.Bool("manage", true, "attach the route manager (fast failover) to multipath CC flows")
	shards := flag.Int("shards", 1, "worker cap inside a replication (0: one per core); never changes results")
	invariants := flag.Bool("invariants", false, "attach the runtime invariant checker to every replication; report per-reason drops and fail on any violation")
	flapRates := flag.String("flaprates", "", "goodput-vs-flap-rate sweep frequencies (cycles/minute)")
	metrics := flag.String("metrics", "", "Prometheus snapshots: file path, or :port / host:port to serve /metrics")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address")
	progress := flag.Bool("progress", false, "live progress line on stderr")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON of one replication (see -tracerun)")
	traceRun := flag.Int("tracerun", 0, "replication index for -trace")
	recorder := flag.Int("recorder", 0, "flight-recorder ring size per domain (0 disables; -invariants implies 256)")
	phases := flag.Bool("phases", false, "report the bind/run/collect wall-clock phase breakdown")
	flag.Parse()

	if *scPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	sc, err := scenario.Load(*scPath)
	fail(err)
	schemes, err := experiments.ParseSchemes(*schemesCSV)
	fail(err)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := experiments.ChurnConfig{
		Seed: *seed, Runs: *runs, Schemes: schemes, Delta: *delta,
		Bin: *bin, Frac: *frac, ManageRoutes: *manage, Parallel: *parallel,
		Shards: shardsValue(*shards), Invariants: *invariants,
		Recorder: *recorder,
	}

	if *pprofAddr != "" {
		fail(obs.ServePprof(*pprofAddr))
	}
	var emitter *obs.Emitter
	if *metrics != "" {
		cfg.Metrics = obs.NewAggregator()
		emitter, err = obs.StartEmitter(*metrics, cfg.Metrics, 0)
		fail(err)
		// Runner throughput and utilization ride the same snapshots,
		// refreshed after every finished replication.
		rs := obs.NewRunnerStats(runner.PoolSize(*parallel))
		agg := cfg.Metrics
		cfg.JobTime = func(d time.Duration) {
			rs.JobTime(d)
			agg.With(rs.Sample)
		}
	}
	var line *obs.ProgressLine
	if *progress {
		line = obs.NewProgressLine(os.Stderr, "replications")
		cfg.Progress = line.Update
	}
	var ph *obs.Phases
	if *phases {
		ph = &obs.Phases{}
		cfg.Phases = ph
	}

	enc := json.NewEncoder(os.Stdout)
	emit := func(experiment string, result any, render func() string) {
		line.Finish()
		if *jsonOut {
			envelope := struct {
				Experiment string              `json:"experiment"`
				Scenario   string              `json:"scenario"`
				Seed       int64               `json:"seed"`
				Result     any                 `json:"result"`
				Phases     *obs.PhaseBreakdown `json:"phases,omitempty"`
			}{Experiment: experiment, Scenario: sc.Name, Seed: *seed, Result: result}
			if ph != nil {
				bd := ph.Breakdown()
				envelope.Phases = &bd
			}
			fail(enc.Encode(envelope))
			return
		}
		fmt.Println(render())
		if ph != nil {
			bd := ph.Breakdown()
			fmt.Fprintf(os.Stderr, "phases: bind %.3fs run %.3fs collect %.3fs (worker time)\n",
				bd.BindSeconds, bd.RunSeconds, bd.CollectSeconds)
		}
	}
	finish := func() {
		fail(emitter.Close())
		if *tracePath != "" {
			fail(writeTrace(sc, cfg, *traceRun, schemes[0], *tracePath))
		}
	}

	if *flapRates != "" {
		rates, err := parseFloats(*flapRates)
		fail(err)
		res, err := experiments.ChurnFlapSweepCtx(ctx, sc, cfg, rates)
		fail(err)
		emit("churn-flap-sweep", res, res.Render)
		finish()
		return
	}
	res, err := experiments.ChurnFailoverCtx(ctx, sc, cfg)
	fail(err)
	emit("churn-failover", res, res.Render)
	finish()
	if *invariants {
		violations := 0
		for _, row := range res.Rows {
			violations += row.Violations
			for _, detail := range row.ViolationDetails {
				fmt.Fprintf(os.Stderr, "empower-scenario: scheme %s violation:\n%s\n", row.Scheme, detail)
			}
		}
		if violations > 0 {
			fmt.Fprintf(os.Stderr, "empower-scenario: %d invariant violations\n", violations)
			os.Exit(1)
		}
	}
}

// traceRing sizes the per-domain flight-recorder ring of a -trace re-run:
// large enough to hold a full replication of the example scenarios rather
// than just a tail.
const traceRing = 1 << 16

// writeTrace re-runs replication `run` under `scheme` with the flight
// recorder attached and writes the per-domain records as Chrome
// trace-event JSON. The re-run reuses the sweep's exact seed derivations,
// so the trace shows the trajectory the sweep measured.
func writeTrace(sc *scenario.Scenario, cfg experiments.ChurnConfig, run int, scheme core.Scheme, path string) error {
	doms, err := experiments.ChurnTrace(sc, cfg, run, scheme, traceRing)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, doms); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// shardsValue maps the CLI convention (0 = one worker per core) onto
// node.Config.Shards, where that is ShardsAuto.
func shardsValue(n int) int {
	if n == 0 {
		return node.ShardsAuto
	}
	return n
}

func parseFloats(csv string) ([]float64, error) {
	var out []float64
	for _, s := range strings.Split(csv, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return nil, fmt.Errorf("empower-scenario: bad rate %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func fail(err error) {
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "empower-scenario:", err)
	// Interruption (SIGINT/SIGTERM cancelling the sweep context) exits
	// 130, shell-style, so wrappers can tell "cancelled" from "failed".
	if errors.Is(err, context.Canceled) {
		os.Exit(130)
	}
	os.Exit(1)
}
