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
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/scenario"
)

func main() {
	scPath := flag.String("scenario", "", "scenario JSON file (required)")
	runs := flag.Int("runs", 20, "scenario replications per scheme")
	schemesCSV := flag.String("schemes", "EMPoWER,SP,MP-w/o-CC,SP-w/o-CC",
		`comma-separated scheme names, or "all"`)
	bin := flag.Float64("bin", 0.2, "failover measurement bin (seconds)")
	frac := flag.Float64("frac", 0.8, "goodput-recovery fraction defining failover")
	manage := flag.Bool("manage", true, "attach the route manager (fast failover) to multipath CC flows")
	invariants := flag.Bool("invariants", false, "attach the runtime invariant checker to every replication; report per-reason drops and fail on any violation")
	flapRates := flag.String("flaprates", "", "goodput-vs-flap-rate sweep frequencies (cycles/minute)")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON of one replication (see -tracerun)")
	traceRun := flag.Int("tracerun", 0, "replication index for -trace")
	phases := flag.Bool("phases", false, "report the bind/run/collect wall-clock phase breakdown")
	sweep := cli.SweepFlags()
	sweep.EmulationFlags()

	sweep.Main("empower-scenario", func(ctx context.Context) error {
		if *scPath == "" {
			return cli.ErrUsage
		}
		sc, err := scenario.Load(*scPath)
		if err != nil {
			return err
		}
		schemes, err := experiments.ParseSchemes(*schemesCSV)
		if err != nil {
			return err
		}
		cfg := experiments.ChurnConfig{
			Seed: sweep.Seed, Runs: *runs, Schemes: schemes, Delta: sweep.Delta,
			Bin: *bin, Frac: *frac, ManageRoutes: *manage, Parallel: sweep.Parallel,
			Shards: sweep.Shards(), Invariants: *invariants,
			Progress: sweep.Progress("replications"),
			JobTime:  sweep.JobTime, Metrics: sweep.Metrics,
		}
		if *phases {
			cfg.Phases = &obs.Phases{}
		}

		var result interface{ Render() string }
		var violations []experiments.Violation
		experiment := "churn-failover"
		if *flapRates != "" {
			experiment = "churn-flap-sweep"
			rates, err := parseFloats(*flapRates)
			if err != nil {
				return err
			}
			result, violations, err = experiments.ChurnFlapSweepCtx(ctx, sc, cfg, rates)
			if err != nil {
				return err
			}
		} else {
			res, err := experiments.ChurnFailoverCtx(ctx, sc, cfg)
			if err != nil {
				return err
			}
			result, violations = res, res.Violations()
		}

		// "scenario" is emitted even for an unnamed scenario.
		envelope := struct {
			Experiment string              `json:"experiment"`
			Scenario   string              `json:"scenario"`
			Seed       int64               `json:"seed"`
			Result     any                 `json:"result"`
			Phases     *obs.PhaseBreakdown `json:"phases,omitempty"`
		}{Experiment: experiment, Scenario: sc.Name, Seed: sweep.Seed, Result: result}
		if *phases {
			bd := cfg.Phases.Breakdown()
			envelope.Phases = &bd
		}
		if err := sweep.Emit(envelope, result.Render); err != nil {
			return err
		}
		if *phases && !sweep.JSON {
			fmt.Fprintf(os.Stderr, "phases: bind %.3fs run %.3fs collect %.3fs (worker time)\n",
				envelope.Phases.BindSeconds, envelope.Phases.RunSeconds, envelope.Phases.CollectSeconds)
		}
		if *tracePath != "" {
			// The re-run reuses the sweep's seed derivations, so the
			// trace shows the trajectory the sweep measured.
			doms, err := experiments.ChurnTrace(sc, cfg, *traceRun, schemes[0], traceRing)
			if err != nil {
				return err
			}
			if err := obs.WriteChromeTraceFile(*tracePath, doms); err != nil {
				return err
			}
		}
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "empower-scenario: scheme %s violation:\n%s\n", v.Scheme, v.Detail)
		}
		if len(violations) > 0 {
			return fmt.Errorf("%d invariant violations", len(violations))
		}
		return nil
	})
}

// traceRing sizes the per-domain flight-recorder ring of a -trace re-run:
// large enough to hold a full replication of the example scenarios rather
// than just a tail.
const traceRing = 1 << 16

func parseFloats(csv string) ([]float64, error) {
	var out []float64
	for _, s := range strings.Split(csv, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return nil, fmt.Errorf("bad rate %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}
