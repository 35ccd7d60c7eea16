// Command empower-testbed regenerates the testbed-emulation results of §6
// (Figures 9-13 and Table 1) on the 22-node emulated office floor.
//
// The repeated emulations (Figure 10's station pairs, Figures 11/13's
// per-flow runs, Table 1's repetitions) run on the deterministic parallel
// runner (internal/runner): -parallel bounds the worker pool (default:
// all cores) and never changes the numbers, only the wall-clock time;
// the same -seed yields bit-identical results at any worker count.
//
// Flags:
//
//	-fig 9|10|11|12|13|all   figure to regenerate
//	-table 1       table to regenerate
//	-runs N        repetitions for Table 1; alias of -repeats, mirroring
//	               empower-sim (paper: 40 tiny/short, 10 long/conc)
//	-seed N        base RNG seed (fixes the channel realization)
//	-parallel N    worker pool size (<= 0: GOMAXPROCS)
//	-json          emit one JSON object per figure on stdout instead of text
//	-duration S    emulated seconds per run (paper runs are 1000 s)
//	-pairs N       random station pairs for figure 10 (paper: 50)
//	-flows N       flows for figures 11 and 13
//	-delta D       constraint margin δ
//	-shards N      worker cap inside a replication (default 1; 0 = one
//	               per core); never changes results
//	-metrics target  publish Prometheus metric snapshots: a file path is
//	               rewritten every 2 s (atomic rename), ":8080" or
//	               "host:port" serves /metrics over HTTP
//	-pprof addr    serve net/http/pprof on addr (e.g. ":6060")
//	-progress      live progress line (done/total, reps/sec, ETA) on stderr
//	-drops         append a per-reason MAC drop report (queue overflow,
//	               link down, channel loss, dead link) after the figures
//
// The observability flags are purely observational: figure output stays
// byte-identical with them on or off at the same seed and worker count
// (-drops appends its report after the figures without altering them).
//
// Usage:
//
//	empower-testbed -fig 9
//	empower-testbed -fig 10 -pairs 50 -duration 200 -parallel 8
//	empower-testbed -table 1 -runs 10 -json
//	empower-testbed -fig all
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/runner"
)

func main() {
	fig := flag.String("fig", "", "figure to regenerate: 9, 10, 11, 12, 13, all")
	table := flag.Int("table", 0, "table to regenerate: 1")
	duration := flag.Float64("duration", 60, "emulated seconds per run (paper runs are 1000 s)")
	pairs := flag.Int("pairs", 20, "random station pairs for figure 10 (paper: 50)")
	flows := flag.Int("flows", 10, "flows for figures 11 and 13")
	repeats := flag.Int("repeats", 5, "repetitions for table 1 (paper: 40 tiny/short, 10 long/conc)")
	runs := flag.Int("runs", 0, "alias of -repeats (mirrors empower-sim); takes precedence when set")
	seed := flag.Int64("seed", 1, "base RNG seed (fixes the channel realization)")
	parallel := flag.Int("parallel", 0, "replication workers (<= 0: GOMAXPROCS)")
	jsonOut := flag.Bool("json", false, "emit results as JSON objects on stdout")
	delta := flag.Float64("delta", 0.05, "constraint margin δ")
	shards := flag.Int("shards", 1, "worker cap inside a replication (0: one per core); never changes results")
	metrics := flag.String("metrics", "", "Prometheus snapshots: file path, or :port / host:port to serve /metrics")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address")
	progress := flag.Bool("progress", false, "live progress line on stderr")
	drops := flag.Bool("drops", false, "append a per-reason MAC drop report after the figures")
	flag.Parse()

	if *runs > 0 {
		*repeats = *runs
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := experiments.TestbedConfig{
		Seed: *seed, Duration: *duration, Pairs: *pairs,
		Flows: *flows, Repeats: *repeats, Delta: *delta,
		Parallel: *parallel, Shards: shardsValue(*shards),
	}

	if *pprofAddr != "" {
		fail(obs.ServePprof(*pprofAddr))
	}
	if *metrics != "" {
		cfg.Metrics = obs.NewAggregator()
		emitter, err := obs.StartEmitter(*metrics, cfg.Metrics, 0)
		fail(err)
		defer emitter.Close()
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
	if *drops {
		cfg.Drops = &experiments.DropTally{}
	}

	enc := json.NewEncoder(os.Stdout)
	emit := func(figure string, result any, render func() string) {
		line.Finish()
		if *jsonOut {
			envelope := struct {
				Figure string `json:"figure"`
				Seed   int64  `json:"seed"`
				Result any    `json:"result"`
			}{Figure: figure, Seed: *seed, Result: result}
			if err := enc.Encode(envelope); err != nil {
				fail(err)
			}
			return
		}
		fmt.Println(render())
	}

	want := func(f string) bool { return *fig == "all" || *fig == f }
	ran := false

	if want("9") {
		res, err := experiments.Figure9(cfg)
		fail(err)
		emit("9", res, res.Render)
		ran = true
	}
	if want("10") {
		res, err := experiments.Figure10Ctx(ctx, cfg)
		fail(err)
		emit("10", res, res.Render)
		ran = true
	}
	if want("11") {
		res, err := experiments.Figure11Ctx(ctx, cfg)
		fail(err)
		emit("11", res, res.Render)
		ran = true
	}
	if *table == 1 || *fig == "all" {
		res, err := experiments.Table1Ctx(ctx, cfg)
		fail(err)
		emit("table1", res, res.Render)
		ran = true
	}
	if want("12") {
		res, err := experiments.Figure12Ctx(ctx, cfg)
		fail(err)
		emit("12", res, res.Render)
		ran = true
	}
	if want("13") {
		res, err := experiments.Figure13Ctx(ctx, cfg)
		fail(err)
		emit("13", res, res.Render)
		ran = true
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
	if *drops {
		fmt.Print(cfg.Drops.Render())
	}
}

// shardsValue maps the CLI convention (0 = one worker per core) onto
// node.Config.Shards, where that is ShardsAuto.
func shardsValue(n int) int {
	if n == 0 {
		return node.ShardsAuto
	}
	return n
}

func fail(err error) {
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "empower-testbed:", err)
	// Interruption (SIGINT/SIGTERM cancelling the sweep context) exits
	// 130, shell-style, so wrappers can tell "cancelled" from "failed".
	if errors.Is(err, context.Canceled) {
		os.Exit(130)
	}
	os.Exit(1)
}
