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
//	-runs N        repetitions for Table 1 (default 5; paper: 40
//	               tiny/short, 10 long/conc)
//	-seed N        base RNG seed (fixes the channel realization)
//	-parallel N    worker pool size (<= 0: GOMAXPROCS)
//	-json          emit one JSON object per figure on stdout instead of text
//	-duration S    emulated seconds per run (paper runs are 1000 s)
//	-pairs N       random station pairs for figure 10 (paper: 50)
//	-flows N       flows for figures 11 and 13
//	-delta D       constraint margin δ
//	-metrics target  publish Prometheus metric snapshots: a file path is
//	               rewritten every 2 s (atomic rename), ":8080" or
//	               "host:port" serves /metrics over HTTP
//	-pprof addr    serve net/http/pprof on addr (e.g. ":6060")
//	-progress      live progress line (done/total, reps/sec, ETA) on stderr
//
// The observability flags are purely observational: figure output stays
// byte-identical with them on or off at the same seed and worker count.
// The -metrics snapshot carries the per-reason MAC drop totals
// (empower_mac_dropped_packets_total{reason}).
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
	"flag"

	"repro/internal/cli"
	"repro/internal/experiments"
)

func main() {
	fig := flag.String("fig", "", "figure to regenerate: 9, 10, 11, 12, 13, all")
	table := flag.Int("table", 0, "table to regenerate: 1")
	duration := flag.Float64("duration", 60, "emulated seconds per run (paper runs are 1000 s)")
	pairs := flag.Int("pairs", 20, "random station pairs for figure 10 (paper: 50)")
	flows := flag.Int("flows", 10, "flows for figures 11 and 13")
	runs := flag.Int("runs", 5, "repetitions for table 1 (paper: 40 tiny/short, 10 long/conc)")
	sweep := cli.SweepFlags()
	sweep.EmulationFlags()

	sweep.Main("empower-testbed", func(ctx context.Context) error {
		cfg := experiments.TestbedConfig{
			Seed: sweep.Seed, Duration: *duration, Pairs: *pairs,
			Flows: *flows, Repeats: *runs, Delta: sweep.Delta,
			Parallel: sweep.Parallel,
			Progress: sweep.Progress("replications"),
			JobTime:  sweep.JobTime, Metrics: sweep.Metrics,
		}

		// The figures in output order, each with its selection rule.
		want := func(f string) bool { return *fig == "all" || *fig == f }
		type figure = interface{ Render() string }
		ran := false
		for _, f := range []struct {
			wanted bool
			name   string
			run    func() (figure, error)
		}{
			{want("9"), "9", func() (figure, error) { return experiments.Figure9(cfg) }},
			{want("10"), "10", func() (figure, error) { return experiments.Figure10Ctx(ctx, cfg) }},
			{want("11"), "11", func() (figure, error) { return experiments.Figure11Ctx(ctx, cfg) }},
			{*table == 1 || *fig == "all", "table1", func() (figure, error) { return experiments.Table1Ctx(ctx, cfg) }},
			{want("12"), "12", func() (figure, error) { return experiments.Figure12Ctx(ctx, cfg) }},
			{want("13"), "13", func() (figure, error) { return experiments.Figure13Ctx(ctx, cfg) }},
		} {
			if !f.wanted {
				continue
			}
			ran = true
			res, err := f.run()
			if err != nil {
				return err
			}
			err = sweep.Emit(struct {
				Figure string `json:"figure"`
				Seed   int64  `json:"seed"`
				Result any    `json:"result"`
			}{f.name, sweep.Seed, res}, res.Render)
			if err != nil {
				return err
			}
		}
		if !ran {
			return cli.ErrUsage
		}
		return nil
	})
}
