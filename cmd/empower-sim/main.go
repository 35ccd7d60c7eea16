// Command empower-sim regenerates the simulation figures of §5 (Figures
// 4-7 and the convergence comparison) over randomly generated residential
// and enterprise topologies.
//
// The Monte-Carlo replications run on the deterministic parallel runner
// (internal/runner): -parallel bounds the worker pool (default: all
// cores) and never changes the numbers, only the wall-clock time; the
// same -seed yields bit-identical figures at any worker count.
//
// Flags:
//
//	-fig 4|5|6|7|convergence|all   figure to regenerate
//	-topo residential|enterprise|both
//	-runs N        random instances per figure (paper: 1000)
//	-seed N        base RNG seed
//	-parallel N    worker pool size (<= 0: GOMAXPROCS)
//	-json          emit one JSON object per figure on stdout instead of text
//	-progress      live progress line (done/total, reps/sec, ETA) on stderr
//	-out DIR       also write plottable TSV CDF files
//	-slots N       controller slots per run (default 4000)
//	-metrics target  publish Prometheus snapshots of the sweep's runner
//	               throughput and worker utilization: a file path is
//	               rewritten every 2 s, ":8080" / "host:port" serves
//	               /metrics over HTTP
//	-pprof addr    serve net/http/pprof on addr (e.g. ":6060")
//
// The observability flags are purely observational: figure output stays
// byte-identical with them on or off at the same seed and worker count.
//
// Usage:
//
//	empower-sim -fig 4 -topo residential -runs 1000 -parallel 8
//	empower-sim -fig all -runs 200 -json
//	empower-sim -fig convergence
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/stats"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 4, 5, 6, 7, convergence, all")
	topo := flag.String("topo", "both", "topology: residential, enterprise, both")
	runs := flag.Int("runs", 200, "random instances per figure (paper: 1000)")
	slots := flag.Int("slots", 0, "controller slots per run (default 4000)")
	out := flag.String("out", "", "directory for plottable TSV data files (optional)")
	sweep := cli.SweepFlags()

	sweep.Main("empower-sim", func(ctx context.Context) error {
		switch *fig {
		case "all", "4", "5", "6", "7", "convergence":
		default:
			return cli.Usagef("unknown -fig %q", *fig)
		}
		var topos []experiments.Topo
		switch strings.ToLower(*topo) {
		case "residential":
			topos = []experiments.Topo{experiments.TopoResidential}
		case "enterprise":
			topos = []experiments.Topo{experiments.TopoEnterprise}
		case "both":
			topos = []experiments.Topo{experiments.TopoResidential, experiments.TopoEnterprise}
		default:
			return cli.Usagef("unknown -topo %q", *topo)
		}
		if *out != "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				return err
			}
		}
		// The simulation figures run flow-level solves, not packet
		// emulations, so -metrics snapshots carry the runner series only:
		// replications completed, completion rate, worker utilization.
		cfg := experiments.SimConfig{
			Runs: *runs, Seed: sweep.Seed, Core: core.Options{Slots: *slots},
			Parallel: sweep.Parallel, JobTime: sweep.JobTime,
		}
		want := func(f string) bool { return *fig == "all" || *fig == f }

		// A failed TSV write does not stop the sweep: the figures are
		// printed, then the command fails with the write errors.
		var outErr error
		for _, t := range topos {
			cfg.Progress = sweep.Progress(t.String())
			// show prints one figure. The JSON envelope names the figure
			// and topology so streams of objects stay self-describing.
			show := func(figure string, res interface{ Render() string }, err error) error {
				if err != nil {
					return err
				}
				return sweep.Emit(struct {
					Figure string `json:"figure"`
					Topo   string `json:"topo,omitempty"`
					Seed   int64  `json:"seed"`
					Result any    `json:"result"`
				}{figure, t.String(), sweep.Seed, res}, res.Render)
			}
			dump := func(xs []float64, format string, args ...any) {
				outErr = errors.Join(outErr, dumpCDF(*out, fmt.Sprintf(format, args...), xs))
			}
			if want("4") || want("5") {
				f4, err := experiments.Figure4Ctx(ctx, t, cfg)
				if err != nil {
					return err
				}
				if want("4") {
					if err := show("4", f4, nil); err != nil {
						return err
					}
					for scheme, xs := range f4.Samples {
						dump(xs, "fig4-%s-%s.tsv", t, slug(scheme.String()))
					}
				}
				if want("5") {
					f5 := experiments.Figure5(f4)
					if err := show("5", f5, nil); err != nil {
						return err
					}
					dump(f5.Ratios, "fig5-%s.tsv", t)
				}
			}
			if want("6") {
				f6, err := experiments.Figure6Ctx(ctx, t, cfg)
				if err := show("6", f6, err); err != nil {
					return err
				}
				for name, xs := range f6.Ratios {
					dump(xs, "fig6-%s-%s.tsv", t, slug(name))
				}
			}
			if want("7") {
				f7, err := experiments.Figure7Ctx(ctx, t, cfg)
				if err := show("7", f7, err); err != nil {
					return err
				}
				for name, xs := range f7.Ratios {
					dump(xs, "fig7-%s-%s.tsv", t, slug(name))
				}
			}
			if want("convergence") {
				cv, err := experiments.ConvergenceCtx(ctx, t, cfg)
				if err := show("convergence", cv, err); err != nil {
					return err
				}
			}
		}
		return outErr
	})
}

// dumpCDF writes a sample set's CDF to dir/name when -out is set.
func dumpCDF(dir, name string, xs []float64) error {
	if dir == "" || len(xs) == 0 {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := stats.NewCDF(xs).Points(200).WriteTSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// slug makes a scheme name filesystem-friendly.
func slug(s string) string {
	s = strings.ToLower(s)
	s = strings.ReplaceAll(s, " ", "-")
	return strings.ReplaceAll(s, "/", "")
}
