// Command empower-fuzz generates randomized adversarial scenarios —
// correlated failure groups, gray failures, flash crowds, churn,
// capacity drift on clustered hybrid topologies — and checks each one
// against the reproduction's correctness oracles:
//
//   - the runtime invariant checker (flow conservation at relays,
//     dead-link silence, controller rates within estimated capacity,
//     monotone virtual time, per-reason drop accounting);
//   - the determinism contract, differentially: a second run of the
//     same (scenario, seed) pair, with the invariant checker off and
//     the flight recorder on, must produce a bit-identical trajectory
//     signature, so neither checking nor recording changes a run;
//   - cross-scheme sanity: a second scheme runs the same scenario and
//     must stay finite and physical.
//
// On the first failure the scenario is greedily minimized and written
// as a reproducer JSON (strict schema — it reloads through
// scenario.Load and replays with empower-scenario), the minimized
// reproducer is replayed with the flight recorder attached and dumped
// as a Chrome trace-event JSON next to it (open in Perfetto), and the
// process exits non-zero.
//
// Flags:
//
//	-runs N       randomized scenarios to check (default 25)
//	-seed N       base RNG seed (default 1)
//	-out dir      reproducer output directory (default "fuzz-failures")
//	-duration S   max generated scenario length in emulated seconds (12)
//	-inject mode  seed a deliberate defect: "counter" corrupts a relay
//	              conservation counter mid-run (the invariant checker
//	              must catch it), "seed" perturbs the comparison arm's
//	              seeds (the differential oracle must catch it)
//	-v            log every run
//
// Usage:
//
//	empower-fuzz -runs 25 -seed 1
//	empower-fuzz -runs 5 -inject counter -out /tmp/fuzz   # must fail
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/fuzz"
)

func main() {
	runs := flag.Int("runs", 25, "randomized scenarios to check")
	seed := flag.Int64("seed", 1, "base RNG seed")
	out := flag.String("out", "fuzz-failures", "reproducer output directory")
	duration := flag.Float64("duration", 12, "max generated scenario length (emulated seconds)")
	inject := flag.String("inject", "", `seed a deliberate defect: "counter" or "seed"`)
	verbose := flag.Bool("v", false, "log every run")

	cli.Main("empower-fuzz", func(ctx context.Context) error {
		cfg := fuzz.Config{
			Runs:        *runs,
			Seed:        *seed,
			OutDir:      *out,
			MaxDuration: *duration,
			Inject:      fuzz.Inject(*inject),
		}
		switch cfg.Inject {
		case fuzz.InjectNone, fuzz.InjectCounter, fuzz.InjectSeed:
		default:
			return cli.Usagef("unknown -inject mode %q", *inject)
		}
		if *verbose {
			cfg.Log = func(format string, args ...interface{}) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			}
		}

		res, err := fuzz.RunCtx(ctx, cfg)
		if err != nil {
			return err
		}
		if f := res.Failure; f != nil {
			msg := fmt.Sprintf("run %d failed check %s\n  %s", f.Run, f.Check, f.Detail)
			if f.Repro != "" {
				msg += fmt.Sprintf("\n  reproducer: %s (timeline seed %d, emulation seed %d)",
					f.Repro, f.TimelineSeed, f.EmuSeed)
			}
			if f.Trace != "" {
				msg += fmt.Sprintf("\n  flight-recorder trace: %s (Chrome trace-event JSON; open in Perfetto)", f.Trace)
			}
			return errors.New(msg)
		}
		fmt.Printf("empower-fuzz: %d scenarios clean (seed %d)\n", res.Clean, *seed)
		return nil
	})
}
