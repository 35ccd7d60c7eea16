// Command bench is the repository's benchmark: six process-level
// workloads — four CLI sweeps and two loops against the empower-fleet
// daemon — timed end to end with tracing off, plus a separate traced pass
// that attributes the time to layers. See bench/README.md for the
// workloads, the metrics and how they interact.
//
// Run it from the repository root:
//
//	go run ./bench                      whole suite -> bench/out/results.json
//	go run ./bench -workload sim-fig4   one workload, both passes
//	go run ./bench -quick               timed pass only, k = 1, short loops (< 45 s)
//	go run ./bench -aa                  suite twice; must agree within bounds
//	go run ./bench -compare old.json new.json
//
// BENCHMARK.json's command (bash bench/run.sh, which keeps the Go build
// cache inside the checkout) drives one pass of one workload:
//
//	... --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output, one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	workloadName := flag.String("workload", "", "run one workload (default: the whole suite)")
	seed := flag.Int64("seed", 1, "recorded in the results; every operation runs at program seed 1 so that every run measures the same work")
	seconds := flag.Float64("seconds", 10, "how long a timed loop measures")
	trace := flag.Int("trace", -1, "with -workload: 0 = timed pass only, 1 = traced pass only (default: both)")
	k := flag.Int("k", 3, "operations a CLI or fleet-flaps timed pass runs at least")
	quick := flag.Bool("quick", false, "timed pass only, k = 1, fleet loops / 10: a smoke run, not a measurement")
	compare := flag.Bool("compare", false, "compare two results files: -compare old.json new.json")
	aa := flag.Bool("aa", false, "run the suite twice on this tree and fail if they disagree beyond the bounds")
	flag.Parse()

	cfg := config{seed: *seed, seconds: *seconds, minOps: *k, quick: *quick}
	if cfg.quick {
		cfg.minOps, cfg.seconds = 1, 1
	}

	var err error
	switch {
	case *compare:
		err = runCompare(flag.Args())
	case *aa:
		err = runAA(cfg)
	case *workloadName != "" && *trace >= 0:
		err = runContract(*workloadName, cfg, *trace == 1)
	default:
		_, err = runSuite(cfg, *workloadName, filepath.Join(outDir, "results.json"))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// printPass prints a pass as `workload metric value unit` lines.
func printPass(name string, res passResult) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		line := fmt.Sprintf("%-15s %-30s %14.4f %-6s", name, n, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" n=%d", m.N)
		}
		if m.Note != "" {
			line += "  # " + m.Note
		}
		fmt.Println(line)
	}
	fmt.Printf("%-15s %-30s %14.4f %-6s failed=%d attempted=%d\n", name, "failed_frac",
		float64(res.Failed)/float64(max(1, res.Attempted)), "ratio", res.Failed, res.Attempted)
	for _, note := range res.Notes {
		fmt.Printf("%-15s note: %s\n", name, note)
	}
}

// runContract runs one pass of one workload and prints, as the last line
// of standard output, the JSON object BENCHMARK.json's driver reads.
func runContract(name string, cfg config, traced bool) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	machineStamp().warnIfLoaded()
	run := runTimed
	if traced {
		run = runTraced
	}
	res, err := run(w, cfg)
	if err != nil {
		return err
	}
	printPass(name, res)
	if !traced {
		delete(res.Metrics, tailMetric)
		for _, d := range endToEnd {
			if _, ok := res.Metrics[d.name]; !ok && d.name != tailMetric {
				return fmt.Errorf("%s: %s was not measured: %d of %d operations failed", name, d.name, res.Failed, res.Attempted)
			}
		}
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]value{}}
	for n, m := range res.Metrics {
		line.Metrics[n] = value{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", name, res.Failed, res.Attempted)
	}
	return nil
}

// suite runs both passes of the chosen workloads (all when only is
// empty), timed first.
func suite(cfg config, only string) (suiteResult, error) {
	st := machineStamp()
	st.warnIfLoaded()
	result := suiteResult{Stamp: st, Seed: cfg.seed,
		Seconds: cfg.seconds, MinOps: cfg.minOps, Quick: cfg.quick, Layers: layerTable()}
	if only != "" && findWorkload(only) == nil {
		return result, fmt.Errorf("unknown workload %q", only)
	}
	for _, w := range workloads {
		if only != "" && w.name != only {
			continue
		}
		timed, err := runTimed(w, cfg)
		if err != nil {
			return result, err
		}
		printPass(w.name, timed)
		var traced passResult
		if !cfg.quick {
			// The traced pass runs each operation several more times;
			// a smoke run cannot afford it.
			if traced, err = runTraced(w, cfg); err != nil {
				return result, err
			}
			printPass(w.name, traced)
		}
		result.Workloads = append(result.Workloads, workloadResult{Name: w.name, EndToEnd: timed, PerLayer: traced})
	}
	return result, nil
}

func (r suiteResult) failed() int {
	n := 0
	for _, w := range r.Workloads {
		n += w.EndToEnd.Failed + w.PerLayer.Failed
	}
	return n
}

// runSuite runs the suite and writes the results file.
func runSuite(cfg config, only, path string) (suiteResult, error) {
	result, err := suite(cfg, only)
	if err != nil {
		return result, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return result, err
	}
	if err := result.write(path); err != nil {
		return result, err
	}
	fmt.Printf("results: %s (commit %s, %s %s, %d CPUs, %s, load %.2f)\n", path, result.Stamp.Commit,
		result.Stamp.GoVersion, result.Stamp.GOARCH, result.Stamp.NumCPU, result.Stamp.CPUModel, result.Stamp.Load1)
	if n := result.failed(); n > 0 {
		return result, fmt.Errorf("%d operations failed their checks", n)
	}
	return result, nil
}

func runCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare takes two results files: old.json new.json")
	}
	old, err := readSuite(args[0])
	if err != nil {
		return err
	}
	cur, err := readSuite(args[1])
	if err != nil {
		return err
	}
	compareSuites(os.Stdout, old, cur)
	return nil
}

// runAA runs the whole suite twice on the same tree: every end-to-end
// metric must agree within its gate (the bound BENCHMARK.json declares;
// setup_s, informational, within its own) and every exact count must
// repeat, or the benchmark cannot tell a change from noise.
func runAA(cfg config) error {
	var runs [2]suiteResult
	for i := range runs {
		var err error
		path := filepath.Join(outDir, fmt.Sprintf("results-aa%d.json", i+1))
		if runs[i], err = runSuite(cfg, "", path); err != nil {
			return err
		}
	}
	beyond := compareSuites(os.Stdout, runs[0], runs[1])
	differ := compareCounts(os.Stdout, runs[0], runs[1])
	if beyond > 0 || differ > 0 {
		return fmt.Errorf("A/A disagreement: %d end-to-end metrics beyond their gate, %d exact counts differ", beyond, differ)
	}
	fmt.Println("A/A: every end-to-end metric within its gate, every exact count repeated")
	return nil
}
