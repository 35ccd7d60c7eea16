package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// workload is one set of inputs the benchmark runs. Every workload is a
// closed loop: the next operation starts when the previous one returned.
// The program under test always has one worker: CLI workloads run one
// process at a time with -parallel 1, fleet workloads run `clients` HTTP
// clients against one daemon at -workers 1. The sandbox has two shared
// vCPUs, and a second worker leaves none for the gateway's handlers and
// the harness: fleet-burst at -workers 2 spread 14-27 % between identical
// runs on op_ms_p50, at -workers 1 about 4 %.
type workload struct {
	name string
	why  string

	// CLI workloads: the binary and its arguments without -seed, and the
	// arguments of the tiny warm-up operation.
	bin      string
	args     []string
	warmArgs []string
	// Sim workloads: what the output must hold.
	fig   string
	topos []string
	runs  int
	// Scenario and fleet workloads: the frozen input under
	// bench/workloads, the scenario's name and the scheme list.
	input    string
	scenario string
	schemes  string

	// Fleet workloads: concurrent clients; 0 marks a CLI workload.
	clients int

	// warmRuns and warmSchemes size the warm-up operation.
	warmRuns    int
	warmSchemes string

	// reps is the replications one operation completes. minOps is the
	// operations a timed pass runs at least; 0 leaves it to the -k flag,
	// and fleet-burst's 200 lets it report a p95 under the
	// ten-samples-beyond rule.
	reps   int
	minOps int
}

func (w *workload) fleet() bool { return w.clients > 0 }

const (
	binSim      = "empower-sim"
	binScenario = "empower-scenario"
	binFleet    = "empower-fleet"

	workloadDir = "bench/workloads"
	// buildDir holds everything a run leaves behind: binaries, generated
	// inputs, WAL directories. It is inside the checkout and git-ignored.
	buildDir = ".bench_build"
	outDir   = "bench/out"

	defaultSchemes = "EMPoWER,SP,MP-w/o-CC,SP-w/o-CC" // empower-scenario's default
	// warmDuration is the emulated seconds of a warm-up replication.
	warmDuration = 3
)

var workloads = []*workload{
	{
		name: "sim-fig4",
		why:  "paper section 5 analytic pipeline: topology, graph, routing and congestion do all the work; where routing or controller gains must show",
		bin:  binSim, fig: "4", topos: []string{"residential", "enterprise"}, runs: 125,
		args:     []string{"-fig", "4", "-topo", "both", "-runs", "125", "-parallel", "1", "-json"},
		warmArgs: []string{"-fig", "4", "-topo", "both", "-runs", "2", "-parallel", "1", "-json"},
		warmRuns: 2, reps: 250,
	},
	{
		name: "sim-fig6",
		why:  "same CLI and runner, but optimal (path enumeration + convex solver) dominates; routing and controller gains must show no change here",
		bin:  binSim, fig: "6", topos: []string{"residential"}, runs: 5,
		args:     []string{"-fig", "6", "-topo", "residential", "-runs", "5", "-parallel", "1", "-json"},
		warmArgs: []string{"-fig", "6", "-topo", "residential", "-runs", "1", "-parallel", "1", "-json"},
		warmRuns: 1, reps: 5,
	},
	{
		name: "churn-testbed",
		why:  "paper section 6 packet emulation on the 22-node testbed with churn, drift and Poisson arrivals: large MAC and heap state, one CC and one no-CC scheme",
		bin:  binScenario, input: "churn.json", scenario: "testbed-churn", runs: 1, schemes: "EMPoWER,MP-w/o-CC",
		args:     []string{"-runs", "1", "-schemes", "EMPoWER,MP-w/o-CC", "-parallel", "1", "-json"},
		warmArgs: []string{"-runs", "1", "-schemes", "EMPoWER", "-parallel", "1", "-json"},
		warmRuns: 1, warmSchemes: "EMPoWER", reps: 2,
	},
	{
		name: "churn-clusters",
		why:  "four disjoint interference domains and many short replications: bind/build cost and the domain-decomposed engine carry weight; no -shards flag",
		bin:  binScenario, input: "clusters.json", scenario: "wifi-clusters", runs: 5, schemes: defaultSchemes,
		args:     []string{"-runs", "5", "-parallel", "1", "-json"},
		warmArgs: []string{"-runs", "1", "-schemes", "EMPoWER", "-parallel", "1", "-json"},
		warmRuns: 1, warmSchemes: "EMPoWER", reps: 20,
	},
	{
		name:  "fleet-flaps",
		why:   "the daemon path with compute-dominated replications (~0.3 s each): WAL and gateway share ~0, so their optimisation must show no change here",
		input: "sweep-flaps.json", scenario: "plc-flaps", runs: 5, schemes: "EMPoWER,SP,SP-w/o-CC",
		warmRuns: 1, warmSchemes: "EMPoWER,SP,SP-w/o-CC", clients: 1, reps: 15,
	},
	{
		name:  "fleet-burst",
		why:   "the smallest sweep for the service (~6 ms replications): spec parse, per-record fsync, pick-up and merge are ~25 % of sweep time; where WAL and gateway work must show",
		input: "sweep-burst.json", scenario: "plc-flaps-burst", runs: 4, schemes: "EMPoWER,SP",
		warmRuns: 1, warmSchemes: "EMPoWER,SP", clients: 2, reps: 8, minOps: 200,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// programSeed is the -seed / spec "seed" of every operation. It is a
// constant so that every run measures the same work: the work a program
// seed draws varies by tens of percent (sim-fig6: 3.6-5.4 s,
// churn-testbed: 3.1-4.4 s over seeds 1-8), which no regression bound
// would survive, and the sha256 pins of golden.json hold at this seed.
const programSeed int64 = 1

// config is what the command line fixes for a run.
type config struct {
	// seed is the harness argument -seed. It is recorded in the results
	// and changes no input: see programSeed.
	seed    int64
	seconds float64
	minOps  int // lower bound on CLI operations per timed pass (-k)
	quick   bool
}

// opCount returns the operations a timed pass of w runs at least.
func (c config) opCount(w *workload) int {
	n := w.minOps
	if n == 0 {
		n = c.minOps
	}
	if c.quick {
		n = max(1, n/10)
	}
	return n
}

func binPath(name string) string { return filepath.Join(buildDir, "bin", name) }

func runDir(w *workload) string { return filepath.Join(buildDir, "run", w.name) }

// buildBinaries compiles the six commands into buildDir/bin. With a warm
// build cache this only checks that they are up to date.
func buildBinaries() error {
	if _, err := os.Stat("go.mod"); err != nil {
		return fmt.Errorf("run the benchmark from the repository root: %w", err)
	}
	cmd := exec.Command("go", "build", "-o", filepath.Join(buildDir, "bin")+string(filepath.Separator), "./cmd/...")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build ./cmd/...: %w", err)
	}
	return nil
}

// withDuration returns a scenario document with its duration replaced —
// the warm-up input.
func withDuration(scenarioJSON []byte, seconds float64) ([]byte, error) {
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(scenarioJSON, &doc); err != nil {
		return nil, err
	}
	doc["duration"] = json.RawMessage(strconv.FormatFloat(seconds, 'g', -1, 64))
	return json.Marshal(doc)
}

// inputs are the files and request bodies a workload's operations use,
// generated from the frozen copies under bench/workloads.
type inputs struct {
	scenarioPath string // frozen scenario (CLI) or the spec's scenario, extracted (fleet)
	warmPath     string // the same scenario cut to warmDuration seconds
	specBody     []byte // fleet: submission body
	warmBody     []byte // fleet: one run of the warm-up scenario
}

// writeInputs generates a workload's inputs under its run directory.
func writeInputs(w *workload) (inputs, error) {
	var in inputs
	if w.input == "" {
		return in, nil
	}
	dir := runDir(w)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return in, err
	}
	frozen, err := os.ReadFile(filepath.Join(workloadDir, w.input))
	if err != nil {
		return in, err
	}
	scenarioJSON := frozen
	in.scenarioPath = filepath.Join(workloadDir, w.input)
	var spec map[string]json.RawMessage
	if w.fleet() {
		if err := json.Unmarshal(frozen, &spec); err != nil {
			return in, fmt.Errorf("%s: %w", w.input, err)
		}
		scenarioJSON = spec["scenario"]
		in.scenarioPath = filepath.Join(dir, "scenario.json")
		if err := os.WriteFile(in.scenarioPath, scenarioJSON, 0o644); err != nil {
			return in, err
		}
	}
	warm, err := withDuration(scenarioJSON, warmDuration)
	if err != nil {
		return in, fmt.Errorf("%s: %w", w.input, err)
	}
	in.warmPath = filepath.Join(dir, "warmup.json")
	if err := os.WriteFile(in.warmPath, warm, 0o644); err != nil {
		return in, err
	}
	if w.fleet() {
		spec["seed"] = json.RawMessage(strconv.FormatInt(programSeed, 10))
		if in.specBody, err = json.Marshal(spec); err != nil {
			return in, err
		}
		spec["runs"] = json.RawMessage("1")
		spec["scenario"] = warm
		if in.warmBody, err = json.Marshal(spec); err != nil {
			return in, err
		}
	}
	return in, nil
}

// opResult is one operation's outcome.
type opResult struct {
	wall  time.Duration
	cpu   time.Duration // CLI: the child's user+system time
	rssKB int64         // CLI: the child's peak RSS
	out   []byte        // stdout (CLI) or results body (fleet)
	err   error
}

// runCLI executes one process and reads its stdout fully: the operation
// lasts from exec to exit.
func runCLI(bin string, args ...string) opResult {
	cmd := exec.Command(binPath(bin), args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	res := opResult{wall: time.Since(start), out: stdout.Bytes()}
	if cmd.ProcessState != nil { // nil when the process never started
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			res.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
			res.rssKB = ru.Maxrss
		}
	}
	if err != nil {
		res.err = fmt.Errorf("%s: %w: %s", bin, err, bytes.TrimSpace(stderr.Bytes()))
	}
	return res
}

// cliArgs assembles an operation's arguments: the scenario (if any), the
// workload's fixed arguments, the seed and any extra observational flags.
func cliArgs(scenarioPath string, fixed []string, extra ...string) []string {
	var args []string
	if scenarioPath != "" {
		args = append(args, "-scenario", scenarioPath)
	}
	args = append(args, fixed...)
	args = append(args, "-seed", strconv.FormatInt(programSeed, 10))
	return append(args, extra...)
}

// checkOutput applies the shape checks to one operation's output.
func checkOutput(w *workload, out []byte, runs int, schemes string) error {
	switch {
	case w.fleet():
		return checkFleetResult(out, w.scenario, runs, splitCSV(schemes))
	case w.bin == binSim:
		return checkSim(out, w.fig, w.topos, runs, programSeed)
	default:
		return checkScenario(out, w.scenario, runs, splitCSV(schemes), programSeed)
	}
}
