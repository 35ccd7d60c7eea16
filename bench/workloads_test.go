package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// The harness addresses its files from the repository root, where
// BENCHMARK.json's command runs it.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// TestWorkloadInputsParse is the schema-drift guard: every frozen input
// must still load with the repository's own strict parsers, and every
// generated variant of it too.
func TestWorkloadInputsParse(t *testing.T) {
	entries, err := os.ReadDir(workloadDir)
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	for _, w := range workloads {
		used[w.input] = true
	}
	for _, e := range entries {
		path := filepath.Join(workloadDir, e.Name())
		if !used[e.Name()] {
			t.Errorf("%s belongs to no workload", path)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(e.Name(), "sweep-") {
			if _, err := parseSpec(data); err != nil {
				t.Errorf("%s: %v", path, err)
			}
		} else if err := loadScenario(path); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
}

// TestGeneratedInputs checks what writeInputs derives from the frozen
// copies: the warm-up scenario, and for fleet workloads the extracted
// scenario and the two request bodies with their seeds and sizes.
func TestGeneratedInputs(t *testing.T) {
	for _, w := range workloads { // files land under the git-ignored buildDir
		in, err := writeInputs(w)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if w.input == "" {
			continue
		}
		for _, path := range []string{in.scenarioPath, in.warmPath} {
			if err := loadScenario(path); err != nil {
				t.Errorf("%s: %s: %v", w.name, path, err)
			}
		}
		var warm struct {
			Name     string  `json:"name"`
			Duration float64 `json:"duration"`
		}
		data, _ := os.ReadFile(in.warmPath)
		if err := json.Unmarshal(data, &warm); err != nil || warm.Duration != warmDuration || warm.Name != w.scenario {
			t.Errorf("%s: warm-up scenario = %+v (%v), want %q cut to %d s", w.name, warm, err, w.scenario, warmDuration)
		}
		if !w.fleet() {
			continue
		}
		if reps, err := parseSpec(in.specBody); err != nil || reps != w.reps {
			t.Errorf("%s: spec body: %d replications (%v), want %d", w.name, reps, err, w.reps)
		}
		if reps, err := parseSpec(in.warmBody); err != nil || reps != len(splitCSV(w.warmSchemes)) {
			t.Errorf("%s: warm-up body: %d replications (%v), want one per scheme", w.name, reps, err)
		}
		for _, body := range [][]byte{in.specBody, in.warmBody} {
			var spec struct {
				Seed    int64  `json:"seed"`
				Schemes string `json:"schemes"`
			}
			if err := json.Unmarshal(body, &spec); err != nil || spec.Seed != programSeed || spec.Schemes != w.schemes {
				t.Errorf("%s: request body = %+v (%v), want seed %d and schemes %s", w.name, spec, err, programSeed, w.schemes)
			}
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, the driver's view
// of the benchmark, in step with the tables the harness reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d = %+v, want %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why has %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d] = %+v, want %s %s %s", kind, i, g, d.name, d.unit, d.better)
			}
			if bounded && (g.Bound == nil || *g.Bound != declaredBound) {
				t.Errorf("%s[%d] %s: bound %v, want %v", kind, i, d.name, g.Bound, declaredBound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s[%d] %s: per-layer metrics have no bound", kind, i, d.name)
			}
		}
	}
	declared := slices.DeleteFunc(slices.Clone(endToEnd), func(d metricDef) bool { return d.name == tailMetric })
	check("end_to_end", doc.EndToEnd, declared, true)
	check("per_layer", doc.PerLayer, perLayer, false)

	known := map[string]bool{}
	for _, d := range perLayer {
		known[d.name] = true
	}
	for _, name := range exactCounts {
		if !known[name] {
			t.Errorf("exact count %s is not a per-layer metric", name)
		}
	}
}

// TestGoldenPinsEveryWorkload keeps the pin file complete.
func TestGoldenPinsEveryWorkload(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	if len(g.SHA256) != len(workloads) {
		t.Errorf("%d pins for %d workloads", len(g.SHA256), len(workloads))
	}
	for _, w := range workloads {
		if len(g.SHA256[w.name]) != 64 {
			t.Errorf("%s: pin %q is not a sha256", w.name, g.SHA256[w.name])
		}
	}
}

// TestQuickBurstSmoke drives the smallest workload end to end — build,
// daemon, two clients, checks, drain — so that CLI or HTTP drift shows up
// in the test suite and not first in a benchmark run.
func TestQuickBurstSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binaries and runs a daemon")
	}
	w := findWorkload("fleet-burst")
	res, err := runTimed(w, config{seconds: 1, minOps: 1, quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Attempted < 20 {
		t.Fatalf("failed %d of %d attempted (want >= 20): %v", res.Failed, res.Attempted, res.Notes)
	}
	for _, d := range endToEnd {
		m, ok := res.Metrics[d.name]
		if d.name == tailMetric && !supportsPercentile(res.Attempted, 95) {
			if ok {
				t.Errorf("%s = %+v from %d operations, want it absent", tailMetric, m, res.Attempted)
			}
			continue
		}
		if m.Value <= 0 || m.Unit != d.unit {
			t.Errorf("%s = %+v, want a positive value in %s", d.name, m, d.unit)
		}
	}
}
