package main

import (
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricDef{name: "op_ms_p50", better: "lower", bound: 0.08}
	higher := metricDef{name: "reps_per_s", better: "higher", bound: 0.08}
	m := func(v float64, samples ...float64) measurement { return measurement{Value: v, Samples: samples} }
	cases := []struct {
		name     string
		def      metricDef
		old, cur measurement
		want     string
	}{
		{"steady", lower, m(100, 99, 100, 101), m(103, 102, 103, 104), verdictWithin},
		{"slower", lower, m(100, 99, 100, 101), m(120, 119, 120, 121), verdictRegressed},
		{"faster", lower, m(100, 99, 100, 101), m(80, 79, 80, 81), verdictImproved},
		{"rate fell", higher, m(50, 49, 50, 51), m(40, 39, 40, 41), verdictRegressed},
		{"rate rose", higher, m(50, 49, 50, 51), m(60, 59, 60, 61), verdictImproved},
		// Spread wider than the bound and the change, and the runs
		// overlap: noise could hide or fake the change.
		{"noisy overlap", lower, m(100, 80, 100, 125), m(115, 95, 115, 140), verdictUnresolved},
		{"noisy steady", lower, m(100, 80, 100, 125), m(103, 83, 103, 128), verdictUnresolved},
		// Just as noisy and overlapping, but the change is wider still.
		{"noisy yet clear", lower, m(100, 80, 100, 125), m(140, 120, 140, 165), verdictRegressed},
		// Just as noisy, but every new run is better than every old one.
		{"noisy separated", lower, m(100, 80, 100, 125), m(60, 50, 60, 70), verdictImproved},
		{"no samples", lower, m(100), m(130), verdictRegressed},
	}
	for _, c := range cases {
		if _, got := judge(c.def, c.old, c.cur); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	if worse, _ := judge(higher, m(50), m(40)); worse < 0.19 || worse > 0.21 {
		t.Errorf("a rate falling 50 -> 40 is 20%% worse, got %v", worse)
	}
}

func TestCompareSuites(t *testing.T) {
	suiteOf := func(p50, events float64) suiteResult {
		e2e := measurements{"op_ms_p50": {Value: p50, Samples: []float64{p50 - 1, p50, p50 + 1}}}
		layers := measurements{"sim.events": {Value: events}}
		return suiteResult{Workloads: []workloadResult{{
			Name: "churn-testbed", EndToEnd: passResult{Metrics: e2e}, PerLayer: passResult{Metrics: layers},
		}}}
	}
	var out strings.Builder
	if beyond := compareSuites(&out, suiteOf(100, 5), suiteOf(110, 5)); beyond != 0 {
		t.Errorf("10%% is within the A/A gate, got %d beyond:\n%s", beyond, out.String())
	}
	if !strings.Contains(out.String(), verdictRegressed) || strings.Contains(out.String(), "op_ms_p95") {
		t.Errorf("10%% is beyond op_ms_p50's bound, and an unmeasured metric has no row:\n%s", out.String())
	}
	out.Reset()
	if beyond := compareSuites(&out, suiteOf(100, 5), suiteOf(140, 5)); beyond != 1 {
		t.Errorf("40%% is beyond the A/A gate, got %d beyond:\n%s", beyond, out.String())
	}
	if !strings.Contains(out.String(), "1.4000 of 100") || !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("the table must give the ratio with its base and the verdict:\n%s", out.String())
	}
	out.Reset()
	if differ := compareCounts(&out, suiteOf(100, 5), suiteOf(100, 6)); differ != 1 {
		t.Errorf("a changed exact count must be reported, got %d:\n%s", differ, out.String())
	}
	if differ := compareCounts(&out, suiteOf(100, 5), suiteOf(130, 5)); differ != 0 {
		t.Errorf("equal counts must pass, got %d", differ)
	}
}
