package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// workloadResult is one workload's two passes.
type workloadResult struct {
	Name     string     `json:"name"`
	EndToEnd passResult `json:"end_to_end"`
	PerLayer passResult `json:"per_layer"`
}

// layerDoc is one row of the per-layer table: what the metric should
// move, where, and where the prediction is no change.
type layerDoc struct {
	Name     string `json:"name"`
	Unit     string `json:"unit"`
	Better   string `json:"better"`
	Moves    string `json:"should_move"`
	On       string `json:"on"`
	NoChange string `json:"no_change_on,omitempty"`
}

func layerTable() []layerDoc {
	table := make([]layerDoc, len(perLayer))
	for i, d := range perLayer {
		table[i] = layerDoc{d.name, d.unit, d.better, d.moves, d.on, d.noChange}
	}
	return table
}

// suiteResult is the content of bench/out/results.json.
type suiteResult struct {
	Stamp     stamp            `json:"machine"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	MinOps    int              `json:"k"`
	Quick     bool             `json:"quick"`
	Workloads []workloadResult `json:"workloads"`
	Layers    []layerDoc       `json:"per_layer_table"`
}

func (r suiteResult) workload(name string) (workloadResult, bool) {
	for _, w := range r.Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadResult{}, false
}

func (r suiteResult) write(path string) error {
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readSuite(path string) (suiteResult, error) {
	var r suiteResult
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// Verdicts of a comparison.
const (
	verdictImproved   = "improved"
	verdictRegressed  = "regressed"
	verdictWithin     = "within-bound"
	verdictUnresolved = "unresolved"
)

// overlap reports whether the sample ranges of two measurements meet. A
// measurement without samples is the single point of its value.
func overlap(a, b measurement) bool {
	span := func(m measurement) (lo, hi float64) {
		if len(m.Samples) == 0 {
			return m.Value, m.Value
		}
		return slices.Min(m.Samples), slices.Max(m.Samples)
	}
	aLo, aHi := span(a)
	bLo, bHi := span(b)
	return aLo <= bHi && bLo <= aHi
}

// judge compares one metric between two results. worse is the change as
// a share of the old value, positive when the new value is worse. A
// change beyond the bound is improved or regressed, a smaller one
// within-bound — unless the per-operation spread of either run exceeds
// both the change and the bound while the runs overlap: then the noise
// could hide or fake the change and it is unresolved.
func judge(def metricDef, old, cur measurement) (worse float64, verdict string) {
	worse = (cur.Value - old.Value) / math.Abs(old.Value)
	if def.better == "higher" {
		worse = -worse
	}
	noise := math.Max(spread(old.Samples), spread(cur.Samples))
	switch {
	case noise > math.Max(math.Abs(worse), def.bound) && overlap(old, cur):
		verdict = verdictUnresolved
	case worse > def.bound:
		verdict = verdictRegressed
	case worse < -def.bound:
		verdict = verdictImproved
	default:
		verdict = verdictWithin
	}
	return worse, verdict
}

// compareSuites prints the noise-aware delta table — per workload and
// end-to-end metric: old and new medians, the ratio with its base, the
// bound and the verdict — and returns how many metrics differ, in either
// direction, by more than the gate -aa holds two runs of one tree to. A
// metric either run did not measure (op_ms_p95 below 200 operations) has
// no row.
func compareSuites(out io.Writer, old, cur suiteResult) int {
	beyond := 0
	fmt.Fprintf(out, "%-15s %-15s %12s %12s %18s %7s  %s\n",
		"workload", "metric", "old", "new", "new/old", "bound", "verdict")
	for _, w := range workloads {
		o, okOld := old.workload(w.name)
		c, okNew := cur.workload(w.name)
		if !okOld || !okNew {
			continue
		}
		for _, def := range endToEnd {
			om, okOld := o.EndToEnd.Metrics[def.name]
			cm, okNew := c.EndToEnd.Metrics[def.name]
			if !okOld || !okNew {
				continue
			}
			worse, verdict := judge(def, om, cm)
			if math.Abs(worse) > def.gate() {
				beyond++
			}
			fmt.Fprintf(out, "%-15s %-15s %12.4f %12.4f %8.4f of %-7.4g %6.0f%%  %s\n",
				w.name, def.name, om.Value, cm.Value, cm.Value/om.Value, om.Value, 100*def.bound, verdict)
		}
	}
	return beyond
}

// compareCounts prints every exact-count layer metric that differs
// between two results of the same tree and returns how many do.
func compareCounts(out io.Writer, a, b suiteResult) int {
	differ := 0
	for _, w := range workloads {
		x, okA := a.workload(w.name)
		y, okB := b.workload(w.name)
		if !okA || !okB {
			continue
		}
		for _, name := range exactCounts {
			if xv, yv := x.PerLayer.Metrics[name].Value, y.PerLayer.Metrics[name].Value; xv != yv {
				differ++
				fmt.Fprintf(out, "%-15s %-22s %v != %v: a seeded count did not repeat\n", w.name, name, xv, yv)
			}
		}
	}
	return differ
}
