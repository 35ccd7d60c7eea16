package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
)

func sha256hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// decodeDocs decodes a stream of JSON documents (empower-sim prints one
// per topology), keeping numbers as written.
func decodeDocs(out []byte) ([]map[string]any, error) {
	dec := json.NewDecoder(bytes.NewReader(out))
	dec.UseNumber()
	var docs []map[string]any
	for {
		var doc map[string]any
		err := dec.Decode(&doc)
		if err == io.EOF {
			return docs, nil
		}
		if err != nil {
			return nil, fmt.Errorf("output is not JSON: %w", err)
		}
		docs = append(docs, doc)
	}
}

// decodeOne decodes an output that must be exactly one JSON document.
func decodeOne(out []byte) (map[string]any, error) {
	docs, err := decodeDocs(out)
	if err != nil {
		return nil, err
	}
	if len(docs) != 1 {
		return nil, fmt.Errorf("%d JSON documents, want 1", len(docs))
	}
	return docs[0], nil
}

// checkFinite walks a decoded document and rejects any number that does
// not parse to a finite float64.
func checkFinite(v any, path string) error {
	switch x := v.(type) {
	case json.Number:
		f, err := x.Float64()
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
			return fmt.Errorf("%s: %q is not a finite number", path, x)
		}
	case map[string]any:
		for k, e := range x {
			if err := checkFinite(e, path+"."+k); err != nil {
				return err
			}
		}
	case []any:
		for i, e := range x {
			if err := checkFinite(e, fmt.Sprintf("%s[%d]", path, i)); err != nil {
				return err
			}
		}
	}
	return nil
}

// sampleSets checks a figure result's map of sample slices: the expected
// series names, each with between minLen and maxLen samples and all the
// same length.
func sampleSets(v any, names []string, minLen, maxLen int) error {
	sets, ok := v.(map[string]any)
	if !ok {
		return fmt.Errorf("sample sets: got %T, want an object", v)
	}
	if len(sets) != len(names) {
		return fmt.Errorf("sample sets: %d series, want %d", len(sets), len(names))
	}
	first := -1
	for _, name := range names {
		xs, ok := sets[name].([]any)
		if !ok {
			return fmt.Errorf("sample sets: series %q missing", name)
		}
		if first < 0 {
			first = len(xs)
		}
		if len(xs) != first || len(xs) < minLen || len(xs) > maxLen {
			return fmt.Errorf("sample sets: series %q has %d samples, want %d..%d and equal lengths",
				name, len(xs), minLen, maxLen)
		}
	}
	return nil
}

var (
	fig4Series = []string{"EMPoWER", "SP", "SP-WiFi", "MP-WiFi", "MP-mWiFi"}
	fig6Series = []string{"conservative opt", "EMPoWER", "MP-2bp", "MP-w/o-CC", "SP"}
)

// checkSim verifies empower-sim -json output: one envelope per topology
// with the expected figure, topology and seed, and the figure's sample
// sets. Figure 6 skips disconnected pairs, so its sets hold at most
// `runs` samples; Figure 4 holds exactly `runs`.
func checkSim(out []byte, fig string, topos []string, runs int, seed int64) error {
	docs, err := decodeDocs(out)
	if err != nil {
		return err
	}
	if len(docs) != len(topos) {
		return fmt.Errorf("%d JSON documents, want %d", len(docs), len(topos))
	}
	for i, doc := range docs {
		if doc["figure"] != fig || doc["topo"] != topos[i] || fmt.Sprint(doc["seed"]) != fmt.Sprint(seed) {
			return fmt.Errorf("document %d: figure=%v topo=%v seed=%v, want %s %s %d",
				i, doc["figure"], doc["topo"], doc["seed"], fig, topos[i], seed)
		}
		if err := checkFinite(doc, "doc"); err != nil {
			return err
		}
		result, _ := doc["result"].(map[string]any)
		if fig == "6" {
			err = sampleSets(result["Ratios"], fig6Series, 0, runs)
		} else {
			err = sampleSets(result["Samples"], fig4Series, runs, runs)
		}
		if err != nil {
			return fmt.Errorf("document %d: %w", i, err)
		}
	}
	return nil
}

// checkChurnResult verifies a churn-failover result document — the
// `.result` of empower-scenario -json and the body of the daemon's
// results endpoint share the schema.
func checkChurnResult(result map[string]any, scenarioName string, runs int, schemes []string) error {
	if result["scenario"] != scenarioName || fmt.Sprint(result["runs"]) != fmt.Sprint(runs) {
		return fmt.Errorf("result: scenario=%v runs=%v, want %s %d",
			result["scenario"], result["runs"], scenarioName, runs)
	}
	if err := checkFinite(result, "result"); err != nil {
		return err
	}
	rows, _ := result["rows"].([]any)
	if len(rows) != len(schemes) {
		return fmt.Errorf("result: %d rows, want %d", len(rows), len(schemes))
	}
	for i, r := range rows {
		row, _ := r.(map[string]any)
		if row["scheme"] != schemes[i] {
			return fmt.Errorf("result: row %d is scheme %v, want %s", i, row["scheme"], schemes[i])
		}
		if _, ok := row["latencies"].([]any); !ok && row["latencies"] != nil {
			return fmt.Errorf("result: row %d latencies is %T, want an array", i, row["latencies"])
		}
	}
	return nil
}

// checkScenario verifies empower-scenario -json output.
func checkScenario(out []byte, scenarioName string, runs int, schemes []string, seed int64) error {
	doc, err := decodeOne(out)
	if err != nil {
		return err
	}
	if doc["experiment"] != "churn-failover" || fmt.Sprint(doc["seed"]) != fmt.Sprint(seed) {
		return fmt.Errorf("experiment=%v seed=%v, want churn-failover %d", doc["experiment"], doc["seed"], seed)
	}
	result, _ := doc["result"].(map[string]any)
	return checkChurnResult(result, scenarioName, runs, schemes)
}

// checkFleetResult verifies the body of GET /sweeps/{id}/results.
func checkFleetResult(body []byte, scenarioName string, runs int, schemes []string) error {
	doc, err := decodeOne(body)
	if err != nil {
		return err
	}
	return checkChurnResult(doc, scenarioName, runs, schemes)
}

// canonicalJSON re-encodes a document with sorted keys and no
// insignificant whitespace, keeping numbers as written.
func canonicalJSON(v any) (string, error) {
	data, err := json.Marshal(v)
	return string(data), err
}

// churnResultOf extracts the churn-failover result from the daemon's
// results body (the result itself) or from empower-scenario's envelope
// (its `.result`), canonicalised.
func churnResultOf(out []byte) (string, error) {
	doc, err := decodeOne(out)
	if err != nil {
		return "", err
	}
	if result, ok := doc["result"]; ok {
		return canonicalJSON(result)
	}
	return canonicalJSON(doc)
}

// sameChurnResult reports whether two outputs carry the same result after
// canonicalisation: the daemon's body against the CLI's envelope, or two
// envelopes that differ in their observational parts.
func sameChurnResult(a, b []byte) error {
	ca, err := churnResultOf(a)
	if err != nil {
		return err
	}
	cb, err := churnResultOf(b)
	if err != nil {
		return err
	}
	if ca != cb {
		return fmt.Errorf("results differ: sha256 %s vs %s", sha256hex([]byte(ca)), sha256hex([]byte(cb)))
	}
	return nil
}

// golden pins, per workload, the sha256 of one operation's output at
// programSeed — the repository's "(spec, seed) -> byte-identical output"
// contract. Floating-point library routines differ between
// architectures, so the pins hold for one GOARCH.
type golden struct {
	GOARCH string            `json:"goarch"`
	SHA256 map[string]string `json:"sha256"`
}

const goldenPath = "bench/golden.json"

func loadGolden() (golden, error) {
	var g golden
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		return g, err
	}
	if err := json.Unmarshal(data, &g); err != nil {
		return g, fmt.Errorf("%s: %w", goldenPath, err)
	}
	return g, nil
}

// checkPin compares an output's hash with the workload's pin. skipped
// explains why no comparison was made (another GOARCH).
func (g golden) checkPin(workload string, out []byte) (skipped string, err error) {
	if g.GOARCH != runtime.GOARCH {
		return fmt.Sprintf("pins are for %s, this is %s", g.GOARCH, runtime.GOARCH), nil
	}
	got := sha256hex(out)
	want, ok := g.SHA256[workload]
	if !ok {
		return "", fmt.Errorf("%s has no pin for %s; output sha256 %s", goldenPath, workload, got)
	}
	if got != want {
		return "", fmt.Errorf("output sha256 %s, pinned %s", got, want)
	}
	return "", nil
}

// checkIdentical verifies two outputs of a workload are byte-identical.
func checkIdentical(first, other []byte) error {
	if !bytes.Equal(first, other) {
		return fmt.Errorf("output sha256 %s differs from the first op's %s", sha256hex(other), sha256hex(first))
	}
	return nil
}

func splitCSV(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		out = append(out, strings.TrimSpace(f))
	}
	return out
}
