package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

// maxSpecBytes bounds a submitted spec body; maxSweepReps bounds the
// flat replication count of one sweep (runs × schemes), since the store
// keeps one completion record per replication in memory.
const (
	maxSpecBytes = 8 << 20
	maxSweepReps = 1_000_000
)

// SpecError is a structured rejection of a sweep spec: which field is
// wrong and why. The gateway renders it as a 400 body instead of a
// generic 500, so a client can fix its request without reading daemon
// logs.
type SpecError struct {
	Field  string `json:"field"`
	Reason string `json:"reason"`
}

func (e *SpecError) Error() string {
	return fmt.Sprintf("fleet: bad spec: field %q: %s", e.Field, e.Reason)
}

func specErr(field, format string, args ...any) *SpecError {
	return &SpecError{Field: field, Reason: fmt.Sprintf(format, args...)}
}

// rawSpec is the submission schema of POST /sweeps. It reuses the
// repository's strict-parsing convention end to end: unknown fields at
// this level and inside the embedded scenario are rejected, so a typo'd
// knob fails loudly at submission instead of silently running a
// different experiment.
type rawSpec struct {
	// Name is an optional human label echoed in status responses.
	Name string `json:"name,omitempty"`
	// Scenario is the inline scenario object, exactly the schema of the
	// scenario JSON files (examples/scenarios/, DESIGN.md).
	Scenario json.RawMessage `json:"scenario"`
	// Runs is the number of scenario replications per scheme (default 20).
	Runs int `json:"runs,omitempty"`
	// Seed is the base RNG seed; (spec, seed) fully determines results.
	Seed int64 `json:"seed,omitempty"`
	// Schemes is a comma-separated scheme list, or "all"/empty for all
	// eight §5.1 schemes.
	Schemes string `json:"schemes,omitempty"`
	// Delta is the congestion-control constraint margin δ, used as given:
	// an omitted delta runs δ = 0, whereas empower-scenario's -delta flag
	// defaults to 0.05 — pass "delta": 0.05 to reproduce a CLI run. (The
	// behaviour is persisted in WALs and pinned by the fleet goldens.)
	Delta float64 `json:"delta,omitempty"`
	// Bin and Frac mirror the empower-scenario flags; 0 or omitted means
	// the same defaults as the CLI (0.2 s, 0.8).
	Bin  float64 `json:"bin,omitempty"`
	Frac float64 `json:"frac,omitempty"`
	// Manage attaches the route manager to CC schemes (default true).
	Manage *bool `json:"manage,omitempty"`
	// Invariants attaches the runtime invariant checker per replication.
	Invariants bool `json:"invariants,omitempty"`
}

// SweepSpec is a validated sweep: the raw bytes the WAL persists plus
// everything derived from them. Derivation is a pure function of Raw,
// so a spec replayed after a crash rebuilds the identical sweep.
type SweepSpec struct {
	Raw      []byte
	Name     string
	Scenario *scenario.Scenario
	// Churn holds the knobs that influence results; the supervisor
	// attaches the observability hooks to a copy per execution.
	Churn experiments.ChurnConfig
	// Total is the flat replication count: runs × schemes.
	Total int
}

// ParseSpec strictly parses and validates a sweep submission. Every
// rejection is a *SpecError naming the offending field.
func ParseSpec(data []byte) (*SweepSpec, error) {
	if len(data) == 0 {
		return nil, specErr("", "empty body")
	}
	if len(data) > maxSpecBytes {
		return nil, specErr("", "spec body exceeds %d bytes", maxSpecBytes)
	}
	var raw rawSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&raw); err != nil {
		return nil, decodeSpecError(err)
	}
	// Trailing garbage after the object is a malformed request, not a
	// second document.
	if dec.More() {
		return nil, specErr("", "trailing data after spec object")
	}

	if len(raw.Scenario) == 0 || string(raw.Scenario) == "null" {
		return nil, specErr("scenario", "required: inline scenario object")
	}
	sc, err := scenario.Parse(raw.Scenario)
	if err != nil {
		return nil, specErr("scenario", "%v", err)
	}
	if sc.Topology == nil {
		return nil, specErr("scenario.topology", "required: sweeps need self-contained scenarios")
	}
	schemes, err := experiments.ParseSchemes(raw.Schemes)
	if err != nil {
		return nil, specErr("schemes", "%v", err)
	}
	spec := &SweepSpec{
		Raw:      append([]byte(nil), data...),
		Name:     raw.Name,
		Scenario: sc,
		Churn: experiments.ChurnConfig{
			Seed: raw.Seed, Runs: raw.Runs, Schemes: schemes, Delta: raw.Delta,
			Bin: raw.Bin, Frac: raw.Frac, ManageRoutes: raw.Manage == nil || *raw.Manage,
			Invariants: raw.Invariants,
		},
	}
	if field, reason := spec.Churn.CheckRanges(); field != "" {
		return nil, &SpecError{Field: field, Reason: reason}
	}
	spec.Total = experiments.ChurnReps(spec.Churn)
	if spec.Total > maxSweepReps {
		return nil, specErr("runs", "%d replications (runs × schemes) exceed the per-sweep cap %d",
			spec.Total, maxSweepReps)
	}
	return spec, nil
}

// decodeSpecError maps an encoding/json error onto the offending field
// where the stdlib exposes one.
func decodeSpecError(err error) *SpecError {
	var typeErr *json.UnmarshalTypeError
	if errors.As(err, &typeErr) {
		field := typeErr.Field
		if field == "" {
			field = "(body)"
		}
		return specErr(field, "expected %s, got %s", typeErr.Type, typeErr.Value)
	}
	var synErr *json.SyntaxError
	if errors.As(err, &synErr) {
		return specErr("", "malformed JSON at byte %d: %v", synErr.Offset, synErr)
	}
	// DisallowUnknownFields produces an unexported error type; recover
	// the field name from its fixed message shape.
	msg := err.Error()
	if rest, ok := strings.CutPrefix(msg, `json: unknown field `); ok {
		return specErr(strings.Trim(rest, `"`), "unknown field")
	}
	return specErr("", "%v", err)
}
