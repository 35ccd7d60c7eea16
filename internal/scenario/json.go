package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// Load reads and validates a scenario from a JSON file. The schema is
// the JSON encoding of the Scenario struct; DESIGN.md documents it field
// by field and examples/scenarios/ ships runnable files.
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return Parse(data)
}

// Parse decodes and validates a JSON scenario. Unknown fields are
// rejected so typos in hand-written files fail loudly instead of
// silently disabling dynamics.
func Parse(data []byte) (*Scenario, error) {
	var sc Scenario
	if err := decodeStrict(data, &sc); err != nil {
		return nil, err
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// LoadTopology reads a bare topology — the value of a scenario's
// "topology" key, decoded and validated as strictly — from a JSON file:
// the input of empower-route -topo.
func LoadTopology(path string) (*TopologySpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return parseTopology(data)
}

// parseTopology decodes and validates a bare topology (LoadTopology).
func parseTopology(data []byte) (*TopologySpec, error) {
	var t TopologySpec
	if err := decodeStrict(data, &t); err != nil {
		return nil, err
	}
	if err := t.validate(); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return &t, nil
}

func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("scenario: parse: %w", err)
	}
	return nil
}

// Save writes the scenario as indented JSON.
func (s *Scenario) Save(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("scenario: encode: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
