package fleet

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseSpec feeds arbitrary bytes to the POST /sweeps parser. It never
// panics, every rejection is a *SpecError, and an accepted spec derives
// 1 ≤ Total ≤ maxSweepReps replications, on which newSweep does not panic
// either: the store appends a spec to the WAL before it builds the sweep,
// so a spec that parses but cannot be built would stop every restart.
func FuzzParseSpec(f *testing.F) {
	paths, err := filepath.Glob("../../examples/sweeps/*.json")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no example sweeps: %v", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseSpec(data)
		if err != nil {
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("rejection %v (%T) is not a *SpecError", err, err)
			}
			return
		}
		if spec.Total < 1 || spec.Total > maxSweepReps {
			t.Fatalf("accepted spec derives %d replications, want 1..%d", spec.Total, maxSweepReps)
		}
		newSweep("sweep-000001", spec)
	})
}
