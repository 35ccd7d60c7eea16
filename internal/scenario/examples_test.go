package scenario

import (
	"path/filepath"
	"testing"

	"repro/internal/node"
	"repro/internal/topology"
)

// TestExampleScenariosLoadAndBind is the schema-drift guard: every JSON
// shipped under examples/scenarios must parse through the strict
// schema, validate, build its topology, and bind onto a fresh emulation
// with every reference resolved. A field rename or a new event kind
// that forgets the JSON plumbing breaks loudly here, not in a user's
// terminal.
func TestExampleScenariosLoadAndBind(t *testing.T) {
	files, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 4 {
		t.Fatalf("found %d example scenarios, want at least flaps/churn/clusters/grayfail", len(files))
	}
	for _, path := range files {
		t.Run(filepath.Base(path), func(t *testing.T) {
			sc, err := Load(path)
			if err != nil {
				t.Fatal(err)
			}
			if sc.Topology == nil {
				t.Fatal("example scenario ships without a topology")
			}
			net, err := sc.Topology.BuildView(1, topology.ViewHybrid)
			if err != nil {
				t.Fatal(err)
			}
			em := node.NewEmulation(net, node.Config{Estimation: true}, 1)
			rt, err := Bind(em, sc, 1, Options{Strict: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(rt.Unresolved) != 0 {
				t.Fatalf("unresolved references: %v", rt.Unresolved)
			}
		})
	}
}
