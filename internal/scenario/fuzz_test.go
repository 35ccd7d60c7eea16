package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/node"
)

// FuzzParseBind feeds arbitrary bytes through Parse and, when they parse,
// binds the scenario (lenient) to a fixed two-domain network. Neither
// step may panic. Lenient binding drops what does not resolve, so the
// one Bind error is the timeline budget, and every dropped reference is
// reported by name. An accepted topology's view parses.
func FuzzParseBind(f *testing.F) {
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no example scenarios: %v", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"name":"reserved","duration":10,"flows":[{"name":"arrival-0-0","src":"s0","dst":"d0"}]}`))
	f.Add([]byte(`{"name":"hostile","duration":1e300,"flows":[{"name":"f","src":"s1","dst":"d1"}],
		"processes":[{"kind":"flap","link":{"from":"s0","to":"d0","tech":"wifi"},"down_mean":1,"up_mean":1}]}`))
	f.Add([]byte(`{"name":"view","duration":10,"topology":{"kind":"residential","view":"bogus"}}`))
	net := twoDomainNet(f)
	budget := fmt.Sprintf("budget of %d timeline events", maxTimelineEvents)
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Parse(data)
		if err != nil {
			return
		}
		if sc.Topology != nil {
			if _, err := ParseView(sc.Topology.View); err != nil {
				t.Fatalf("Parse accepted a topology whose view does not parse: %v", err)
			}
		}
		rt, err := Bind(node.NewEmulation(net, node.Config{}, 1), sc, 1, Options{})
		if err != nil {
			if !strings.Contains(err.Error(), budget) {
				t.Fatalf("lenient Bind failed with %v, want only the %s", err, budget)
			}
			return
		}
		for _, u := range rt.Unresolved {
			if !strings.Contains(u, `"`) {
				t.Errorf("unresolved reference not named: %s", u)
			}
		}
	})
}
