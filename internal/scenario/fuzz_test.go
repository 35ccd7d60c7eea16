package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/node"
	"repro/internal/topology"
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

// FuzzLoadTopology feeds arbitrary bytes to LoadTopology's decode and
// validate step, seeded with the topologies of the example scenarios.
// Neither step may panic, and a topology it accepts builds under every
// view into a network or an error, never a panic.
func FuzzLoadTopology(f *testing.F) {
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no example scenarios: %v", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		var sc struct {
			Topology json.RawMessage `json:"topology"`
		}
		if err := json.Unmarshal(data, &sc); err != nil || len(sc.Topology) == 0 {
			f.Fatalf("%s: no topology: %v", p, err)
		}
		f.Add([]byte(sc.Topology))
	}
	f.Add([]byte(`{"kind":"custom","nodes":[{"name":"a","techs":[]},{"name":"b","techs":["wifi"]}],
		"links":[{"from":"a","to":"b","tech":"plc","capacity":1}],"sense_radius":{"wifi":1e-300}}`))
	f.Add([]byte(`{"kind":"residential","view":"wifi-dual"}`))
	views := []topology.View{topology.ViewHybrid, topology.ViewWiFiSingle, topology.ViewWiFiDual}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := parseTopology(data)
		if err != nil {
			return
		}
		for _, v := range views {
			net, err := spec.BuildView(1, v)
			if (net == nil) == (err == nil) {
				t.Fatalf("view %v: BuildView returned network %v and error %v, want exactly one", v, net != nil, err)
			}
		}
	})
}
