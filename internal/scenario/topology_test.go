package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/topology"
)

// sampleTopology is a bare topology file as empower-route -topo reads it:
// links are duplex unless marked one_way.
const sampleTopology = `{
  "kind": "custom",
  "nodes": [
    {"name": "a", "x": 0, "y": 0, "techs": ["plc", "wifi"]},
    {"name": "b", "x": 10, "y": 0, "techs": ["plc", "wifi"]},
    {"name": "c", "x": 20, "y": 0, "techs": ["wifi"]}
  ],
  "links": [
    {"from": "a", "to": "b", "tech": "plc", "capacity": 10},
    {"from": "a", "to": "b", "tech": "wifi", "capacity": 15},
    {"from": "b", "to": "c", "tech": "wifi", "capacity": 30, "one_way": true}
  ]
}`

func writeTopology(t *testing.T, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "net.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadTopologyAndBuild(t *testing.T) {
	spec, err := LoadTopology(writeTopology(t, sampleTopology))
	if err != nil {
		t.Fatal(err)
	}
	net, err := spec.BuildView(0, topology.ViewHybrid)
	if err != nil {
		t.Fatal(err)
	}
	if net.NumNodes() != 3 {
		t.Errorf("nodes = %d, want 3", net.NumNodes())
	}
	if net.NumLinks() != 5 { // 2 duplex pairs + 1 one-way
		t.Errorf("links = %d, want 5", net.NumLinks())
	}
	if net.FindLink(0, 1, graph.TechPLC) < 0 || net.FindLink(1, 0, graph.TechPLC) < 0 {
		t.Error("a<->b PLC is not duplex")
	}
	if net.FindLink(2, 1, graph.TechWiFi) != -1 {
		t.Error("one_way link has a reverse")
	}
}

// TestTopologyDumpLoadsBack: the JSON encoding of a spec — what
// empower-route -dump prints — loads back to the same spec and network.
func TestTopologyDumpLoadsBack(t *testing.T) {
	spec, err := LoadTopology(writeTopology(t, sampleTopology))
	if err != nil {
		t.Fatal(err)
	}
	dump, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	back, err := LoadTopology(writeTopology(t, string(dump)))
	if err != nil {
		t.Fatalf("re-load failed: %v\n%s", err, dump)
	}
	if !reflect.DeepEqual(spec, back) {
		t.Errorf("round trip changed the spec:\n%+v\n%+v", spec, back)
	}
	net, _ := spec.BuildView(0, topology.ViewHybrid)
	net2, err := back.BuildView(0, topology.ViewHybrid)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(net.Nodes, net2.Nodes) || !reflect.DeepEqual(net.Links, net2.Links) {
		t.Error("round trip changed the network")
	}
}

func TestLoadTopologyRejectsUnknownFields(t *testing.T) {
	doc := strings.Replace(sampleTopology, `"kind"`, `"bogus": 1, "kind"`, 1)
	if _, err := LoadTopology(writeTopology(t, doc)); err == nil {
		t.Error("unknown top-level field accepted")
	}
	doc = strings.Replace(sampleTopology, `"capacity": 10`, `"capacity": 10, "duplex": true`, 1)
	if _, err := LoadTopology(writeTopology(t, doc)); err == nil {
		t.Error("unknown link field accepted")
	}
	if _, err := LoadTopology(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestTopologyValidation(t *testing.T) {
	node := func(name string) string { return `{"name":"` + name + `","techs":["wifi"]}` }
	for name, doc := range map[string]string{
		"unknown kind":     `{"kind":"mesh"}`,
		"no links":         `{"kind":"custom","nodes":[` + node("a") + `]}`,
		"dup node":         `{"kind":"custom","nodes":[` + node("a") + `,` + node("a") + `],"links":[{"from":"a","to":"a","tech":"wifi","capacity":5}]}`,
		"unnamed node":     `{"kind":"custom","nodes":[{"x":1}],"links":[{"from":"a","to":"b","tech":"wifi","capacity":5}]}`,
		"unknown endpoint": `{"kind":"custom","nodes":[` + node("a") + `],"links":[{"from":"a","to":"zz","tech":"wifi","capacity":5}]}`,
		"bad capacity":     `{"kind":"custom","nodes":[` + node("a") + `,` + node("b") + `],"links":[{"from":"a","to":"b","tech":"wifi","capacity":0}]}`,
		"self link":        `{"kind":"custom","nodes":[` + node("a") + `],"links":[{"from":"a","to":"a","tech":"wifi","capacity":5}]}`,
		"bad link tech":    `{"kind":"custom","nodes":[` + node("a") + `,` + node("b") + `],"links":[{"from":"a","to":"b","tech":"zz","capacity":5}]}`,
	} {
		if _, err := LoadTopology(writeTopology(t, doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A node technology is resolved when the network is built.
	spec, err := LoadTopology(writeTopology(t, strings.Replace(sampleTopology, `["wifi"]`, `["lte"]`, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spec.BuildView(0, topology.ViewHybrid); err == nil {
		t.Error("unknown node tech built")
	}
}

func TestParseTech(t *testing.T) {
	for name, want := range map[string]graph.Tech{
		"plc": graph.TechPLC, "PLC": graph.TechPLC,
		"wifi": graph.TechWiFi, "WiFi": graph.TechWiFi, "wifi1": graph.TechWiFi,
		"wifi2": graph.TechWiFi2, "WiFi2": graph.TechWiFi2,
	} {
		if got, err := ParseTech(name); err != nil || got != want {
			t.Errorf("ParseTech(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseTech("ethernet"); err == nil {
		t.Error("unknown tech accepted")
	}
}
