package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"repro/internal/topology"
)

// timelineScenario exercises every process kind and target form on a
// two-cluster custom topology: flap on a link, a node and a group,
// gray-loss, drift with default and explicit clamps, poisson-flows with a
// fixed pair, a random pair and file transfers, and flash-crowd with a
// single burst and with recurring bursts.
const timelineScenario = `{
  "name": "timeline", "duration": 80,
  "topology": {
    "kind": "custom",
    "nodes": [
      {"name": "a0", "x": 0, "y": 0, "techs": ["plc", "wifi"]},
      {"name": "a1", "x": 10, "y": 0, "techs": ["plc", "wifi"]},
      {"name": "a2", "x": 20, "y": 5, "techs": ["plc", "wifi"]},
      {"name": "b0", "x": 1000, "y": 0, "techs": ["plc", "wifi"]},
      {"name": "b1", "x": 1010, "y": 0, "techs": ["plc", "wifi"]}
    ],
    "links": [
      {"from": "a0", "to": "a1", "tech": "plc", "capacity": 40},
      {"from": "a0", "to": "a1", "tech": "wifi", "capacity": 30},
      {"from": "a1", "to": "a2", "tech": "plc", "capacity": 35},
      {"from": "b0", "to": "b1", "tech": "plc", "capacity": 50},
      {"from": "b0", "to": "b1", "tech": "wifi", "capacity": 25, "one_way": true}
    ],
    "sense_radius": {"plc": 100, "wifi": 100}
  },
  "groups": [
    {"name": "phase", "links": [{"from": "a0", "to": "a1", "tech": "plc"}, {"from": "a1", "to": "a2", "tech": "plc"}]}
  ],
  "processes": [
    {"kind": "flap", "link": {"from": "a0", "to": "a1", "tech": "wifi"}, "first_at": 3, "down_mean": 2, "up_mean": 6},
    {"kind": "flap", "node": "b1", "down_mean": 4, "up_mean": 9},
    {"kind": "flap", "group": "phase", "first_at": 5, "down_mean": 1.5, "up_mean": 12},
    {"kind": "gray-loss", "link": {"from": "b0", "to": "b1", "tech": "plc"}, "loss": 0.3, "down_mean": 3, "up_mean": 7},
    {"kind": "drift", "link": {"from": "a1", "to": "a2", "tech": "plc"}, "interval": 2, "std": 0.4},
    {"kind": "drift", "link": {"from": "b0", "to": "b1", "tech": "wifi", "one_way": true}, "first_at": 1.5, "interval": 3, "std": 0.3, "floor": 0.4, "ceil": 1.2},
    {"kind": "poisson-flows", "rate": 0.2, "hold_mean": 6, "src": "a0", "dst": "a2"},
    {"kind": "poisson-flows", "first_at": 4, "rate": 0.3, "hold_mean": 5},
    {"kind": "poisson-flows", "rate": 0.1, "file_bytes": 2000000},
    {"kind": "flash-crowd", "first_at": 20, "count": 4, "spread": 2, "hold_mean": 5, "src": "b0", "dst": "b1"},
    {"kind": "flash-crowd", "first_at": 10, "rate": 0.05, "count": 3, "hold_mean": 4}
  ]
}`

// timelinePins are sha256 digests of the JSON-encoded events
// expandProcesses realizes from timelineScenario, per timeline seed.
// They hold every expander's draw order and emitted events to the bytes
// of the per-kind expanders that preceded the shared alternating loop
// and arrival builder; recorded from commit dff254e. linux/amd64 only,
// like the experiments pins.
var timelinePins = []struct {
	seed   int64
	sha256 string
}{
	{seed: 1, sha256: "43fb993223a9996aeddcd9a46633c7cd132573c30b4f9cb106379aa536ae9d68"},
	{seed: 2, sha256: "4f45fd4b458fce662af73a3c8987556562e2a558dcfba865313d470ac82ccc51"},
	{seed: 77, sha256: "ebb2b16db7f68a2b0227ec8b06a0e258197700fb73973a91ca5f0e49a96d2c69"},
}

func TestTimelineDigests(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skipf("pins are for linux/amd64, this is %s/%s", runtime.GOOS, runtime.GOARCH)
	}
	sc, err := Parse([]byte(timelineScenario))
	if err != nil {
		t.Fatal(err)
	}
	net, err := sc.Topology.BuildView(0, topology.ViewHybrid)
	if err != nil {
		t.Fatal(err)
	}
	for _, pin := range timelinePins {
		events, err := expandProcesses(sc, net, pin.seed)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(events)
		if err != nil {
			t.Fatal(err)
		}
		if got := realizedBy(events); got != len(sc.Processes) {
			t.Errorf("seed %d: %d of the %d processes realize events; the pin must cover each", pin.seed, got, len(sc.Processes))
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != pin.sha256 {
			t.Errorf("seed %d: %d events, sha256 %s, pinned %s", pin.seed, len(events), got, pin.sha256)
		}
	}
}

// realizedBy counts the processes of timelineScenario that realized at
// least one event of each kind they emit, telling them apart by event
// kind and target, and arrivals by the process index in their names.
func realizedBy(events []Event) int {
	seen := map[string]bool{}
	for _, ev := range events {
		switch {
		case ev.Flow != nil:
			seen[ev.Flow.Name[:strings.LastIndexByte(ev.Flow.Name, '-')]] = true
		case ev.Link != nil:
			arrow := "<->"
			if ev.Link.OneWay {
				arrow = "->"
			}
			seen[string(ev.Kind)+" "+ev.Link.From+arrow+ev.Link.To+"/"+ev.Link.Tech] = true
		default:
			seen[string(ev.Kind)+" "+ev.Node+ev.Group] = true
		}
	}
	n := 0
	for _, kinds := range [][]string{
		{"link-fail a0<->a1/wifi", "link-recover a0<->a1/wifi"},
		{"node-leave b1", "node-join b1"},
		{"group-fail phase", "group-recover phase"},
		{"set-loss b0<->b1/plc"},
		{"scale-capacity a1<->a2/plc"},
		{"scale-capacity b0->b1/wifi"},
		{"arrival-6"}, {"arrival-7"}, {"arrival-8"},
		{"crowd-9-0"}, {"crowd-10-0"},
	} {
		all := true
		for _, k := range kinds {
			all = all && seen[k]
		}
		if all {
			n++
		}
	}
	return n
}
