package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the command: re-executed
// with EMPOWER_ARGS set, it runs main on those arguments.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("EMPOWER_ARGS"); ok {
		os.Args = append(os.Args[:1], strings.Fields(args)...)
		main()
	}
	os.Exit(m.Run())
}

// unnamed is a scenario without a name: its envelope must still carry
// "scenario":"".
const unnamed = `{
  "duration": 12,
  "topology": {
    "kind": "custom",
    "nodes": [
      { "name": "src", "x": 0, "y": 0, "techs": ["plc", "wifi"] },
      { "name": "dst", "x": 20, "y": 0, "techs": ["plc", "wifi"] }
    ],
    "links": [
      { "from": "src", "to": "dst", "tech": "plc", "capacity": 40 },
      { "from": "src", "to": "dst", "tech": "wifi", "capacity": 60 }
    ]
  },
  "flows": [{ "name": "main", "src": "src", "dst": "dst", "start": 0 }],
  "events": [
    { "at": 4, "kind": "link-fail", "link": { "from": "src", "to": "dst", "tech": "plc" } },
    { "at": 8, "kind": "link-recover", "link": { "from": "src", "to": "dst", "tech": "plc" } }
  ]
}`

// TestEnvelope pins both experiments' -json envelopes (key set and
// order, the empty scenario name, the trailing phases object) to the
// bytes the pre-harness binary printed; the phase values are wall-clock
// and masked.
func TestEnvelope(t *testing.T) {
	path := filepath.Join(t.TempDir(), "unnamed.json")
	if err := os.WriteFile(path, []byte(unnamed), 0o644); err != nil {
		t.Fatal(err)
	}
	seconds := regexp.MustCompile(`_seconds":[0-9.e-]+`)
	for _, c := range []struct{ args, want string }{
		{"-runs 1 -seed 2 -schemes EMPoWER -json -phases",
			`{"experiment":"churn-failover","scenario":"","seed":2,"result":{"scenario":"","runs":1,"rows":[{"scheme":"EMPoWER","latencies":[1.2000000000000002],"censored":0,"median_latency":1.2000000000000002,"mean_goodput":69.435,"degraded_goodput":52.06799999999999,"reroutes":2,"skipped_flows":0,"episodes":1}]},"phases":{"bind_seconds":T,"run_seconds":T,"collect_seconds":T}}`},
		{"-runs 1 -seed 2 -schemes EMPoWER,SP -flaprates 2 -json",
			`{"experiment":"churn-flap-sweep","scenario":"","seed":2,"result":{"scenario":"","rates_per_min":[2],"schemes":["EMPoWER","SP"],"goodput":[[69.435],[53.434]]}}`},
	} {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "EMPOWER_ARGS=-scenario "+path+" "+c.args)
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s: %v", c.args, err)
		}
		if got := seconds.ReplaceAllString(string(out), `_seconds":T`); got != c.want+"\n" {
			t.Errorf("%s: stdout:\n%s\nwant:\n%s", c.args, got, c.want)
		}
	}
}
