package main

import (
	"os"
	"os/exec"
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

// TestEnvelope pins the -json envelope (key set and order) to the bytes
// the pre-harness binary printed.
func TestEnvelope(t *testing.T) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "EMPOWER_ARGS=-fig 12 -duration 2 -seed 2 -json")
	out, err := cmd.Output()
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"figure":"12","seed":2,"result":{"Times":[0.5,1.5,2.5,3.5],"Rate":[38.39216,47.7712,30.55488,37.58624],"SwitchAt":2,"SPGoodput":47.7712,"EMPoWERGoodput":37.58624,"Routes":["node9 -[PLC 79.8]-\u003e node8 -[PLC 100.0]-\u003e node13","node9 -[WiFi 80.0]-\u003e node7 -[WiFi 47.6]-\u003e node13"]}}` + "\n"
	if string(out) != want {
		t.Errorf("stdout:\n%s\nwant:\n%s", out, want)
	}
}
