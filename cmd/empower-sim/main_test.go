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

// TestEnvelope pins the -json envelope (key set and order, topology
// named) to the bytes the pre-harness binary printed.
func TestEnvelope(t *testing.T) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "EMPOWER_ARGS=-fig 5 -topo residential -runs 3 -seed 2 -slots 300 -json")
	out, err := cmd.Output()
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"figure":"5","topo":"residential","seed":2,"result":{"Topo":"residential","Ratios":[0.4191290445648071],"RescueFrac":0,"EMPoWERBetterFrac":1}}` + "\n"
	if string(out) != want {
		t.Errorf("stdout:\n%s\nwant:\n%s", out, want)
	}
}

// TestFailedOutWriteFailsAfterFigures: a TSV that cannot be written
// leaves stdout as it is and turns the exit status to 1.
func TestFailedOutWriteFailsAfterFigures(t *testing.T) {
	dir := t.TempDir()
	// A directory squatting on the TSV's name makes os.Create fail.
	if err := os.MkdirAll(dir+"/fig5-residential.tsv", 0o755); err != nil {
		t.Fatal(err)
	}
	args := "-fig 5 -topo residential -runs 3 -seed 2 -slots 300"
	plain := exec.Command(os.Args[0])
	plain.Env = append(os.Environ(), "EMPOWER_ARGS="+args)
	want, err := plain.Output()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "EMPOWER_ARGS="+args+" -out "+dir)
	out, err := cmd.Output()
	exit, ok := err.(*exec.ExitError)
	if !ok || exit.ExitCode() != 1 {
		t.Fatalf("err = %v, want exit status 1", err)
	}
	if string(out) != string(want) {
		t.Errorf("stdout changed:\n%s\nwant:\n%s", out, want)
	}
	if !strings.Contains(string(exit.Stderr), "fig5-residential.tsv") {
		t.Errorf("stderr does not name the file: %q", exit.Stderr)
	}
}
