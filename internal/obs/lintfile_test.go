package obs

import (
	"os"
	"strings"
	"testing"
)

// TestLintFile validates a Prometheus snapshot file named by the PROMFILE
// environment variable — scripts/e2e.sh's instrumented sweep runs a
// short sweep with -metrics and points this test at the output. Without
// PROMFILE the test is skipped, so normal test runs are unaffected.
func TestLintFile(t *testing.T) {
	path := os.Getenv("PROMFILE")
	if path == "" {
		t.Skip("PROMFILE not set")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatalf("%s: empty snapshot", path)
	}
	if err := Lint(data); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if !strings.Contains(string(data), "empower_") {
		t.Fatalf("%s: no empower_ series in snapshot", path)
	}
}
