package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestMain lets the test binary stand in for a command: re-executed with
// CLI_HELPER naming a case, it runs Main on that case's body and exits
// by Main's rule.
func TestMain(m *testing.M) {
	if c := os.Getenv("CLI_HELPER"); c != "" {
		flag.CommandLine = flag.NewFlagSet("helper", flag.ExitOnError)
		os.Args = os.Args[:1]
		Main("helper", helperBodies[c])
	}
	os.Exit(m.Run())
}

var helperBodies = map[string]func(context.Context) error{
	"ok":       func(context.Context) error { return nil },
	"usage":    func(context.Context) error { return ErrUsage },
	"usagef":   func(context.Context) error { return Usagef("unknown -fig %q", "99") },
	"canceled": func(context.Context) error { return fmt.Errorf("sweep: %w", context.Canceled) },
	"failed":   func(context.Context) error { return errors.New("boom") },
	// A real SIGINT must cancel the context; the deferred write proves
	// the body unwound instead of being cut off by an exit.
	"sigint": func(ctx context.Context) error {
		defer fmt.Println("cleanup ran")
		syscall.Kill(os.Getpid(), syscall.SIGINT)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Second):
			return errors.New("SIGINT did not cancel the context")
		}
	},
}

func TestExitRule(t *testing.T) {
	for _, c := range []struct {
		name           string
		code           int
		stderr, stdout string
	}{
		{"ok", 0, "", ""},
		{"usage", 2, "Usage of ", ""},
		{"usagef", 2, `helper: unknown -fig "99"` + "\n", ""},
		{"canceled", 130, "helper: sweep: context canceled\n", ""},
		{"failed", 1, "helper: boom\n", ""},
		{"sigint", 130, "helper: context canceled\n", "cleanup ran\n"},
	} {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "CLI_HELPER="+c.name)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		stdout, err := cmd.Output()
		code := 0
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if code != c.code {
			t.Errorf("%s: exit status %d, want %d", c.name, code, c.code)
		}
		if !strings.HasPrefix(stderr.String(), c.stderr) || (c.stderr == "") != (stderr.Len() == 0) {
			t.Errorf("%s: stderr %q, want prefix %q", c.name, stderr.String(), c.stderr)
		}
		if string(stdout) != c.stdout {
			t.Errorf("%s: stdout %q, want %q", c.name, stdout, c.stdout)
		}
	}
}

// sweepWith declares the sweep flags on a scratch command line and
// parses args into them.
func sweepWith(t *testing.T, args ...string) *Sweep {
	t.Helper()
	saved := flag.CommandLine
	t.Cleanup(func() { flag.CommandLine = saved })
	flag.CommandLine = flag.NewFlagSet("test", flag.ContinueOnError)
	s := SweepFlags()
	s.EmulationFlags()
	if err := flag.CommandLine.Parse(args); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSweepDefaults(t *testing.T) {
	s := sweepWith(t)
	if s.Seed != 1 || s.Parallel != 0 || s.JSON || s.Delta != 0.05 {
		t.Errorf("defaults = seed %d parallel %d json %v delta %g",
			s.Seed, s.Parallel, s.JSON, s.Delta)
	}
}

func TestHooksAreNilWhenOff(t *testing.T) {
	s := sweepWith(t)
	err := s.run(context.Background(), func(context.Context) error {
		if s.Metrics != nil || s.JobTime != nil || s.Progress("replications") != nil {
			t.Error("hooks set without -metrics / -progress")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMetricsSnapshotSurvivesFailure: the body fails well inside the
// emitter's 2 s rewrite period, and the snapshot is on disk regardless.
func TestMetricsSnapshotSurvivesFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.prom")
	s := sweepWith(t, "-metrics", path, "-parallel", "2")
	boom := errors.New("boom")
	err := s.run(context.Background(), func(context.Context) error {
		if s.Metrics == nil || s.JobTime == nil {
			t.Fatal("-metrics left the hooks nil")
		}
		s.JobTime(30 * time.Millisecond)
		return boom
	})
	if err != boom {
		t.Fatalf("run returned %v, want the body's error", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no snapshot after a failed run: %v", err)
	}
	if err := obs.Lint(data); err != nil {
		t.Errorf("snapshot does not lint: %v\n%s", err, data)
	}
	if !strings.Contains(string(data), "empower_runner_replications_total 1\n") {
		t.Errorf("snapshot misses the runner series:\n%s", data)
	}
}

// TestOutOfRangeKnobsAreUsageErrors: -delta is checked as given, before
// the body runs.
func TestOutOfRangeKnobsAreUsageErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-delta", "NaN"}, "-delta: must be in [0, 1), got NaN"},
		{[]string{"-delta", "1"}, "-delta: must be in [0, 1), got 1"},
	} {
		s := sweepWith(t, c.args...)
		err := s.run(context.Background(), func(context.Context) error {
			t.Errorf("%v: body ran", c.args)
			return nil
		})
		var usage usageError
		if !errors.As(err, &usage) || err.Error() != c.want {
			t.Errorf("%v: error %v, want the usage error %q", c.args, err, c.want)
		}
	}
	if err := sweepWith(t, "-delta", "0").run(context.Background(), func(context.Context) error { return nil }); err != nil {
		t.Errorf("-delta 0: %v", err)
	}
}
