// Package cli is the one front door of the binaries under cmd/: the
// signal context and exit rule every command runs under (Main), and the
// flags and lifecycle the sweep commands share (Sweep). A command keeps
// only its own flags, its experiment selection and its output envelope.
package cli

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/runner"
)

// usageError marks a bad invocation; an empty message asks for the flag
// usage text instead.
type usageError string

func (e usageError) Error() string { return string(e) }

// ErrUsage makes Main print the flag usage and exit 2.
var ErrUsage error = usageError("")

// Usagef returns a bad-invocation error: Main prints the message and
// exits 2.
func Usagef(format string, args ...any) error {
	return usageError(fmt.Sprintf(format, args...))
}

// CheckRanges returns a bad-invocation error naming the flag of the first
// knob of c outside its range (experiments.ChurnConfig.CheckRanges), or
// nil. The caller fills c with the flag values as given.
func CheckRanges(c experiments.ChurnConfig) error {
	if knob, reason := c.CheckRanges(); knob != "" {
		return Usagef("-%s: %s", knob, reason)
	}
	return nil
}

// Main parses the command line, runs body under a context that SIGINT
// or SIGTERM cancels, and exits by the one rule of the six binaries:
// 0 on success; 2 for a bad invocation (ErrUsage, Usagef); 130,
// shell-style, when the error is the cancellation, so wrappers can tell
// "interrupted" from "failed"; 1 otherwise. The body returns rather
// than exits, so its deferred cleanups run on every path. A second
// signal kills the process the ordinary way.
func Main(name string, body func(ctx context.Context) error) {
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop)
	err := body(ctx)
	stop()
	os.Exit(exitCode(name, err))
}

// exitCode reports err on stderr and maps it to the exit status.
func exitCode(name string, err error) int {
	if err == nil {
		return 0
	}
	var usage usageError
	isUsage := errors.As(err, &usage)
	if isUsage && usage == "" {
		flag.Usage()
		return 2
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
	switch {
	case isUsage:
		return 2
	case errors.Is(err, context.Canceled):
		return 130
	}
	return 1
}

// Sweep holds the flags every sweep command declares and the services
// behind them: the pprof server, the -metrics aggregator with its
// emitter and runner hook, the progress line and the result emitter.
type Sweep struct {
	Seed     int64
	Parallel int
	JSON     bool
	// Delta is the -delta constraint margin (EmulationFlags).
	Delta float64
	// Metrics aggregates the sweep's metric registries and JobTime feeds
	// it the runner series; both are nil without -metrics.
	Metrics *obs.Aggregator
	JobTime func(time.Duration)

	progress       bool
	metrics, pprof string
	emitter        *obs.Emitter
	line           *obs.ProgressLine
}

// SweepFlags declares -seed, -parallel, -json, -progress, -metrics and
// -pprof on the command line.
func SweepFlags() *Sweep {
	s := &Sweep{}
	flag.Int64Var(&s.Seed, "seed", 1, "base RNG seed")
	flag.IntVar(&s.Parallel, "parallel", 0, "replication workers (<= 0: GOMAXPROCS)")
	flag.BoolVar(&s.JSON, "json", false, "emit results as JSON objects on stdout")
	flag.BoolVar(&s.progress, "progress", false, "live progress line on stderr")
	flag.StringVar(&s.metrics, "metrics", "", "Prometheus snapshots: file path, or :port / host:port to serve /metrics")
	flag.StringVar(&s.pprof, "pprof", "", "serve net/http/pprof on this address")
	return s
}

// EmulationFlags adds -delta, the constraint margin of the §6 packet
// emulation; Main rejects a value outside its range.
func (s *Sweep) EmulationFlags() {
	flag.Float64Var(&s.Delta, "delta", 0.05, "constraint margin δ")
}

// Main is cli.Main for a sweep command: body runs between the start of
// the -pprof and -metrics services and the final metrics snapshot, which
// is therefore written however body ends.
func (s *Sweep) Main(name string, body func(ctx context.Context) error) {
	Main(name, func(ctx context.Context) error { return s.run(ctx, body) })
}

func (s *Sweep) run(ctx context.Context, body func(ctx context.Context) error) error {
	if err := CheckRanges(experiments.ChurnConfig{Delta: s.Delta}); err != nil {
		return err
	}
	if s.pprof != "" {
		if err := obs.ServePprof(s.pprof); err != nil {
			return err
		}
	}
	if s.metrics != "" {
		s.Metrics = obs.NewAggregator()
		var err error
		if s.emitter, err = obs.StartEmitter(s.metrics, s.Metrics, 0); err != nil {
			return err
		}
		s.JobTime = obs.JobTimeHook(s.Metrics, runner.PoolSize(s.Parallel))
	}
	err := body(ctx)
	s.line.Finish()
	if cerr := s.emitter.Close(); err == nil {
		err = cerr
	}
	return err
}

// Progress starts a stderr progress line labelled label and returns its
// runner hook, or nil without -progress.
func (s *Sweep) Progress(label string) func(done, total int) {
	if !s.progress {
		return nil
	}
	s.line = obs.NewProgressLine(os.Stderr, label)
	return s.line.Update
}

// Emit ends the progress line and prints one result on stdout: the
// command's envelope as a JSON line under -json, the text rendering
// otherwise.
func (s *Sweep) Emit(envelope any, render func() string) error {
	s.line.Finish()
	if s.JSON {
		return json.NewEncoder(os.Stdout).Encode(envelope)
	}
	_, err := fmt.Println(render())
	return err
}
