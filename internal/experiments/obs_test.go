package experiments

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// TestMetricsByteIdenticalOnOff pins the observability layer's central
// contract: metrics sampling, phase timing and the progress/job-time
// callbacks are purely observational. The same sweep at the same seed
// must produce byte-identical rendered output — and bit-identical result
// structs — with the full instrumentation attached and with none of it.
// (The flight recorder's half of the contract is pinned at the node
// layer by TestShardedDeterminismAcrossShardCounts.)
func TestMetricsByteIdenticalOnOff(t *testing.T) {
	if testing.Short() {
		t.Skip("churn sweeps emulate minutes of virtual time per replication")
	}
	sc := loadFlaps(t)
	base := ChurnConfig{
		Seed: 7, Runs: 2, ManageRoutes: true, Parallel: 4,
		Schemes: []core.Scheme{core.SchemeEMPoWER, core.SchemeSPWoCC},
	}

	plain := base
	instrumented := base
	instrumented.Metrics = obs.NewAggregator()
	instrumented.Phases = &obs.Phases{}
	instrumented.Progress = func(done, total int) {}
	instrumented.JobTime = func(d time.Duration) {}

	off, err := ChurnFailoverCtx(context.Background(), sc, plain)
	if err != nil {
		t.Fatal(err)
	}
	on, err := ChurnFailoverCtx(context.Background(), sc, instrumented)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(off, on) {
		t.Fatalf("results differ with instrumentation on:\n  off: %+v\n  on:  %+v", off, on)
	}
	if off.Render() != on.Render() {
		t.Fatalf("rendered output differs with instrumentation on:\n--- off ---\n%s\n--- on ---\n%s",
			off.Render(), on.Render())
	}

	// The instrumented run must actually have observed something, and
	// its aggregate snapshot must be a lint-clean Prometheus exposition.
	var buf bytes.Buffer
	if err := instrumented.Metrics.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.String()
	if !strings.Contains(snap, "empower_events_fired_total") {
		t.Fatalf("aggregate snapshot missing engine counters:\n%s", snap)
	}
	if err := obs.Lint(buf.Bytes()); err != nil {
		t.Fatalf("aggregate snapshot fails lint: %v", err)
	}
	bd := instrumented.Phases.Breakdown()
	if bd.RunSeconds <= 0 {
		t.Errorf("phase breakdown recorded no run time: %+v", bd)
	}
}

// TestChurnTraceMatchesSweep checks the -trace export path: re-running a
// sweep replication with a recorder attached yields records for every
// domain, non-empty and time-ordered. The re-run binds through the
// sweep's own seed derivations, and a recorder never changes a
// trajectory (TestShardedDeterminismAcrossShardCounts), so the trace is the
// sweep's replication.
func TestChurnTraceMatchesSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("churn sweeps emulate minutes of virtual time per replication")
	}
	sc := loadFlaps(t)
	cfg := ChurnConfig{
		Seed: 7, Runs: 2, ManageRoutes: true,
		Schemes: []core.Scheme{core.SchemeEMPoWER, core.SchemeSPWoCC},
	}
	doms, err := ChurnTrace(sc, cfg, 0, core.SchemeEMPoWER, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(doms) == 0 {
		t.Fatal("trace has no domains")
	}
	total := 0
	for d, recs := range doms {
		total += len(recs)
		for i := 1; i < len(recs); i++ {
			if recs[i].At < recs[i-1].At {
				t.Fatalf("domain %d: records out of order at %d: %.9f after %.9f",
					d, i, recs[i].At, recs[i-1].At)
			}
		}
	}
	if total == 0 {
		t.Fatal("trace recorded no events")
	}
}
