package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/node"
)

// clustersFingerprint runs the shipped multi-cluster scenario end to end,
// with a flight recorder of `recorder` records per domain (0: none), and
// folds every observable output — transitions, failure windows, per-flow
// goodput, failover measurement, reroutes — into a string.
func clustersFingerprint(t *testing.T, recorder int) string {
	t.Helper()
	sc, err := Load("../../examples/scenarios/clusters.json")
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		sc.Duration = 25
	}
	net, err := sc.Topology.Build(3)
	if err != nil {
		t.Fatal(err)
	}
	em := node.NewEmulation(net, node.Config{
		Estimation: true, Recorder: recorder,
	}, 9)
	rt, err := Bind(em, sc, 41, Options{ManageRoutes: true, Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	rt.Run()

	out := ""
	for _, tr := range rt.Transitions {
		out += fmt.Sprintf("tr at=%.9f kind=%v link=%d cap=%g\n", tr.At, tr.Kind, tr.Link, tr.Capacity)
	}
	for _, f := range rt.Failures {
		out += fmt.Sprintf("fail flow=%s at=%.9f rec=%.9f links=%v\n", f.Flow, f.At, f.RecoveredAt, f.Links)
	}
	for _, name := range rt.FlowNames() {
		out += fmt.Sprintf("flow %s goodput=%.9f\n", name, rt.FlowGoodput(name, 0, sc.Duration))
	}
	lat, cens := rt.FailoverLatencies(0.2, 0.8)
	out += fmt.Sprintf("latencies=%v censored=%d reroutes=%d skipped=%v agg=%.9f\n",
		lat, cens, rt.Reroutes(), rt.SkippedFlows, rt.AggregateGoodput())
	return out
}

// TestScenarioShardedDeterminism is the contract at the scenario layer:
// the shipped multi-cluster scenario decomposes into four interference
// domains, and the complete run — event timeline, failure windows,
// goodput, failover measurement — is bit-identical on a rerun and with a
// flight recorder on every domain.
func TestScenarioShardedDeterminism(t *testing.T) {
	// Confirm the example really decomposes.
	sc, err := Load("../../examples/scenarios/clusters.json")
	if err != nil {
		t.Fatal(err)
	}
	net, err := sc.Topology.Build(3)
	if err != nil {
		t.Fatal(err)
	}
	if em := node.NewEmulation(net, node.Config{}, 9); em.NumDomains() != 4 {
		t.Fatalf("clusters.json: domains=%d, want 4", em.NumDomains())
	}

	ref := clustersFingerprint(t, 0)
	if got := clustersFingerprint(t, 0); got != ref {
		t.Fatalf("rerun diverged:\n--- first\n%s--- rerun\n%s", ref, got)
	}
	if got := clustersFingerprint(t, 256); got != ref {
		t.Fatalf("a flight recorder changed the run:\n--- off\n%s--- on\n%s", ref, got)
	}
}

// TestShardedMatchesSingleEngine pins the one-domain side of the
// contract: the shipped flaps scenario runs on a connected topology —
// one interference domain, the caller's seed — and its transitions,
// failure windows and aggregate goodput digest to the value recorded from
// commit 66d524b's single-engine construction (topology seed 11,
// emulation seed 13, scenario seed 17).
func TestShardedMatchesSingleEngine(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest is for amd64 (fused multiply-add moves the low bits), this is %s", runtime.GOARCH)
	}
	want := "f16e54a07126202ff2c78f0af7b39d8611f44a777f5f054e95987221e02a7c10"
	if testing.Short() {
		want = "15fb1b00bfef3471a250029391baddb0289e9f6c9c3b79fe6c2bdb4f8a43e1cc"
	}
	sc, err := Load("../../examples/scenarios/flaps.json")
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		sc.Duration = 30
	}
	net, err := sc.Topology.Build(11)
	if err != nil {
		t.Fatal(err)
	}
	em := node.NewEmulation(net, node.Config{Estimation: true}, 13)
	if em.NumDomains() != 1 {
		t.Fatalf("flaps.json topology is connected; NumDomains = %d", em.NumDomains())
	}
	rt, err := Bind(em, sc, 17, Options{ManageRoutes: true, Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	rt.Run()
	h := sha256.New()
	for _, tr := range rt.Transitions {
		fmt.Fprintf(h, "tr %+v\n", tr)
	}
	for _, f := range rt.Failures {
		fmt.Fprintf(h, "fail %s %v %v %v\n", f.Flow, f.At, f.RecoveredAt, f.Links)
	}
	fmt.Fprintf(h, "agg %v\n", rt.AggregateGoodput())
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("%d transitions, %d failures digest to %s, pinned %s",
			len(rt.Transitions), len(rt.Failures), got, want)
	}
}

// TestCollectReadsDoNotPerturb: the goodput reads only peek at sinks. A
// query on a flow that has not delivered anything yet must not create the
// flow's sink — creation schedules the sink's ack tick at the query
// instant — so a run continued after a mid-run query digests to the same
// value as a run never queried.
func TestCollectReadsDoNotPerturb(t *testing.T) {
	digest := func(query bool) string {
		sc, err := Load("../../examples/scenarios/flaps.json")
		if err != nil {
			t.Fatal(err)
		}
		sc.Duration = 30
		net, err := sc.Topology.Build(11)
		if err != nil {
			t.Fatal(err)
		}
		em := node.NewEmulation(net, node.Config{Estimation: true}, 13)
		rt, err := Bind(em, sc, 17, Options{ManageRoutes: true, Strict: true})
		if err != nil {
			t.Fatal(err)
		}
		if query {
			em.Run(0) // the flow has started; no frame has reached its sink
			rec := rt.Flow("main")
			if rec == nil {
				t.Fatal("flow main did not start at t=0")
			}
			if g := rt.FlowGoodput("main", 0, 1); g != 0 {
				t.Fatalf("goodput before any delivery = %v", g)
			}
			if g := rt.AggregateGoodput(); g != 0 {
				t.Fatalf("aggregate goodput before any delivery = %v", g)
			}
			rt.FailoverLatencies(0.2, 0.8)
			rt.DegradedGoodput()
			if em.Agent(rec.Dst).PeekSink(rec.Src, rec.Flow.ID) != nil {
				t.Fatal("a collect read created the sink")
			}
		}
		rt.Run()
		h := sha256.New()
		for _, tr := range rt.Transitions {
			fmt.Fprintf(h, "tr %+v\n", tr)
		}
		lat, cens := rt.FailoverLatencies(0.2, 0.8)
		fmt.Fprintf(h, "lat %v %d agg %v deg %v events %d\n",
			lat, cens, rt.AggregateGoodput(), rt.DegradedGoodput(), em.Domain(0).Engine.Fired())
		return hex.EncodeToString(h.Sum(nil))
	}
	if queried, plain := digest(true), digest(false); queried != plain {
		t.Errorf("a mid-run query changed the run: digest %s, unqueried %s", queried, plain)
	}
}
