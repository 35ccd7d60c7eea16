package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/topology"
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
	net, err := sc.Topology.BuildView(3, topology.ViewHybrid)
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
		out += fmt.Sprintf("flow %s goodput=%.9f\n", name, rt.meanRate(rt.Flow(name), 0, sc.Duration))
	}
	lat, cens := rt.FailoverLatencies(0.2, 0.8)
	out += fmt.Sprintf("latencies=%v censored=%d reroutes=%d skipped=%v agg=%.9f\n",
		lat, cens, rt.Em.Reroutes(), rt.SkippedFlows, rt.AggregateGoodput())
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
	net, err := sc.Topology.BuildView(3, topology.ViewHybrid)
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
	net, err := sc.Topology.BuildView(11, topology.ViewHybrid)
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
		net, err := sc.Topology.BuildView(11, topology.ViewHybrid)
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
			if g := rt.meanRate(rec, 0, 1); g != 0 {
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

// twoDomainNet is two duplex WiFi pairs s0–d0 and s1–d1 a kilometre
// apart: two interference domains.
func twoDomainNet(t testing.TB) *graph.Network {
	t.Helper()
	b := graph.NewBuilder(graph.RangeBased{SenseRadius: map[graph.Tech]float64{graph.TechWiFi: 50}})
	for i := 0; i < 2; i++ {
		s := b.AddNode(fmt.Sprintf("s%d", i), 1000*float64(i), 0, graph.TechWiFi)
		d := b.AddNode(fmt.Sprintf("d%d", i), 1000*float64(i)+10, 0, graph.TechWiFi)
		b.AddDuplex(s, d, graph.TechWiFi, 30)
	}
	net := b.Build()
	if em := node.NewEmulation(net, node.Config{}, 1); em.NumDomains() != 2 {
		t.Fatalf("domains=%d, want 2", em.NumDomains())
	}
	return net
}

// TestRecordsInTimeDomainOrder: Run advances domain 0 to each barrier
// before domain 1, so the handlers fire out of virtual-time order across
// domains; Transitions, Failures and FlowNames still come out ordered by
// time, ties by domain, whatever the barriers.
func TestRecordsInTimeDomainOrder(t *testing.T) {
	net := twoDomainNet(t)
	wifi0 := LinkRef{From: "s0", To: "d0", Tech: graph.TechWiFi.String()}
	wifi1 := LinkRef{From: "s1", To: "d1", Tech: graph.TechWiFi.String()}
	sc := &Scenario{Name: "order", Duration: 10,
		// Domain 1's flow starts first; the two later flows start
		// together.
		Flows: []FlowSpec{
			{Name: "late0", Src: "s0", Dst: "d0", Start: 3},
			{Name: "early1", Src: "s1", Dst: "d1", Start: 1},
			{Name: "tie1", Src: "d1", Dst: "s1", Start: 2},
			{Name: "tie0", Src: "d0", Dst: "s0", Start: 2},
		},
		// Both domains lose their pair at t=5; domain 0's comes back
		// later than domain 1's but runs first inside the window.
		Events: []Event{
			{At: 5, Kind: LinkFail, Link: &wifi0},
			{At: 5, Kind: LinkFail, Link: &wifi1},
			{At: 7, Kind: LinkRecover, Link: &wifi0},
			{At: 6, Kind: LinkRecover, Link: &wifi1},
		},
	}
	em := node.NewEmulation(net, node.Config{Estimation: true}, 3)
	rt, err := Bind(em, sc, 5, Options{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, until := range []float64{4, 7.5, 10} {
		em.Run(until)
	}
	rt.Finish()

	ordered := func(what string, n int, at func(int) float64, dom func(int) int) {
		t.Helper()
		for i := 1; i < n; i++ {
			if at(i) < at(i-1) || at(i) == at(i-1) && dom(i) < dom(i-1) {
				t.Errorf("%s %d (t=%v, domain %d) after (t=%v, domain %d)",
					what, i, at(i), dom(i), at(i-1), dom(i-1))
			}
		}
	}
	tr := rt.Transitions
	if len(tr) != 8 {
		t.Fatalf("%d transitions, want 8: %+v", len(tr), tr)
	}
	ordered("transition", len(tr), func(i int) float64 { return tr[i].At },
		func(i int) int { return em.LinkDomain(tr[i].Link) })
	fs := rt.Failures
	if len(fs) != 4 {
		t.Fatalf("%d failures, want 4", len(fs))
	}
	flowDom := func(name string) int { return em.NodeDomain(rt.Flow(name).Src) }
	ordered("failure", len(fs), func(i int) float64 { return fs[i].At },
		func(i int) int { return flowDom(fs[i].Flow) })
	names := rt.FlowNames()
	if want := []string{"early1", "tie0", "tie1", "late0"}; fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("FlowNames = %v, want %v", names, want)
	}
}

// TestReservedFlowNamesRejected: the names poisson-flows and
// flash-crowd processes generate are reserved, so a scripted flow or a
// flow-start event may not take one — Validate and Bind both refuse it,
// naming the reserved name, even when no process would generate it.
func TestReservedFlowNamesRejected(t *testing.T) {
	net := twoDomainNet(t)
	for _, name := range []string{"arrival-0-0", "crowd-1-0-2"} {
		scripted := &Scenario{Name: "reserved", Duration: 10,
			Flows:     []FlowSpec{{Name: name, Src: "s0", Dst: "d0"}},
			Processes: []Process{{Kind: ProcPoissonFlows, Rate: 1, HoldMean: 2, Src: "s1", Dst: "d1"}},
		}
		event := &Scenario{Name: "reserved-event", Duration: 10,
			Events: []Event{{At: 1, Kind: FlowStart, Flow: &FlowSpec{Name: name, Src: "s1", Dst: "d1"}}},
		}
		for _, sc := range []*Scenario{scripted, event} {
			if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "reserved") || !strings.Contains(err.Error(), name) {
				t.Errorf("%s: Validate = %v, want an error naming the reserved name %q", sc.Name, err, name)
			}
			em := node.NewEmulation(net, node.Config{Estimation: true}, 3)
			if _, err := Bind(em, sc, 5, Options{}); err == nil || !strings.Contains(err.Error(), name) {
				t.Errorf("%s: Bind = %v, want an error naming the reserved name %q", sc.Name, err, name)
			}
		}
	}
}

// TestScriptedFlowStartsBeforeSameTimeEvent: a scripted flow and a
// link-fail at the same time in one domain apply in timeline order — the
// flow starts first, routes over the link, and the failure opens a
// window on it.
func TestScriptedFlowStartsBeforeSameTimeEvent(t *testing.T) {
	net := twoDomainNet(t)
	sc := &Scenario{Name: "tie", Duration: 10,
		Events: []Event{{At: 2, Kind: LinkFail, Link: &LinkRef{From: "s0", To: "d0", Tech: graph.TechWiFi.String()}}},
		Flows:  []FlowSpec{{Name: "f", Src: "s0", Dst: "d0", Start: 2}},
	}
	em := node.NewEmulation(net, node.Config{Estimation: true}, 3)
	rt, err := Bind(em, sc, 5, Options{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	rt.Run()
	if rec := rt.Flow("f"); rec == nil || rec.StartedAt != 2 {
		t.Fatalf("flow f did not start at t=2 (skipped: %v)", rt.SkippedFlows)
	}
	if len(rt.Failures) != 1 || rt.Failures[0].Flow != "f" || rt.Failures[0].At != 2 {
		t.Fatalf("failures = %+v, want one window on f at t=2", rt.Failures)
	}
}
