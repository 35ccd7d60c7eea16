package scenario

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/mac"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/topology"
)

// TestEventKindOrdinalsPinned pins the compact encoding the flight
// recorder uses for scenario events: each kind's ordinal is its position
// below (the trace format; append only), and unknown kinds map to -1.
func TestEventKindOrdinalsPinned(t *testing.T) {
	kinds := []EventKind{
		LinkFail, LinkRecover, SetCapacity, ScaleCapacity, NodeLeave,
		NodeJoin, FlowStart, FlowStop, SetLoss, GroupFail, GroupRecover,
	}
	for i, k := range kinds {
		if ord := EventKindOrdinal(k); ord != int32(i) {
			t.Errorf("%s: ordinal %d, pinned %d", k, ord, i)
		}
	}
	if EventKindOrdinal(EventKind("no-such-kind")) != -1 {
		t.Error("unknown kind must map to -1")
	}
}

// TestViolationReportCarriesTail checks the -invariants failure message:
// with a flight recorder attached, a violation report must include the
// owning domain's event tail; without one it degrades to the bare
// violation line.
func TestViolationReportCarriesTail(t *testing.T) {
	v := invariant.Violation{At: 5, Domain: 0, Check: "flow-conservation", Detail: "synthetic"}

	with := tailRun(t, 256).ViolationReport(v, 8)
	if !strings.Contains(with, v.String()) {
		t.Errorf("report does not contain the violation line:\n%s", with)
	}
	if !strings.Contains(with, "flight recorder") {
		t.Errorf("report with recorder lacks the event tail:\n%s", with)
	}
	if strings.Count(with, "dom=0 t=") == 0 {
		t.Errorf("report tail has no records:\n%s", with)
	}

	without := tailRun(t, 0).ViolationReport(v, 8)
	if without != v.String() {
		t.Errorf("report without recorder must be the bare violation line, got:\n%s", without)
	}
}

// TestViolationReportRingSize: a report of the last 64 records reads the
// same from a 64-record ring as from a 256-record one once both have
// wrapped — the churn sweep's -invariants ring is sized to exactly the
// tail its reports print.
func TestViolationReportRingSize(t *testing.T) {
	small, large := tailRun(t, 64), tailRun(t, 256)
	if oldest := large.Em.Domain(0).Engine.Recorder().Tail(256)[0]; oldest.At == 0 {
		t.Fatalf("the 256-record ring still holds a t=0 record (%s); both rings must wrap", obs.FormatRecord(oldest))
	}
	v := invariant.Violation{At: 5, Domain: 0, Check: "flow-conservation", Detail: "synthetic"}
	if a, b := small.ViolationReport(v, 64), large.ViolationReport(v, 64); a != b {
		t.Fatalf("64-record report differs by ring size:\n--- ring 64\n%s\n--- ring 256\n%s", a, b)
	}
}

// tailRun runs a two-node flow with a mid-run PLC failure and a flight
// recorder of the given size (0: none).
func tailRun(t *testing.T, recorder int) *Runtime {
	t.Helper()
	b := graph.NewBuilder(nil)
	s := b.AddNode("s", 0, 0, graph.TechPLC, graph.TechWiFi)
	d := b.AddNode("d", 1, 0, graph.TechPLC, graph.TechWiFi)
	b.AddDuplex(s, d, graph.TechPLC, 40)
	b.AddDuplex(s, d, graph.TechWiFi, 40)
	net := b.Build()
	sc := &Scenario{Name: "tail", Duration: 10,
		Flows:  []FlowSpec{{Name: "f", Src: "s", Dst: "d"}},
		Events: []Event{{At: 4, Kind: LinkFail, Link: &plcSD}},
	}
	em := node.NewEmulation(net, node.Config{Estimation: true, Recorder: recorder}, 31)
	rt, err := Bind(em, sc, 7, Options{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	rt.Run()
	return rt
}

// TestRuntimeSampleMetrics checks the scenario layer's registry slots:
// a bound run samples engine, MAC, routing and scenario series, and the
// snapshot is lint-clean.
func TestRuntimeSampleMetrics(t *testing.T) {
	b := graph.NewBuilder(nil)
	s := b.AddNode("s", 0, 0, graph.TechPLC, graph.TechWiFi)
	d := b.AddNode("d", 1, 0, graph.TechPLC, graph.TechWiFi)
	b.AddDuplex(s, d, graph.TechPLC, 40)
	b.AddDuplex(s, d, graph.TechWiFi, 40)
	net := b.Build()
	sc := &Scenario{Name: "metrics", Duration: 10,
		Flows:  []FlowSpec{{Name: "f", Src: "s", Dst: "d"}},
		Events: []Event{{At: 4, Kind: LinkFail, Link: &plcSD}},
	}
	em := node.NewEmulation(net, node.Config{Estimation: true}, 31)
	rt, err := Bind(em, sc, 7, Options{Strict: true, Invariants: true})
	if err != nil {
		t.Fatal(err)
	}
	rt.Run()

	reg := obs.NewRegistry()
	rt.SampleMetrics(reg)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.String()
	for _, want := range []string{
		"empower_events_fired_total",
		"empower_scenario_transitions_total",
		"empower_scenario_failures_total",
		"empower_mac_delivered_packets_total",
		"empower_invariant_violations_total",
	} {
		if !strings.Contains(snap, want) {
			t.Errorf("snapshot missing %s:\n%s", want, snap)
		}
	}
	if err := obs.Lint(buf.Bytes()); err != nil {
		t.Fatalf("snapshot fails lint: %v", err)
	}
}

// TestSampleMetricsOneSeriesPerQuantity: a clusters.json replication's
// registry carries reroutes and per-reason drops once, as the
// emulation's series. Both the series and the emulation's own reads
// equal independent tallies: the runtime's per-flow route-manager swaps,
// and the MAC drop counters summed link by link through each link's
// owning domain.
func TestSampleMetricsOneSeriesPerQuantity(t *testing.T) {
	sc, err := Load("../../examples/scenarios/clusters.json")
	if err != nil {
		t.Fatal(err)
	}
	sc.Duration = 30
	net, err := sc.Topology.BuildView(3, topology.ViewHybrid)
	if err != nil {
		t.Fatal(err)
	}
	em := node.NewEmulation(net, node.Config{Estimation: true}, 9)
	if em.NumDomains() < 2 {
		t.Fatalf("clusters.json: %d domains; the per-domain sums below need several", em.NumDomains())
	}
	rt, err := Bind(em, sc, 41, Options{ManageRoutes: true, Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	rt.Run()
	reg := obs.NewRegistry()
	rt.SampleMetrics(reg)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, dup := range []string{"empower_flow_reroutes_total", "empower_scenario_dropped_packets_total"} {
		if strings.Contains(buf.String(), dup) {
			t.Errorf("registry carries the duplicate series %s", dup)
		}
	}

	reroutes := 0
	for _, name := range rt.FlowNames() {
		if mgr := rt.Flow(name).Mgr; mgr != nil {
			reroutes += mgr.Reroutes
		}
	}
	if reroutes == 0 {
		t.Fatal("no reroutes: the comparison below would be vacuous")
	}
	if got := reg.Counter("empower_reroutes_total", "").Value(); got != float64(reroutes) {
		t.Errorf("empower_reroutes_total = %v, route managers count %d", got, reroutes)
	}
	if got := em.Reroutes(); got != reroutes {
		t.Errorf("Em.Reroutes() = %d, route managers count %d", got, reroutes)
	}

	perLink := make(map[string]int, int(mac.NumDropReasons))
	for r := mac.DropReason(0); r < mac.NumDropReasons; r++ {
		perLink[r.String()] = 0
	}
	for l := 0; l < net.NumLinks(); l++ {
		id := graph.LinkID(l)
		st := em.Domain(em.LinkDomain(id)).MAC.Stats(id)
		for r := mac.DropReason(0); r < mac.NumDropReasons; r++ {
			perLink[r.String()] += st.Dropped[r]
		}
	}
	if got := em.DropsByReason(); !reflect.DeepEqual(got, perLink) {
		t.Errorf("Em.DropsByReason() = %v, per-link sum %v", got, perLink)
	}
	drops := 0
	for reason, n := range perLink {
		got := reg.Counter("empower_mac_dropped_packets_total", "", obs.Label{Key: "reason", Value: reason}).Value()
		if got != float64(n) {
			t.Errorf("empower_mac_dropped_packets_total{reason=%q} = %v, per-link sum %d", reason, got, n)
		}
		drops += n
	}
	if drops == 0 {
		t.Fatal("no drops: the comparisons above were vacuous")
	}
}
