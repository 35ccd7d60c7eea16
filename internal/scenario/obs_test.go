package scenario

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/node"
	"repro/internal/obs"
)

// TestEventKindOrdinalRoundTrip pins the compact encoding the flight
// recorder uses for scenario events: every kind must have a stable
// ordinal that round-trips, and unknown kinds must map to -1.
func TestEventKindOrdinalRoundTrip(t *testing.T) {
	kinds := []EventKind{
		LinkFail, LinkRecover, SetCapacity, ScaleCapacity, NodeLeave,
		NodeJoin, FlowStart, FlowStop, SetLoss, GroupFail, GroupRecover,
	}
	seen := map[int32]bool{}
	for _, k := range kinds {
		ord := EventKindOrdinal(k)
		if ord < 0 {
			t.Errorf("%s: no ordinal", k)
			continue
		}
		if seen[ord] {
			t.Errorf("%s: ordinal %d reused", k, ord)
		}
		seen[ord] = true
		if back := OrdinalEventKind(ord); back != k {
			t.Errorf("%s: ordinal %d maps back to %s", k, ord, back)
		}
	}
	if EventKindOrdinal(EventKind("no-such-kind")) != -1 {
		t.Error("unknown kind must map to -1")
	}
	if OrdinalEventKind(-1) != "" || OrdinalEventKind(10_000) != "" {
		t.Error("out-of-range ordinals must map to the empty kind")
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
	if n := small.Em.DomainRecorder(0).Total(); n <= 256 {
		t.Fatalf("only %d records written; both rings must wrap", n)
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
	sc := New("tail", 10)
	sc.AddFlow(FlowSpec{Name: "f", Src: "s", Dst: "d", Start: 0})
	sc.FailLink(4, Link("s", "d", graph.TechPLC))
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
	sc := New("metrics", 10)
	sc.AddFlow(FlowSpec{Name: "f", Src: "s", Dst: "d", Start: 0})
	sc.FailLink(4, Link("s", "d", graph.TechPLC))
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
