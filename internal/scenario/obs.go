package scenario

import (
	"strconv"

	"repro/internal/invariant"
	"repro/internal/obs"
)

// This file is the scenario runtime's face of internal/obs: the dense
// event-kind ordinals of the flight-recorder records, barrier sampling of
// the runtime's observations into registry slots, and the -invariants
// failure messages built on the emulation's recorder tails.

// eventKindOrder fixes the ordinal each EventKind carries in a
// RecScenarioEvent record (EventKind itself is a string for the JSON
// schema's sake). Append only — ordinals are part of the trace format.
var eventKindOrder = []EventKind{
	LinkFail, LinkRecover, SetCapacity, ScaleCapacity, NodeLeave, NodeJoin,
	FlowStart, FlowStop, SetLoss, GroupFail, GroupRecover,
}

// EventKindOrdinal returns the dense ordinal of an event kind, or -1 for
// an unknown kind.
func EventKindOrdinal(k EventKind) int32 {
	for i, e := range eventKindOrder {
		if e == k {
			return int32(i)
		}
	}
	return -1
}

// SampleMetrics reads the runtime's observations — and the underlying
// emulation's intrinsic counters — into registry slots. Call it after
// Finish; it only reads. Reroutes and per-reason drops are the
// emulation's series (empower_reroutes_total,
// empower_mac_dropped_packets_total): in a scenario run every route
// manager belongs to the runtime, so the runtime adds no copy of them.
func (rt *Runtime) SampleMetrics(r *obs.Registry) {
	rt.Em.SampleMetrics(r)
	r.Counter("empower_scenario_transitions_total",
		"scenario state transitions (fail/recover/drift/flow events applied)").
		Add(float64(len(rt.Transitions)))
	r.Counter("empower_scenario_failures_total",
		"failure windows opened by the scenario").Add(float64(len(rt.Failures)))
	r.Counter("empower_scenario_skipped_flows_total",
		"flows skipped for want of routes").Add(float64(len(rt.SkippedFlows)))
	active := 0
	for _, name := range rt.order {
		if rt.flows[name].Flow.Active() {
			active++
		}
	}
	r.Gauge("empower_scenario_active_flows",
		"flows still active at the end of the run (max across replications)").
		Max(float64(active))
	if rt.checker != nil {
		r.Counter("empower_invariant_violations_total",
			"runtime invariant violations").Add(float64(len(rt.Violations())))
	}
}

// ViolationReport renders a violation together with the owning domain's
// recorder tail (up to tail records) — the -invariants failure payload.
// Without a recorder it degrades to the bare violation line.
func (rt *Runtime) ViolationReport(v invariant.Violation, tail int) string {
	recs := rt.Em.RecorderTails(tail)[v.Domain]
	if len(recs) == 0 {
		return v.String()
	}
	return v.String() + "\n flight recorder (last " +
		strconv.Itoa(len(recs)) + " events of domain " + strconv.Itoa(v.Domain) + "):\n" +
		obs.FormatTail(v.Domain, recs)
}
