package scenario

import (
	"strconv"

	"repro/internal/invariant"
	"repro/internal/obs"
)

// This file is the scenario runtime's face of internal/obs: the dense
// event-kind ordinals of the flight-recorder records, barrier sampling of
// the runtime's observations into registry slots, and the recorder-tail
// helper behind the -invariants failure messages.

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

// OrdinalEventKind inverts EventKindOrdinal (empty for out-of-range).
func OrdinalEventKind(i int32) EventKind {
	if i < 0 || int(i) >= len(eventKindOrder) {
		return ""
	}
	return eventKindOrder[i]
}

// SampleMetrics reads the runtime's observations — and the underlying
// emulation's intrinsic counters — into registry slots. Call it after
// Finish; it only reads.
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
	for _, d := range rt.doms {
		for _, name := range d.order {
			if rec := d.flows[name]; rec != nil && rec.Flow != nil && rec.Flow.Active() {
				active++
			}
		}
	}
	r.Gauge("empower_scenario_active_flows",
		"flows still active at the end of the run (max across replications)").
		Max(float64(active))
	r.Counter("empower_flow_reroutes_total",
		"route swaps by scenario-managed flows").Add(float64(rt.Reroutes()))
	if rt.checker != nil {
		r.Counter("empower_invariant_violations_total",
			"runtime invariant violations").Add(float64(len(rt.Violations())))
	}
	for reason, n := range rt.DropsByReason() {
		r.Counter("empower_scenario_dropped_packets_total",
			"frames dropped during the scenario, by reason",
			obs.Label{Key: "reason", Value: reason}).Add(float64(n))
	}
}

// RecorderTail returns the last n flight-recorder records of the domain
// owning a violation (oldest first), or nil when recording is off
// (node.Config.Recorder == 0).
func (rt *Runtime) RecorderTail(domain, n int) []obs.Record {
	if domain < 0 || domain >= rt.Em.NumDomains() {
		return nil
	}
	rec := rt.Em.DomainRecorder(domain)
	if rec == nil {
		return nil
	}
	return rec.Tail(n)
}

// RecorderTails returns every domain's last n flight-recorder records
// (oldest first, one slice per domain, nil slices when recording is off)
// — the per-domain input of obs.WriteChromeTraceFile after a run.
func (rt *Runtime) RecorderTails(n int) [][]obs.Record {
	doms := make([][]obs.Record, rt.Em.NumDomains())
	for d := range doms {
		doms[d] = rt.RecorderTail(d, n)
	}
	return doms
}

// ViolationReport renders a violation together with the owning domain's
// recorder tail (up to tail records) — the -invariants failure payload.
// Without a recorder it degrades to the bare violation line.
func (rt *Runtime) ViolationReport(v invariant.Violation, tail int) string {
	recs := rt.RecorderTail(v.Domain, tail)
	if len(recs) == 0 {
		return v.String()
	}
	return v.String() + "\n flight recorder (last " +
		strconv.Itoa(len(recs)) + " events of domain " + strconv.Itoa(v.Domain) + "):\n" +
		obs.FormatTail(v.Domain, recs)
}
