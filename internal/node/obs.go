package node

import (
	"repro/internal/mac"
	"repro/internal/obs"
)

// This file is the node layer's face of internal/obs: accessors over the
// intrinsic counters (which exist whether or not anything observes them)
// and SampleMetrics, which reads them into registry slots at a barrier —
// after a Run returns, never concurrently with it.

// Reroutes counts route swaps by managed flows, summed over domains.
func (e *Emulation) Reroutes() int {
	n := 0
	for _, d := range e.doms {
		n += d.reroutes
	}
	return n
}

// EventsFired sums the engine event counters over domains.
func (e *Emulation) EventsFired() uint64 {
	var n uint64
	for _, d := range e.doms {
		n += d.Engine.Fired()
	}
	return n
}

// RecorderTails returns every domain's last n flight-recorder records
// (oldest first, one slice per domain; nil slices when recording is off,
// Config.Recorder == 0) — the input of obs.WriteChromeTraceFile and of
// the -invariants violation tails.
func (e *Emulation) RecorderTails(n int) [][]obs.Record {
	tails := make([][]obs.Record, len(e.doms))
	for d, dom := range e.doms {
		if rec := dom.Engine.Recorder(); rec != nil {
			tails[d] = rec.Tail(n)
		}
	}
	return tails
}

// macTotals folds every domain's MAC counters into one LinkStats.
func (e *Emulation) macTotals() mac.LinkStats {
	var total mac.LinkStats
	for _, dom := range e.doms {
		st := dom.MAC.TotalStats()
		total.DeliveredBits += st.DeliveredBits
		total.DeliveredPkts += st.DeliveredPkts
		total.DroppedPkts += st.DroppedPkts
		for i := range st.Dropped {
			total.Dropped[i] += st.Dropped[i]
		}
		total.BusySeconds += st.BusySeconds
	}
	return total
}

// DropsByReason returns the MAC drop counters summed over every link,
// keyed by reason name. Every reason appears, zero or not, so reports
// have a stable shape.
func (e *Emulation) DropsByReason() map[string]int {
	total := e.macTotals()
	out := make(map[string]int, int(mac.NumDropReasons))
	for r := mac.DropReason(0); r < mac.NumDropReasons; r++ {
		out[r.String()] = total.Dropped[r]
	}
	return out
}

// SampleMetrics reads the emulation's intrinsic counters into registry
// slots — the barrier sampling of the observability design. Call it
// after Run returns (end of a replication); it only reads, so a
// trajectory with sampling is identical to one without.
func (e *Emulation) SampleMetrics(r *obs.Registry) {
	heapDepth, freeTimers, queueDepth, failovers, estResets := 0, 0, 0, 0, 0
	for _, dom := range e.doms {
		failovers += dom.failovers
		estResets += dom.estResets
		if p := dom.Engine.Pending(); p > heapDepth {
			heapDepth = p
		}
		if f := dom.Engine.FreeTimers(); f > freeTimers {
			freeTimers = f
		}
		if q := dom.MAC.TotalQueueLen(); q > queueDepth {
			queueDepth = q
		}
	}
	total := e.macTotals()
	r.Counter("empower_events_fired_total",
		"discrete events processed by the engines").Add(float64(e.EventsFired()))
	r.Counter("empower_reroutes_total",
		"route swaps by managed flows").Add(float64(e.Reroutes()))
	r.Counter("empower_failovers_total",
		"dead-route detections by fast failover checks").Add(float64(failovers))
	r.Counter("empower_estimator_resets_total",
		"link estimators reset to probe mode after recovery").Add(float64(estResets))
	r.Gauge("empower_engine_heap_depth",
		"peak sampled pending-timer count of any domain engine").Max(float64(heapDepth))
	r.Gauge("empower_engine_timer_pool",
		"peak sampled recycled-timer pool occupancy of any domain engine").Max(float64(freeTimers))
	r.Gauge("empower_mac_queue_depth",
		"peak sampled MAC backlog of any domain (packets)").Max(float64(queueDepth))
	r.Counter("empower_mac_delivered_packets_total",
		"frames delivered across links").Add(float64(total.DeliveredPkts))
	r.Counter("empower_mac_delivered_bits_total",
		"bits delivered across links").Add(total.DeliveredBits)
	r.Counter("empower_mac_airtime_seconds_total",
		"link busy time (airtime) in emulated seconds").Add(total.BusySeconds)
	for reason := 0; reason < int(mac.NumDropReasons); reason++ {
		r.Counter("empower_mac_dropped_packets_total",
			"frames dropped, by reason",
			obs.Label{Key: "reason", Value: mac.DropReason(reason).String()}).
			Add(float64(total.Dropped[reason]))
	}

	r.Counter("empower_shard_windows_total",
		"coordinator runs: barriers at which every domain reached the same virtual time").Add(float64(e.windows))
	// Domains are closed, so a run never stalls on a lookahead and nothing
	// crosses a barrier. bench/traced.go still reads these two series;
	// retire them together with shard.stalls and shard.cross_events via a
	// `benchmark` issue.
	r.Counter("empower_shard_lookahead_stalls_total",
		"always 0: domains are closed under every interaction").Add(0)
	r.Counter("empower_shard_cross_events_total",
		"always 0: domains are closed under every interaction").Add(0)
	r.Gauge("empower_domains",
		"interference domains of the emulated topology").Max(float64(e.NumDomains()))
}
