package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"
)

// The traced pass is separate from the timed pass: it runs a workload's
// operation with the observational flags the binaries already have
// (-phases, -metrics <file>, GET /metrics), times calls into each layer's
// public functions from this process (layers.go), records client-side
// spans around every process and HTTP round trip, and derives the
// per-layer metrics. It also runs the operation once untraced, so the
// difference is the tracing overhead.

// Prometheus series the traced pass reads.
const (
	seriesEvents      = "empower_events_fired_total"
	seriesHeapDepth   = "empower_engine_heap_depth"
	seriesDelivered   = "empower_mac_delivered_packets_total"
	seriesDropped     = "empower_mac_dropped_packets_total"
	seriesAirtime     = "empower_mac_airtime_seconds_total"
	seriesReroutes    = "empower_reroutes_total"
	seriesFailovers   = "empower_failovers_total"
	seriesTransitions = "empower_scenario_transitions_total"
	seriesUtilization = "empower_runner_worker_utilization"
	seriesDomains     = "empower_domains"
	seriesWindows     = "empower_shard_windows_total"
	seriesStalls      = "empower_shard_lookahead_stalls_total"
	seriesCross       = "empower_shard_cross_events_total"
	seriesWALRecords  = "fleet_wal_records"
	seriesWALBytes    = "fleet_wal_bytes"
)

// Sizes of the in-process kernel probes.
const (
	kernelEvents   = 2_000_000
	kernelFrames   = 1_000_000
	codecIters     = 1_000_000
	parseSpecIters = 200
	walAppends     = 500
)

func durationsMillis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = millis(d)
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// emulationCounts fills the per-operation counts every emulation workload
// reports from a Prometheus snapshot (CLI) or a snapshot delta (daemon);
// ops is the number of operations it covers.
func emulationCounts(m measurements, snap promSnapshot, ops float64) {
	m["sim.events"] = measurement{Value: snap.total(seriesEvents) / ops}
	m["sim.heap_depth_peak"] = measurement{Value: snap.total(seriesHeapDepth)}
	m["mac.frames_delivered"] = measurement{Value: snap.total(seriesDelivered) / ops}
	m["mac.frames_dropped"] = measurement{Value: snap.total(seriesDropped) / ops}
	m["mac.airtime_s"] = measurement{Value: snap.total(seriesAirtime) / ops}
	m["node.reroutes"] = measurement{Value: snap.total(seriesReroutes) / ops}
	m["node.failovers"] = measurement{Value: snap.total(seriesFailovers) / ops}
	m["scenario.transitions"] = measurement{Value: snap.total(seriesTransitions) / ops}
}

// delta subtracts an earlier snapshot's counters; the engine heap depth
// is a gauge merged by maximum and is kept as is.
func (s promSnapshot) delta(before promSnapshot) promSnapshot {
	out := promSnapshot{}
	for k, v := range s {
		if k == seriesHeapDepth {
			out[k] = v
			continue
		}
		out[k] = v - before[k]
	}
	return out
}

// kernelProbes runs the three bare-kernel probes of the emulation stack.
func kernelProbes(tr *tracer, parent int, m measurements, scenarioPath string, seed int64, heapDepth int) error {
	sp := tr.begin("sim.kernel", parent, 0, 0)
	m["sim.kernel_ns_per_event"] = measurement{Value: probeSimKernel(heapDepth, kernelEvents), N: kernelEvents}
	tr.end(sp)

	sp = tr.begin("mac.kernel", parent, 0, 0)
	ns, err := probeMACKernel(scenarioPath, seed, kernelFrames)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("mac kernel probe: %w", err)
	}
	m["mac.kernel_ns_per_frame"] = measurement{Value: ns, N: kernelFrames}

	sp = tr.begin("wire.codec", parent, 0, 0)
	ns, err = probeWireCodec(codecIters)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("wire codec probe: %w", err)
	}
	m["wire.codec_ns"] = measurement{Value: ns, N: codecIters}
	return nil
}

// withParallel2 returns a CLI workload's arguments at two workers.
func withParallel2(args []string) []string {
	out := append([]string(nil), args...)
	for i := 0; i+1 < len(out); i++ {
		if out[i] == "-parallel" {
			out[i+1] = "2"
		}
	}
	return out
}

// tracedOp runs one CLI operation under a span, with -metrics writing a
// Prometheus snapshot the caller gets back parsed.
func (s *session) tracedOp(tr *tracer, parent int, name string, args []string, extra ...string) (opResult, promSnapshot, error) {
	prom := filepath.Join(runDir(s.w), name+".prom")
	if err := os.MkdirAll(runDir(s.w), 0o755); err != nil {
		return opResult{}, nil, err
	}
	extra = append(extra, "-metrics", prom)
	sp := tr.begin(name, parent, 0, 0)
	res := runCLI(s.w.bin, cliArgs(s.in.scenarioPath, args, extra...)...)
	tr.end(sp)
	if res.err != nil {
		return res, nil, res.err
	}
	data, err := os.ReadFile(prom)
	if err != nil {
		return res, nil, err
	}
	snap, err := parseProm(data)
	return res, snap, err
}

// tracedCLI is the traced pass of a CLI workload.
func (s *session) tracedCLI(tr *tracer) (passResult, error) {
	w := s.w
	m := measurements{}
	var res passResult
	root := tr.begin("traced-pass", -1, 0, 0)
	defer tr.end(root)

	sp := tr.begin("op.plain", root, 0, 0)
	plain := s.op()
	tr.end(sp)

	scenarioCLI := w.bin == binScenario
	var extra []string
	if scenarioCLI {
		extra = []string{"-phases"}
	}
	traced, snap, err := s.tracedOp(tr, root, "op.traced", w.args, extra...)
	if err != nil {
		return res, err
	}
	par2, snap2, err := s.tracedOp(tr, root, "op.parallel2", withParallel2(w.args))
	if err != nil {
		return res, err
	}
	// Observational flags and worker counts never change the bytes; only
	// -phases adds an object to the envelope, so those operations are
	// compared on their result.
	identical := []opResult{plain, par2}
	var sameResult []opResult
	if scenarioCLI {
		sameResult = append(sameResult, traced)
	} else {
		identical = append(identical, traced)
	}

	m["trace.overhead_frac"] = measurement{Value: ratio(millis(traced.wall)-millis(plain.wall), millis(plain.wall))}
	m["proc.peak_rss_mb"] = measurement{Value: float64(plain.rssKB) / 1024}
	m["runner.utilization_w2"] = measurement{Value: snap2.total(seriesUtilization)}
	m["runner.speedup_w2"] = measurement{Value: ratio(millis(plain.wall), millis(par2.wall)),
		Note: fmt.Sprintf("one op at -parallel 2 on %d CPUs", runtime.NumCPU())}

	probes := tr.begin("probes", root, 0, 0)
	defer tr.end(probes)
	var sweep sweepProbe
	if scenarioCLI {
		ph, err := parsePhases(traced.out)
		if err != nil {
			return res, err
		}
		reps := float64(w.reps)
		m["scenario.bind_ms"] = measurement{Value: ph.Bind * 1000 / reps}
		m["scenario.run_ms"] = measurement{Value: ph.Run * 1000 / reps}
		m["scenario.collect_ms"] = measurement{Value: ph.Collect * 1000 / reps}
		emulationCounts(m, snap, 1)
		m["node.ns_per_event"] = measurement{Value: ratio(ph.Run*1e9, snap.total(seriesEvents)),
			Note: "phases run_seconds / events: the whole stack per event"}
		sameResult = append(sameResult, s.shardMetrics(tr, root, m, snap)...)
		multiDomain := snap.total(seriesDomains) > 1
		sp = tr.begin("runner.sweep", probes, 0, 0)
		sweep, err = probeChurnSweep(s.in.scenarioPath, w.runs, w.schemes, programSeed, 1)
		tr.end(sp)
		if err != nil {
			return res, fmt.Errorf("in-process churn sweep: %w", err)
		}
		if multiDomain {
			// The classic engine (node.Config.Shards = 0) is reachable
			// only in-process: the CLI's -shards starts at 1.
			sp = tr.begin("runner.sweep.classic", probes, 0, 0)
			classic, err := probeChurnSweep(s.in.scenarioPath, w.runs, w.schemes, programSeed, 0)
			tr.end(sp)
			if err != nil {
				return res, fmt.Errorf("in-process classic-engine sweep: %w", err)
			}
			m["shard.decompose_overhead_frac"] = measurement{
				Value: ratio(sum(durationsMillis(sweep.repTimes)), sum(durationsMillis(classic.repTimes))) - 1,
				Note:  "replication time, decomposed engine on one worker / classic engine - 1; the two draw different per-domain RNG streams, so this compares cost per replication, not per event",
			}
		}
		if err := kernelProbes(tr, probes, m, s.in.scenarioPath, programSeed, int(snap.total(seriesHeapDepth))); err != nil {
			return res, err
		}
	} else {
		sp = tr.begin("runner.sweep", probes, 0, 0)
		sweep, err = probeSimSweep(w.fig, w.topos, w.runs, programSeed)
		tr.end(sp)
		if err != nil {
			return res, fmt.Errorf("in-process figure sweep: %w", err)
		}
		layers := tr.begin("layers", probes, 0, 0)
		counts, err := probeSimLayers(tr, layers, w.fig, w.topos, w.runs, programSeed)
		tr.end(layers)
		if err != nil {
			return res, fmt.Errorf("layer decomposition: %w", err)
		}
		simLayerMetrics(tr, m, counts)
	}
	repMS := durationsMillis(sweep.repTimes)
	m["runner.rep_ms_p50"] = measurement{Value: median(repMS), N: len(repMS)}
	if supportsPercentile(len(repMS), 95) {
		m["runner.rep_ms_p95"] = measurement{Value: percentile(repMS, 95), N: len(repMS)}
	} else {
		m["runner.rep_ms_p95"] = measurement{N: len(repMS),
			Note: fmt.Sprintf("a p95 needs %d replications beyond it", tailBeyond)}
	}
	m["experiments.merge_encode_us"] = measurement{Value: millis(sweep.encode) * 1000,
		Note: "in-process json.Marshal of the merged result"}

	verdicts, notes := s.verify(identical, nil)
	for _, op := range sameResult {
		verdict := op.err
		if verdict == nil {
			verdict = sameChurnResult(plain.out, op.out)
		}
		verdicts = append(verdicts, verdict)
	}
	res.Attempted = len(verdicts)
	res.Failed, res.Notes = countFailed(verdicts, notes)
	res.Metrics = m
	return res, nil
}

// simLayerMetrics turns the spans of probeSimLayers into the §5 layer
// metrics: medians per call, and shares of the summed core.evaluate time.
func simLayerMetrics(tr *tracer, m measurements, counts simCounts) {
	med := func(metric, spanName string, scale float64) {
		xs := tr.millis(spanName)
		if len(xs) > 0 {
			m[metric] = measurement{Value: median(xs) * scale, N: len(xs)}
		}
	}
	med("topology.generate_ms", "topology.generate", 1)
	med("graph.build_ms", "graph.build", 1)
	med("routing.route_ms", "routing.route", 1)
	med("routing.seed_rates_us", "routing.seed_rates", 1000)
	med("congestion.reset_us", "congestion.reset", 1000)
	med("core.evaluate_ms", "core.evaluate", 1)
	med("optimal.optimal_ms_p50", "optimal.optimal", 1)
	med("optimal.conservative_ms_p50", "optimal.conservative", 1)
	if xs := tr.millis("optimal.optimal"); len(xs) > 0 {
		m["optimal.optimal_ms_max"] = measurement{Value: slices.Max(xs), N: len(xs)}
	}
	m["routing.calls"] = measurement{Value: float64(counts.routingCalls)}
	m["routing.paths_per_call"] = measurement{Value: ratio(float64(counts.routingPaths), float64(counts.routingCalls))}

	run := sum(tr.millis("congestion.run"))
	reset := sum(tr.millis("congestion.reset"))
	evaluate := sum(tr.millis("core.evaluate"))
	chain := sum(tr.millis("graph.build")) + sum(tr.millis("routing.route")) +
		sum(tr.millis("routing.seed_rates")) + reset + run
	m["congestion.ns_per_slot"] = measurement{Value: ratio(run*1e6, float64(counts.slots)), N: counts.slots}
	m["congestion.share"] = measurement{Value: ratio(reset+run, evaluate)}
	m["core.coverage"] = measurement{Value: ratio(chain, evaluate),
		Note: "decomposed chain / core.evaluate, both summed"}
	m["optimal.share"] = measurement{Value: ratio(
		sum(tr.millis("optimal.optimal"))+sum(tr.millis("optimal.conservative")),
		sum(tr.millis("figure.rep")))}
}

// shardMetrics reports the domain-sharded engine's counters from the
// traced operation's snapshot and, on a multi-domain topology, compares
// two extra operations at -shards 1 and -shards 2 on the run phase; it
// returns those operations for the output checks. Only a binary that
// does not know -shards goes without the comparison; an operation that
// fails any other way is returned as failed.
func (s *session) shardMetrics(tr *tracer, parent int, m measurements, snap promSnapshot) []opResult {
	w := s.w
	windows := snap.total(seriesWindows)
	m["shard.windows"] = measurement{Value: windows}
	m["shard.stalls"] = measurement{Value: snap.total(seriesStalls)}
	m["shard.cross_events"] = measurement{Value: snap.total(seriesCross)}
	m["shard.events_per_window"] = measurement{Value: ratio(snap.total(seriesEvents), windows)}
	if snap.total(seriesDomains) <= 1 {
		return nil // one interference domain: nothing to decompose
	}
	var ops []opResult
	var runSeconds [2]float64
	for i, n := range []string{"1", "2"} {
		res, _, err := s.tracedOp(tr, parent, "op.shards"+n, w.args, "-phases", "-shards", n)
		if err != nil && strings.Contains(err.Error(), "flag provided but not defined: -shards") {
			m["shard.speedup_w2"] = measurement{Note: "binary rejected -shards"}
			return nil
		}
		if err == nil {
			var p phases
			if p, err = parsePhases(res.out); err == nil {
				runSeconds[i] = p.Run
			}
		}
		if err != nil {
			res.err = fmt.Errorf("-shards %s: %w", n, err)
			m["shard.speedup_w2"] = measurement{Note: "the operation at -shards " + n + " failed"}
			return append(ops, res)
		}
		ops = append(ops, res)
	}
	m["shard.speedup_w2"] = measurement{Value: ratio(runSeconds[0], runSeconds[1]),
		Note: fmt.Sprintf("run phase at -shards 1 / -shards 2 on %d CPUs; a fair trial needs >= 4", runtime.NumCPU())}
	return ops
}

// tracedFleet is the traced pass of a fleet workload: a short untraced
// loop, the same loop with client-side spans and /metrics snapshots
// around it, the untraced loop once more against a second daemon at
// -workers 2, empower-scenario on the same work, and the in-process WAL,
// spec and kernel probes.
func (s *session) tracedFleet(tr *tracer) (passResult, error) {
	w := s.w
	d := s.d
	m := measurements{}
	var res passResult
	root := tr.begin("traced-pass", -1, 0, 0)
	defer tr.end(root)

	loopOps := max(1, s.cfg.opCount(w)/10)
	rss0, err := procRSSKB(d.pid())
	if err != nil {
		return res, err
	}

	// loop runs loopOps sweeps per client against d and returns them with
	// the loop's wall time.
	type tracedSweep struct {
		res   opResult
		st    sweepStatus
		times sweepTimes
	}
	loop := func(d *daemon, name string, spans bool) ([]tracedSweep, time.Duration) {
		loopSpan := tr.begin(name, root, 0, 0)
		out := make([][]tracedSweep, w.clients)
		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < w.clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				client := tr.begin(fmt.Sprintf("client%d", c), loopSpan, 0, 0)
				defer tr.end(client)
				for i := 0; i < loopOps; i++ {
					var ts tracedSweep
					var times *sweepTimes
					if spans {
						times = &ts.times
					}
					sp := tr.begin("sweep", client, i, 0)
					ts.res, ts.st = d.runSweep(s.in.specBody, times)
					tr.end(sp)
					out[c] = append(out[c], ts)
				}
			}(c)
		}
		wg.Wait()
		wall := time.Since(start)
		tr.end(loopSpan)
		var all []tracedSweep
		for _, o := range out {
			all = append(all, o...)
		}
		return all, wall
	}

	plain, plainWall := loop(d, "loop.plain", false)
	before, _, err := d.metrics()
	if err != nil {
		return res, err
	}
	traced, tracedWall := loop(d, "loop.traced", true)
	var metricsMS []float64
	var after promSnapshot
	for i := 0; i < 5; i++ {
		var took time.Duration
		if after, took, err = d.metrics(); err != nil {
			return res, err
		}
		metricsMS = append(metricsMS, millis(took))
	}
	rss1, err := procRSSKB(d.pid())
	if err != nil {
		return res, err
	}

	// Two workers on two shared vCPUs are too unsteady to gate (see the
	// workload type), yet only there do two replications checkpoint at once,
	// which is what a group commit in the WAL would merge.
	d2, err := startDaemon(2)
	if err != nil {
		return res, err
	}
	plain2, plain2Wall := loop(d2, "loop.workers2", false)
	if err := d2.stop(); err != nil {
		return res, err
	}

	var ops []opResult
	var plainMS, tracedMS, submit, status, idleStatus, results, queueWait []float64
	var retries, timeouts, panics int
	for _, ts := range plain {
		ops = append(ops, ts.res)
		plainMS = append(plainMS, millis(ts.res.wall))
	}
	for _, ts := range plain2 {
		ops = append(ops, ts.res)
	}
	for _, ts := range traced {
		ops = append(ops, ts.res)
		tracedMS = append(tracedMS, millis(ts.res.wall))
		submit = append(submit, millis(ts.times.submit))
		results = append(results, millis(ts.times.results))
		idleStatus = append(idleStatus, millis(ts.times.idleStatus))
		queueWait = append(queueWait, millis(ts.times.queueWait))
		status = append(status, durationsMillis(ts.times.status)...)
		retries += ts.st.Retries
		timeouts += ts.st.Timeouts
		panics += ts.st.Panics
	}
	// empower-scenario on the same work at the same worker count: the
	// result the daemon must reproduce and the rate it is compared with.
	var refMS []float64
	var ref opResult
	refSpan := tr.begin("reference.cli", root, 0, 0)
	for start := time.Now(); len(refMS) == 0 || time.Since(start) < time.Second; {
		if ref = s.reference(); ref.err != nil {
			return res, ref.err
		}
		refMS = append(refMS, millis(ref.wall))
	}
	tr.end(refSpan)
	verdicts, notes := s.verify(ops, &ref)
	res.Attempted = len(ops)
	res.Failed, res.Notes = countFailed(verdicts, notes)

	nOps := float64(len(traced))
	totalReps := nOps * float64(w.reps)
	diff := after.delta(before)
	emulationCounts(m, diff, nOps)
	m["trace.overhead_frac"] = measurement{Value: ratio(median(tracedMS)-median(plainMS), median(plainMS)), N: len(tracedMS)}
	m["gateway.submit_ms_p50"] = measurement{Value: median(submit), N: len(submit)}
	m["gateway.status_ms_p50"] = measurement{Value: median(status), N: len(status)}
	m["gateway.results_ms_p50"] = measurement{Value: median(results), N: len(results)}
	m["gateway.metrics_ms_p50"] = measurement{Value: median(metricsMS), N: len(metricsMS)}
	m["experiments.merge_encode_us"] = measurement{Value: (median(results) - median(idleStatus)) * 1000, N: len(results),
		Note: "results round trip minus a status round trip on the then idle daemon"}
	m["supervisor.queue_wait_ms_p50"] = measurement{Value: median(queueWait), N: len(queueWait),
		Note: fmt.Sprintf("seen by polling every %v", pollInterval)}
	m["supervisor.retries"] = measurement{Value: float64(retries)}
	m["supervisor.timeouts"] = measurement{Value: float64(timeouts)}
	m["supervisor.panics"] = measurement{Value: float64(panics)}
	m["fleet.rss_mb_end"] = measurement{Value: float64(rss1) / 1024}
	m["fleet.rss_kb_per_rep"] = measurement{Value: float64(rss1-rss0) / float64((len(plain)+len(traced))*w.reps),
		Note: "VmRSS growth from after the warm-up to after both loops, per replication"}
	m["proc.peak_rss_mb"] = measurement{Value: float64(ref.rssKB) / 1024, Note: "empower-scenario on the same sweep"}
	fleetRate := totalReps / tracedWall.Seconds()
	cliRate := float64(w.reps) / (median(refMS) / 1000)
	m["fleet.overhead_frac"] = measurement{Value: 1 - ratio(fleetRate, cliRate), N: len(refMS),
		Note: fmt.Sprintf("fleet %.1f reps/s vs empower-scenario -parallel 1 %.1f reps/s", fleetRate, cliRate)}

	m["fleet.speedup_w2"] = measurement{Value: ratio(plainWall.Seconds(), plain2Wall.Seconds()), N: len(plain2),
		Note: fmt.Sprintf("the untraced loop at -workers 1 / at -workers 2 on %d CPUs", runtime.NumCPU())}

	probes := tr.begin("probes", root, 0, 0)
	defer tr.end(probes)
	if err := s.walProbes(tr, probes, m, diff, nOps, tracedWall); err != nil {
		return res, err
	}
	sp := tr.begin("fleet.parse_spec", probes, 0, 0)
	parses, err := probeParseSpec(s.in.specBody, parseSpecIters)
	tr.end(sp)
	if err != nil {
		return res, fmt.Errorf("parse spec probe: %w", err)
	}
	m["fleet.parse_spec_us"] = measurement{Value: median(durationsMillis(parses)) * 1000, N: len(parses)}
	if err := kernelProbes(tr, probes, m, s.in.scenarioPath, programSeed, int(after.total(seriesHeapDepth))); err != nil {
		return res, err
	}
	res.Metrics = m
	return res, nil
}

// walProbes reports the WAL's share of a loop: the records and bytes the
// loop's `ops` operations appended (diff is the /metrics delta over the
// loop, which took loopWall), the cost of an fsync'd append of the mean
// record on the daemon's own disk, and the cost of replaying the log.
func (s *session) walProbes(tr *tracer, parent int, m measurements, diff promSnapshot, ops float64, loopWall time.Duration) error {
	d := s.d
	records, bytes := diff[seriesWALRecords], diff[seriesWALBytes]
	m["wal.records"] = measurement{Value: records / ops}
	m["wal.bytes"] = measurement{Value: bytes / ops}
	// The WAL frames each payload with an 8-byte header.
	payload := max(1, int(ratio(bytes, records))-8)
	sp := tr.begin("wal.append", parent, 0, 0)
	appends, err := probeWALAppend(d.walDir, payload, walAppends)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("wal append probe: %w", err)
	}
	appendUS := durationsMillis(appends)
	for i := range appendUS {
		appendUS[i] *= 1000
	}
	m["wal.append_us_p50"] = measurement{Value: median(appendUS), N: len(appendUS),
		Note: fmt.Sprintf("%d-byte payloads on this machine's disk", payload)}
	m["wal.append_us_p95"] = measurement{Value: percentile(appendUS, 95), N: len(appendUS)}
	m["wal.fsync_share"] = measurement{Value: ratio(records*median(appendUS)/1e6, loopWall.Seconds()),
		Note: "computed: records x append p50 / loop wall"}

	// Replay a copy: the daemon still holds the log itself.
	data, err := os.ReadFile(d.walPath())
	if err != nil {
		return err
	}
	walCopy := filepath.Join(d.walDir, "replay.wal")
	if err := os.WriteFile(walCopy, data, 0o644); err != nil {
		return err
	}
	sp = tr.begin("wal.replay", parent, 0, 0)
	replay, replayed, err := probeWALReplay(walCopy)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("wal replay probe: %w", err)
	}
	m["wal.replay_ms"] = measurement{Value: millis(replay), N: replayed, Note: "OpenWAL over a copy of the end-of-run log"}
	return nil
}

// runTraced is a workload's whole traced run. The spans are written as a
// Chrome trace to bench/out/<workload>.trace.json.
func runTraced(w *workload, cfg config) (passResult, error) {
	s, err := setUp(w, cfg)
	if err != nil {
		return passResult{}, err
	}
	tr := newTracer(w.name)
	var res passResult
	if w.fleet() {
		res, err = s.tracedFleet(tr)
	} else {
		res, err = s.tracedCLI(tr)
	}
	if cerr := s.close(); cerr != nil && err == nil {
		res.Failed++
		res.Notes = append(res.Notes, cerr.Error())
	}
	if err != nil {
		return res, fmt.Errorf("%s: traced pass: %w", w.name, err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return res, err
	}
	if err := tr.writeChrome(filepath.Join(outDir, w.name+".trace.json")); err != nil {
		return res, err
	}
	res.Metrics.fillLayers()
	return res, nil
}
