package main

// layers.go holds every call the harness makes into repro/internal/...;
// no other file of this package imports the repository's packages. The
// timed pass needs none of them — it depends only on CLI flags, the HTTP
// API and the Prometheus series named in traced.go. The traced pass
// measures layers from outside by timing these public functions, so this
// list is the API surface a later refactor must keep, or re-pin through a
// `benchmark` issue:
//
//	stats.NewRand
//	graph.NodeID, graph.LinkID, graph.Path, (*graph.Network).NumLinks
//	topology.Residential, topology.Enterprise, topology.Config,
//	  (*topology.Instance).Build, BuildCached, RandomFlow,
//	  topology.Network, topology.ViewHybrid
//	core.Scheme*, core.Scheme.View/CC, core.RoutesFor, core.Evaluate,
//	  core.Options
//	routing.AppendSequentialRates
//	congestion.Controller (zero value), (*Controller).Reset,
//	  (*Controller).RunAppend, congestion.Route, congestion.Options
//	optimal.Optimal, optimal.ConservativeOpt, optimal.Config,
//	  optimal.EnumerateOptions, optimal.FlowSpec
//	experiments.Figure4Ctx, experiments.Figure6Ctx, experiments.SimConfig
//	  (Runs, Seed, Parallel, JobTime), experiments.TopoResidential,
//	  experiments.TopoEnterprise
//	experiments.ChurnFailoverCtx, experiments.ChurnConfig (Seed, Runs,
//	  Schemes, Delta, Bin, Frac, ManageRoutes, Parallel, Shards, JobTime),
//	  experiments.ParseSchemes
//	scenario.Load, (*scenario.TopologySpec).BuildView
//	sim.Engine (zero value), (*Engine).ScheduleFunc, Run, Now, Fired,
//	  RunUntilIdle
//	mac.New, mac.Options, (*MAC).Send, MAC.Deliver, mac.Packet
//	wire.Header, wire.DataFrame, their AppendBinary / UnmarshalBinary,
//	  wire.InterfaceID
//	fleet.ParseSpec, (*fleet.SweepSpec).Total, fleet.OpenWAL,
//	  (*fleet.WAL).Append, (*fleet.WAL).Close

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/congestion"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/graph"
	"repro/internal/mac"
	"repro/internal/optimal"
	"repro/internal/routing"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/wire"
)

// The §5 figures' fixed parameters, repeated here because the figure
// functions do not export them: Figure 4/6 scheme sets, core.Options'
// default step size and slot count, Figure 6's enumeration bounds and
// the 70 % warm start of core.Evaluate.
var (
	fig4Schemes = []core.Scheme{core.SchemeEMPoWER, core.SchemeSP, core.SchemeSPWiFi,
		core.SchemeMPWiFi, core.SchemeMPmWiFi}
	fig6Schemes = []core.Scheme{core.SchemeEMPoWER, core.SchemeMP2bp, core.SchemeMPWoCC, core.SchemeSP}
	fig6Optimal = optimal.Config{Enumerate: optimal.EnumerateOptions{MaxHops: 4, MaxPaths: 512}}
)

const (
	controllerAlpha = 0.05
	controllerSlots = 4000
	warmStart       = 0.7
)

func simTopo(name string) (experiments.Topo, error) {
	switch name {
	case "residential":
		return experiments.TopoResidential, nil
	case "enterprise":
		return experiments.TopoEnterprise, nil
	}
	return 0, fmt.Errorf("unknown topology family %q", name)
}

// generate derives instance `run` of a sweep exactly as
// experiments.instanceFor does: seed+run for the instance, seed+run+1e6
// for the flow draw.
func generate(topo experiments.Topo, seed int64, run int) (*topology.Instance, graph.NodeID, graph.NodeID) {
	rng := stats.NewRand(seed + int64(run))
	var inst *topology.Instance
	if topo == experiments.TopoEnterprise {
		inst = topology.Enterprise(rng, topology.Config{})
	} else {
		inst = topology.Residential(rng, topology.Config{})
	}
	src, dst := inst.RandomFlow(stats.NewRand(seed + int64(run) + 1_000_000))
	return inst, src, dst
}

// simCounts are the exact counts of a decomposed §5 sweep.
type simCounts struct {
	routingCalls int
	routingPaths int
	slots        int
}

// probeSimLayers replays the instances of one empower-sim operation
// in-process, twice per instance under sibling spans:
//
//   - "figure.rep" does what the figure's replication does — generate,
//     (Figure 6: the two optimal baselines), core.Evaluate per scheme —
//     with spans topology.generate, optimal.optimal,
//     optimal.conservative and core.evaluate;
//   - "chain" decomposes what core.Evaluate does for a CC scheme into
//     graph.build (one per view), routing.route, routing.seed_rates,
//     congestion.reset and congestion.run.
//
// The sum of the chain over the sum of core.evaluate is the coverage: how
// much of Evaluate the decomposition accounts for.
func probeSimLayers(tr *tracer, parent int, fig string, topos []string, runs int, seed int64) (simCounts, error) {
	schemes := fig4Schemes
	if fig == "6" {
		schemes = fig6Schemes
	}
	var counts simCounts
	var ctrl congestion.Controller
	var ccRoutes []congestion.Route
	var initial, traj []float64
	rep := 0
	for _, name := range topos {
		topo, err := simTopo(name)
		if err != nil {
			return counts, err
		}
		for run := 0; run < runs; run, rep = run+1, rep+1 {
			figSpan := tr.begin("figure.rep", parent, 0, rep)
			s := tr.begin("topology.generate", figSpan, 0, rep)
			inst, src, dst := generate(topo, seed, run)
			tr.end(s)
			solvable := true
			if fig == "6" {
				net := inst.BuildCached(topology.ViewHybrid)
				flows := []optimal.FlowSpec{{Src: src, Dst: dst}}
				s = tr.begin("optimal.optimal", figSpan, 0, rep)
				opt, err := optimal.Optimal(net.Network, flows, fig6Optimal)
				tr.end(s)
				solvable = err == nil && opt.FlowRates[0] > 0
				if solvable {
					s = tr.begin("optimal.conservative", figSpan, 0, rep)
					_, err = optimal.ConservativeOpt(net.Network, flows, fig6Optimal)
					tr.end(s)
					solvable = err == nil
				}
			}
			pairs := [][2]graph.NodeID{{src, dst}}
			for _, sch := range schemes {
				if !solvable {
					break // the figure skips disconnected pairs
				}
				s = tr.begin("core.evaluate", figSpan, 0, rep)
				core.Evaluate(inst, sch, pairs, core.Options{})
				tr.end(s)
			}
			tr.end(figSpan)
			if !solvable {
				continue
			}

			chain := tr.begin("chain", parent, 0, rep)
			fresh, _, _ := generate(topo, seed, run)
			var views [3]*topology.Network
			for _, sch := range schemes {
				if !sch.CC() {
					continue // the fluid no-CC baseline is not decomposed
				}
				view := sch.View()
				if views[view] == nil {
					s = tr.begin("graph.build", chain, 0, rep)
					views[view] = fresh.Build(view)
					tr.end(s)
				}
				net := views[view].Network
				s = tr.begin("routing.route", chain, 0, rep)
				routes := core.RoutesFor(sch, net, src, dst)
				tr.end(s)
				counts.routingCalls++
				counts.routingPaths += len(routes)
				if len(routes) == 0 {
					continue
				}
				ccRoutes = ccRoutes[:0]
				for _, p := range routes {
					ccRoutes = append(ccRoutes, congestion.Route{Links: p})
				}
				s = tr.begin("routing.seed_rates", chain, 0, rep)
				initial = routing.AppendSequentialRates(net, routes, initial[:0])
				tr.end(s)
				for i := range initial {
					initial[i] *= warmStart
				}
				s = tr.begin("congestion.reset", chain, 0, rep)
				err := ctrl.Reset(net, ccRoutes, congestion.Options{Alpha: controllerAlpha, InitialRates: initial})
				tr.end(s)
				if err != nil {
					return counts, fmt.Errorf("controller reset: %w", err)
				}
				s = tr.begin("congestion.run", chain, 0, rep)
				traj = ctrl.RunAppend(controllerSlots, traj[:0])
				tr.end(s)
				counts.slots += controllerSlots
			}
			tr.end(chain)
		}
	}
	return counts, nil
}

// sweepProbe is what an in-process sweep through the runner yields: each
// replication's wall time as the runner's JobTime callback reports it,
// and the time json.Marshal takes on the merged result.
type sweepProbe struct {
	repTimes []time.Duration
	encode   time.Duration
}

func (p *sweepProbe) jobTime(d time.Duration) { p.repTimes = append(p.repTimes, d) }

func (p *sweepProbe) timeEncode(result any) error {
	start := time.Now()
	_, err := json.Marshal(result)
	p.encode += time.Since(start)
	return err
}

// probeSimSweep runs the figure of one empower-sim operation in-process
// on one worker.
func probeSimSweep(fig string, topos []string, runs int, seed int64) (sweepProbe, error) {
	var p sweepProbe
	cfg := experiments.SimConfig{Runs: runs, Seed: seed, Parallel: 1, JobTime: p.jobTime}
	for _, name := range topos {
		topo, err := simTopo(name)
		if err != nil {
			return p, err
		}
		var result any
		if fig == "6" {
			result, err = experiments.Figure6Ctx(context.Background(), topo, cfg)
		} else {
			result, err = experiments.Figure4Ctx(context.Background(), topo, cfg)
		}
		if err != nil {
			return p, err
		}
		if err := p.timeEncode(result); err != nil {
			return p, err
		}
	}
	return p, nil
}

// probeChurnSweep runs one empower-scenario operation in-process on one
// worker, with the CLI's default knobs. shards is node.Config.Shards: 1 is
// what the CLI runs, 0 the classic single engine.
func probeChurnSweep(scenarioPath string, runs int, schemes string, seed int64, shards int) (sweepProbe, error) {
	var p sweepProbe
	sc, err := scenario.Load(scenarioPath)
	if err != nil {
		return p, err
	}
	ss, err := experiments.ParseSchemes(schemes)
	if err != nil {
		return p, err
	}
	res, err := experiments.ChurnFailoverCtx(context.Background(), sc, experiments.ChurnConfig{
		Seed: seed, Runs: runs, Schemes: ss, Delta: 0.05, Bin: 0.2, Frac: 0.8,
		ManageRoutes: true, Parallel: 1, Shards: shards, JobTime: p.jobTime,
	})
	if err != nil {
		return p, err
	}
	return p, p.timeEncode(res)
}

// ticker is one self-rescheduling timer of the engine kernel probe.
type ticker struct {
	eng    *sim.Engine
	period float64
}

func tick(arg any) {
	t := arg.(*ticker)
	t.eng.ScheduleFunc(t.period, tick, t)
}

// probeSimKernel measures the bare event engine: depth self-rescheduling
// closure-free timers with distinct periods (so heap order keeps
// changing) on a zero-value engine, at least `events` events through Run.
func probeSimKernel(depth, events int) float64 {
	if depth < 1 {
		depth = 1
	}
	var eng sim.Engine
	for i := 0; i < depth; i++ {
		t := &ticker{eng: &eng, period: 1 + float64(i)/float64(depth)}
		eng.ScheduleFunc(t.period, tick, t)
	}
	start := time.Now()
	for eng.Fired() < uint64(events) {
		eng.Run(eng.Now() + 16)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(eng.Fired())
}

// probeMACKernel measures the bare MAC over a scenario's hybrid network:
// every live link starts with two frames queued and each delivery
// re-sends on the same link, so every link stays backlogged until
// `frames` frames have crossed.
func probeMACKernel(scenarioPath string, seed int64, frames int) (float64, error) {
	sc, err := scenario.Load(scenarioPath)
	if err != nil {
		return 0, err
	}
	if sc.Topology == nil {
		return 0, fmt.Errorf("scenario %q has no topology", sc.Name)
	}
	net, err := sc.Topology.BuildView(seed, topology.ViewHybrid)
	if err != nil {
		return 0, err
	}
	var eng sim.Engine
	m := mac.New(&eng, net, stats.NewRand(seed), mac.Options{})
	const frameBits = 12000
	delivered := 0
	m.Deliver = func(l graph.LinkID, _ mac.Packet) {
		delivered++
		if delivered < frames {
			m.Send(l, frameBits, nil)
		}
	}
	start := time.Now()
	for l := 0; l < net.NumLinks(); l++ {
		m.Send(graph.LinkID(l), frameBits, nil)
		m.Send(graph.LinkID(l), frameBits, nil)
	}
	eng.RunUntilIdle()
	if delivered == 0 {
		return 0, fmt.Errorf("mac kernel: no frame delivered")
	}
	return float64(time.Since(start).Nanoseconds()) / float64(delivered), nil
}

// probeWireCodec measures one Header plus one DataFrame marshal/unmarshal
// round trip on reused buffers.
func probeWireCodec(iters int) (float64, error) {
	frame := wire.DataFrame{
		Header: wire.Header{Route: [wire.MaxHops]wire.InterfaceID{11, 22, 33}, QR: 1.25, Seq: 7},
		Src:    1, Dst: 3, FlowID: 2, RouteIdx: 1, Hop: 1, SentAt: 12.5, PayloadLen: 1400,
	}
	var buf []byte
	var h wire.Header
	var f wire.DataFrame
	start := time.Now()
	for i := 0; i < iters; i++ {
		frame.Header.Seq = uint32(i)
		buf = frame.Header.AppendBinary(buf[:0])
		if err := h.UnmarshalBinary(buf); err != nil {
			return 0, err
		}
		buf = frame.AppendBinary(buf[:0])
		if err := f.UnmarshalBinary(buf); err != nil {
			return 0, err
		}
	}
	elapsed := time.Since(start)
	if f.Header.Seq != uint32(iters-1) || h.Seq != f.Header.Seq {
		return 0, fmt.Errorf("wire codec: round trip lost the sequence number")
	}
	return float64(elapsed.Nanoseconds()) / float64(iters), nil
}

// parseSpec validates a sweep submission body and returns its flat
// replication count (runs × schemes).
func parseSpec(body []byte) (int, error) {
	spec, err := fleet.ParseSpec(body)
	if err != nil {
		return 0, err
	}
	return spec.Total, nil
}

// loadScenario validates a scenario file.
func loadScenario(path string) error {
	_, err := scenario.Load(path)
	return err
}

// probeParseSpec times fleet.ParseSpec on a submission body.
func probeParseSpec(body []byte, iters int) ([]time.Duration, error) {
	out := make([]time.Duration, 0, iters)
	for i := 0; i < iters; i++ {
		start := time.Now()
		if _, err := fleet.ParseSpec(body); err != nil {
			return nil, err
		}
		out = append(out, time.Since(start))
	}
	return out, nil
}

// probeWALAppend times n fsync'd appends of `size`-byte payloads to a
// fresh log in dir — the daemon's WAL directory, so the numbers are this
// machine's disk — and removes the log.
func probeWALAppend(dir string, size, n int) ([]time.Duration, error) {
	path := filepath.Join(dir, "probe.wal")
	defer os.Remove(path)
	w, err := fleet.OpenWAL(path, nil)
	if err != nil {
		return nil, err
	}
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}
	out := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := w.Append(payload); err != nil {
			w.Close()
			return nil, err
		}
		out = append(out, time.Since(start))
	}
	return out, w.Close()
}

// probeWALReplay times fleet.OpenWAL over an existing log — the restart
// cost — and returns the number of records it replayed.
func probeWALReplay(path string) (time.Duration, int, error) {
	records := 0
	start := time.Now()
	w, err := fleet.OpenWAL(path, func([]byte) error { records++; return nil })
	elapsed := time.Since(start)
	if err != nil {
		return 0, 0, err
	}
	return elapsed, records, w.Close()
}
