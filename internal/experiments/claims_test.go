package experiments

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/topology"
)

// The paper's claims as a ledger: one row per quantity, with the paper's
// value, the value this reproduction measured when the row was recorded, a
// tolerance and a status. A `matches` row fails when its value leaves the
// paper's by more than the tolerance. A `deviates` row is a ratchet: it
// fails when its value moves away from the paper's by more than the
// tolerance beyond the recorded gap, and it fails when it comes within the
// tolerance of the paper's value while the row still says `deviates` (flip
// the status in the same diff). Every row also carries a mutation of the
// model, applied in-test, that must fail it: a claim check that cannot
// fail checks nothing.
//
// The Figure 4 rows, and the Figure 5 rows computed from the same
// samples, are measured over claimRuns instances at seed 1. Their
// tolerances are the spread (max − min, rounded up) over the five
// disjoint seed blocks 1, 201, 401, 601 and 801 at the same size. The
// blocks must be disjoint: run r of a sweep draws its instance from
// Seed+r, so sweeps at seeds 1, 2 and 3 share all but two of their
// instances and agree to ±0.004, which says nothing about the spread. At
// 200 instances the disjoint blocks give
//
//	EMPoWER/SP-WiFi − 1   residential 0.990–1.264   enterprise 1.168–1.358
//	EMPoWER/SP − 1        residential 0.292–0.313   enterprise 0.243–0.263
//	MP-WiFi = SP-WiFi     residential 1.000 of the instances in every block
//	Figure 5 rescue       residential 0.000 in every block
//	                      enterprise 0.025–0.150 (0.050 at seed 1)
//
// PAPER.md carries the same ledger in prose.

// claimRuns is the number of instances per Figure 4 row.
const claimRuns = 200

type claimStatus int

const (
	matches claimStatus = iota
	deviates
)

func (s claimStatus) String() string {
	if s == matches {
		return "matches"
	}
	return "deviates"
}

// claim is one row of the ledger.
type claim struct {
	name     string // paper figure, quantity and its definition
	topo     Topo
	value    func(Figure4Result) float64
	paper    float64
	measured float64 // the value when the row was recorded
	tol      float64
	status   claimStatus
	// mutation names the model change mutate applies to every instance,
	// which must fail the row.
	mutation string
	mutate   func(*topology.Instance)
}

// check returns why v fails the row, or nil.
func (c claim) check(v float64) error {
	off := math.Abs(v - c.paper)
	switch {
	case c.status == matches && off > c.tol:
		return fmt.Errorf("%.4f is %.4f from the paper's %.4f, beyond the tolerance %.4f", v, off, c.paper, c.tol)
	case c.status == deviates && off <= c.tol:
		return fmt.Errorf("%.4f is within %.4f of the paper's %.4f: flip the row to matches", v, c.tol, c.paper)
	case c.status == deviates && off > math.Abs(c.measured-c.paper)+c.tol:
		return fmt.Errorf("%.4f moved away from the paper's %.4f: recorded %.4f, tolerance %.4f", v, c.paper, c.measured, c.tol)
	}
	return nil
}

// mutatedFigure4 is Figure4Ctx with mutate applied to every instance
// before it is materialized.
func mutatedFigure4(t Topo, cfg SimConfig, mutate func(*topology.Instance)) Figure4Result {
	schemes := []core.Scheme{core.SchemeEMPoWER, core.SchemeSP, core.SchemeSPWiFi,
		core.SchemeMPWiFi, core.SchemeMPmWiFi}
	rows := must(runner.Collect(context.Background(), cfg.runs(), cfg.runnerConfig(),
		func(_ context.Context, rep runner.Rep) []float64 {
			inst, src, dst := instanceFor(t, cfg, rep.Index)
			mutate(inst)
			out := make([]float64, len(schemes))
			for i, s := range schemes {
				out[i] = core.Throughput(inst, s, src, dst, cfg.Core)
			}
			return out
		}))
	res := Figure4Result{Topo: t, Samples: map[core.Scheme][]float64{}}
	for _, row := range rows {
		for i, s := range schemes {
			res.Samples[s] = append(res.Samples[s], row[i])
		}
	}
	res.GainVsWiFi = meanGain(res.Samples[core.SchemeEMPoWER], res.Samples[core.SchemeSPWiFi])
	res.GainVsSP = meanGain(res.Samples[core.SchemeEMPoWER], res.Samples[core.SchemeSP])
	return res
}

// equalShare is the fraction of instances on which schemes a and b
// deliver the same throughput, bit for bit.
func equalShare(r Figure4Result, a, b core.Scheme) float64 {
	n := 0
	for i, x := range r.Samples[a] {
		if x == r.Samples[b][i] {
			n++
		}
	}
	return float64(n) / float64(len(r.Samples[a]))
}

// Instance mutations.
func halveWiFi(inst *topology.Instance) { scale(inst.WiFiCap, 0.5) }
func dropWiFi(inst *topology.Instance)  { scale(inst.WiFiCap, 0) }
func dropPLC(inst *topology.Instance)   { scale(inst.PLCCap, 0) }
func shortSense(inst *topology.Instance) {
	inst.Config.WiFiSenseFactor = 0.4
}

func scale(caps [][]float64, f float64) {
	for _, row := range caps {
		for j := range row {
			row[j] *= f
		}
	}
}

func gainVsWiFi(r Figure4Result) float64 { return r.GainVsWiFi }
func gainVsSP(r Figure4Result) float64   { return r.GainVsSP }
func rescue(r Figure4Result) float64     { return Figure5(r).RescueFrac }

var claims = []claim{
	{name: "Fig 4 residential: EMPoWER/SP-WiFi − 1, ratio of means", topo: TopoResidential, value: gainVsWiFi,
		paper: 0.59, measured: 1.0357, tol: 0.275, status: deviates,
		mutation: "halve every WiFi capacity", mutate: halveWiFi},
	{name: "Fig 4 enterprise: EMPoWER/SP-WiFi − 1, ratio of means", topo: TopoEnterprise, value: gainVsWiFi,
		paper: 0.68, measured: 1.2890, tol: 0.190, status: deviates,
		mutation: "halve every WiFi capacity", mutate: halveWiFi},
	{name: "Fig 4 residential: EMPoWER/SP − 1, ratio of means", topo: TopoResidential, value: gainVsSP,
		paper: 0.39, measured: 0.2920, tol: 0.021, status: deviates,
		mutation: "drop every PLC link", mutate: dropPLC},
	{name: "Fig 4 enterprise: EMPoWER/SP − 1, ratio of means", topo: TopoEnterprise, value: gainVsSP,
		paper: 0.31, measured: 0.2627, tol: 0.020, status: deviates,
		mutation: "drop every PLC link", mutate: dropPLC},
	{name: "Fig 4 residential: share of instances with MP-WiFi = SP-WiFi (one channel, one collision domain)", topo: TopoResidential,
		value: func(r Figure4Result) float64 { return equalShare(r, core.SchemeMPWiFi, core.SchemeSPWiFi) },
		paper: 1, measured: 1, tol: 0, status: matches,
		mutation: "WiFi carrier sensing at 0.4× the connection radius", mutate: shortSense},
	// Neither "drop every PLC link" nor "halve every WiFi capacity" fails
	// the rescue rows: both leave the worst flows without a rescue.
	{name: "Fig 5 residential: share of the worst-20 % flows (by min throughput) that only EMPoWER connects", topo: TopoResidential, value: rescue,
		paper: 0.06, measured: 0, tol: 0, status: deviates,
		mutation: "drop every WiFi link", mutate: dropWiFi},
	{name: "Fig 5 enterprise: share of the worst-20 % flows (by min throughput) that only EMPoWER connects", topo: TopoEnterprise, value: rescue,
		paper: 0.19, measured: 0.05, tol: 0.125, status: deviates,
		mutation: "drop every WiFi link", mutate: dropWiFi},
}

// TestPaperClaims checks every row of the ledger on the reproduction and
// under the row's mutation.
func TestPaperClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("Figure 4 at 200 instances per topology, plus one mutated sweep per row")
	}
	cfg := SimConfig{Runs: claimRuns, Seed: 1}
	figure4 := map[Topo]Figure4Result{}
	for _, topo := range []Topo{TopoResidential, TopoEnterprise} {
		figure4[topo] = must(Figure4Ctx(context.Background(), topo, cfg))
		// The mutations run on a copy of Figure4Ctx's loop; unmutated, it
		// must reproduce the figure.
		if mirror := mutatedFigure4(topo, cfg, func(*topology.Instance) {}); !reflect.DeepEqual(mirror, figure4[topo]) {
			t.Fatalf("%v: the mutation sweep does not reproduce Figure4Ctx", topo)
		}
	}
	for _, c := range claims {
		v := c.value(figure4[c.topo])
		t.Logf("%-90s paper %.3f  measured %.4f  tol %.3f  %v", c.name, c.paper, v, c.tol, c.status)
		if err := c.check(v); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		mv := c.value(mutatedFigure4(c.topo, cfg, c.mutate))
		t.Logf("  under %q: %.4f", c.mutation, mv)
		if c.check(mv) == nil {
			t.Errorf("%s: mutation %q gives %.4f, which the row does not catch", c.name, c.mutation, mv)
		}
	}
}

// The §5 ↔ §6 cross-model rows hold the packet emulation to the analytic
// model on the same flows: EMPoWER at δ = 0.05, the flows of Figure 4's
// runs 0–39 (residential) and 0–19 (enterprise) at seed 0, the analytic
// steady state (core.Evaluate) against the emulation's goodput over
// 120–150 s of a 150 s run with estimation on, on the analytic run's
// routes. The analytic rate counts on-air bits and the goodput counts
// payload, so a flow that reaches the steady state delivers the payload
// share of it: 1500 of a data frame's 1539 bytes.
//
//   - Single-route flows: the median of packet/analytic is 1500/1539 to
//     within crossTol, the largest distance of that median from
//     1500/1539 over the disjoint blocks of runs 0–39/0–19, 40–79/20–39
//     and 80–119/40–59 (7.7·10⁻⁵, rounded up).
//   - Multi-route flows: crossBandShare of them sit inside the 10th–90th
//     percentile band of packet/analytic over the 117 multi-route flows
//     of those three blocks, [crossBandLo, crossBandHi]. The blocks put
//     0.86, 0.74 and 0.81 of their flows inside; the tolerance is the
//     largest distance from 0.8, rounded up.
//
// Each mutation changes the packet run's inputs only and must fail a row.
// To keep the rows under a minute on two cores, a mutation re-runs the
// first crossMutated flows of the row it must fail.
const (
	crossPayloadShare = 1500.0 / 1539
	crossTol          = 1e-4
	crossBandLo       = 0.9572
	crossBandHi       = 0.9740
	crossBandShare    = 0.8
	crossBandTol      = 0.07
	crossMutated      = 8
)

// crossRun names one flow of the cross-model rows: run `run` of
// Figure 4's seeding on topology topo.
type crossRun struct {
	topo Topo
	run  int
}

// crossFlow is one flow's outcome on both models.
type crossFlow struct {
	crossRun
	analytic, packet float64
	routes           int
}

// packetInputs is what a mutation may change in the packet run.
type packetInputs struct {
	net    *graph.Network
	routes []graph.Path
	delta  float64
}

// crossFlows evaluates each run on both models, fanned out on the runner;
// mutate changes the packet run's inputs only. Flows without a route are
// left out.
func crossFlows(runs []crossRun, mutate func(*packetInputs)) []crossFlow {
	const delta = 0.05
	flows := must(runner.Collect(context.Background(), len(runs), runner.Config{},
		func(_ context.Context, rep runner.Rep) crossFlow {
			cr := runs[rep.Index]
			inst, src, dst := instanceFor(cr.topo, SimConfig{}, cr.run)
			res := core.Evaluate(inst, core.SchemeEMPoWER, [][2]graph.NodeID{{src, dst}}, core.Options{Delta: delta})
			net := inst.BuildCached(core.SchemeEMPoWER.View()).Network
			routes := core.RoutesFor(core.SchemeEMPoWER, net, src, dst)
			if len(routes) == 0 {
				return crossFlow{crossRun: cr}
			}
			in := packetInputs{net: net.Clone(), routes: routes, delta: delta}
			mutate(&in)
			em := node.NewEmulation(in.net, node.Config{Delta: in.delta, Estimation: true}, int64(cr.run))
			if _, err := em.AddFlow(node.FlowSpec{Src: src, Dst: dst, Routes: in.routes, Kind: node.TrafficSaturated}, 0); err != nil {
				panic(err)
			}
			em.Run(150)
			return crossFlow{crossRun: cr, analytic: res.Flows[0].Throughput,
				packet: em.Agent(dst).Sinks()[0].MeanRate(120, 150), routes: len(routes)}
		}))
	out := flows[:0]
	for _, f := range flows {
		if f.routes > 0 {
			out = append(out, f)
		}
	}
	return out
}

// ratios returns packet/analytic of the flows with one route (multi
// false) or with several (multi true), and their runs.
func ratios(flows []crossFlow, multi bool) ([]float64, []crossRun) {
	var rs []float64
	var runs []crossRun
	for _, f := range flows {
		if (f.routes > 1) == multi {
			rs = append(rs, f.packet/f.analytic)
			runs = append(runs, f.crossRun)
		}
	}
	return rs, runs
}

// singleRouteRow returns the single-route row's value on flows and why it
// fails, or nil.
func singleRouteRow(flows []crossFlow) (float64, error) {
	rs, _ := ratios(flows, false)
	v := stats.Quantile(rs, 0.5)
	if !(math.Abs(v-crossPayloadShare) <= crossTol) {
		return v, fmt.Errorf("median packet/analytic %.6f of %d single-route flows is not 1500/1539 = %.6f ± %g", v, len(rs), crossPayloadShare, crossTol)
	}
	return v, nil
}

// multiRouteRow returns the multi-route row's value on flows and why it
// fails, or nil.
func multiRouteRow(flows []crossFlow) (float64, error) {
	rs, _ := ratios(flows, true)
	in := 0
	for _, r := range rs {
		if r >= crossBandLo && r <= crossBandHi {
			in++
		}
	}
	v := float64(in) / float64(len(rs))
	if !(math.Abs(v-crossBandShare) <= crossBandTol) {
		return v, fmt.Errorf("%.3f of %d multi-route flows have packet/analytic in [%g, %g], want %g ± %g", v, len(rs), crossBandLo, crossBandHi, crossBandShare, crossBandTol)
	}
	return v, nil
}

// TestCrossModelRows checks the §5 ↔ §6 cross-model rows and that each
// mutation of the packet run fails one of them.
func TestCrossModelRows(t *testing.T) {
	if testing.Short() {
		t.Skip("60 packet emulations of 150 s, plus the mutated ones")
	}
	var runs []crossRun
	for r := 0; r < 40; r++ {
		runs = append(runs, crossRun{TopoResidential, r})
	}
	for r := 0; r < 20; r++ {
		runs = append(runs, crossRun{TopoEnterprise, r})
	}
	flows := crossFlows(runs, func(*packetInputs) {})
	rows := []struct {
		name  string
		row   func([]crossFlow) (float64, error)
		multi bool
	}{
		{"single-route flows: median packet/analytic = 1500/1539", singleRouteRow, false},
		{"multi-route flows: share inside the recorded 10th–90th percentile band", multiRouteRow, true},
	}
	for _, r := range rows {
		v, err := r.row(flows)
		t.Logf("%-75s %.6f", r.name, v)
		if err != nil {
			t.Errorf("%s: %v", r.name, err)
		}
	}
	mutations := []struct {
		name   string
		row    int
		mutate func(*packetInputs)
	}{
		{"every capacity × 0.95", 0, func(in *packetInputs) {
			for i := range in.net.Links {
				in.net.Links[i].Capacity *= 0.95
			}
		}},
		{"the first route only", 1, func(in *packetInputs) { in.routes = in.routes[:1] }},
		{"δ = 0.3", 0, func(in *packetInputs) { in.delta = 0.3 }},
	}
	for _, m := range mutations {
		r := rows[m.row]
		_, sample := ratios(flows, r.multi)
		v, err := r.row(crossFlows(sample[:crossMutated], m.mutate))
		t.Logf("  under %q, %s: %.6f", m.name, r.name, v)
		if err == nil {
			t.Errorf("mutation %q gives %.6f, which %q does not catch", m.name, v, r.name)
		}
	}
}
