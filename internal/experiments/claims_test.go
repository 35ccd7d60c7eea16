package experiments

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/runner"
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
