// Package experiments regenerates every table and figure of the paper's
// evaluation (§5 by Monte-Carlo simulation over random topologies, §6 by
// packet-level emulation of the 22-node testbed). Each function returns a
// structured result with a printable text rendering, and the cmd/
// binaries expose them behind flags. The renderings print the paper's
// headline numbers next to the measured ones.
package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/congestion"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/optimal"
	"repro/internal/routing"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/topology"
)

// Topo selects the §5.1 topology family.
type Topo int

// Topology families.
const (
	TopoResidential Topo = iota
	TopoEnterprise
)

// String implements fmt.Stringer.
func (t Topo) String() string {
	if t == TopoEnterprise {
		return "enterprise"
	}
	return "residential"
}

// MarshalText implements encoding.TextMarshaler so JSON-encoded results
// name the topology family instead of its ordinal.
func (t Topo) MarshalText() ([]byte, error) { return []byte(t.String()), nil }

func generate(t Topo, seed int64) *topology.Instance {
	rng := stats.NewRand(seed)
	if t == TopoEnterprise {
		return topology.Enterprise(rng, topology.Config{})
	}
	return topology.Residential(rng, topology.Config{})
}

// SimConfig tunes the Monte-Carlo sweeps.
type SimConfig struct {
	// Runs is the number of random instances (the paper uses 1000;
	// defaults to 200 for fast regeneration — pass -runs to match).
	Runs int
	// Seed is the base RNG seed.
	Seed int64
	// Core tunes the analytic evaluation.
	Core core.Options
	// Parallel bounds the replication worker pool (<= 0: GOMAXPROCS).
	// The worker count never changes results, only wall-clock time.
	Parallel int
	// Progress, when non-nil, receives (done, total) as runs complete.
	Progress func(done, total int)
	// JobTime, when non-nil, receives each run's wall-clock duration
	// (serialized with Progress).
	JobTime func(d time.Duration)
}

func (c SimConfig) runs() int {
	if c.Runs <= 0 {
		return 200
	}
	return c.Runs
}

// runnerConfig maps the sweep configuration onto the shared runner.
func (c SimConfig) runnerConfig() runner.Config {
	return runner.Config{Workers: c.Parallel, BaseSeed: c.Seed, OnProgress: c.Progress, OnJobTime: c.JobTime}
}

// instanceFor regenerates the historical per-run seeding of the serial
// loops (base+run for the instance, base+run+1e6 for the flow draw), so
// sweeps produce the same figures the serial code recorded. rep.Seed is
// deliberately unused here: new experiments should prefer it, but the
// published figures are tied to this derivation.
func instanceFor(t Topo, cfg SimConfig, run int) (*topology.Instance, graph.NodeID, graph.NodeID) {
	inst := generate(t, cfg.Seed+int64(run))
	rng := stats.NewRand(cfg.Seed + int64(run) + 1_000_000)
	src, dst := inst.RandomFlow(rng)
	return inst, src, dst
}

// Figure4Result holds the per-scheme throughput samples of Figure 4.
type Figure4Result struct {
	Topo    Topo
	Samples map[core.Scheme][]float64
	// GainVsWiFi is the mean EMPoWER gain over SP-WiFi (paper: 59 %
	// residential, 68 % enterprise); GainVsSP over single-path hybrid
	// (39 % / 31 %).
	GainVsWiFi, GainVsSP float64
}

// Figure4Ctx reproduces Figure 4: the distribution of single-flow
// throughput under EMPoWER, SP, SP-WiFi, MP-WiFi and MP-mWiFi over random
// instances. The replications run on the shared parallel runner and are
// aggregated in replication order, so the result is identical for every
// worker count.
func Figure4Ctx(ctx context.Context, t Topo, cfg SimConfig) (Figure4Result, error) {
	schemes := []core.Scheme{core.SchemeEMPoWER, core.SchemeSP, core.SchemeSPWiFi,
		core.SchemeMPWiFi, core.SchemeMPmWiFi}
	res := Figure4Result{Topo: t, Samples: map[core.Scheme][]float64{}}
	rows, err := runner.Collect(ctx, cfg.runs(), cfg.runnerConfig(),
		func(_ context.Context, rep runner.Rep) []float64 {
			inst, src, dst := instanceFor(t, cfg, rep.Index)
			out := make([]float64, len(schemes))
			for i, s := range schemes {
				out[i] = core.Throughput(inst, s, src, dst, cfg.Core)
			}
			return out
		})
	if err != nil {
		return res, err
	}
	for _, row := range rows {
		for i, s := range schemes {
			res.Samples[s] = append(res.Samples[s], row[i])
		}
	}
	res.GainVsWiFi = meanGain(res.Samples[core.SchemeEMPoWER], res.Samples[core.SchemeSPWiFi])
	res.GainVsSP = meanGain(res.Samples[core.SchemeEMPoWER], res.Samples[core.SchemeSP])
	return res, nil
}

// meanGain returns mean(a)/mean(b) − 1.
func meanGain(a, b []float64) float64 {
	mb := stats.Mean(b)
	if mb == 0 {
		return 0
	}
	return stats.Mean(a)/mb - 1
}

// Render prints the figure as CDF tables plus the headline gains.
func (r Figure4Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4 (%s): CDF of flow throughput T_X (Mbps)\n", r.Topo)
	order := []core.Scheme{core.SchemeEMPoWER, core.SchemeSP, core.SchemeSPWiFi,
		core.SchemeMPWiFi, core.SchemeMPmWiFi}
	for _, s := range order {
		writeCDF(&b, s.String(), r.Samples[s])
	}
	fmt.Fprintf(&b, "mean gain EMPoWER vs SP-WiFi: %.0f%%  (paper: 59%% res / 68%% ent)\n", 100*r.GainVsWiFi)
	fmt.Fprintf(&b, "mean gain EMPoWER vs SP:      %.0f%%  (paper: 39%% res / 31%% ent)\n", 100*r.GainVsSP)
	return b.String()
}

// Figure5Result holds the worst-flow ratio distribution of Figure 5.
type Figure5Result struct {
	Topo Topo
	// Ratios is T_MP-mWiFi / T_EMPoWER over the worst-20 % flows.
	Ratios []float64
	// RescueFrac is the fraction of worst flows where PLC/WiFi has
	// connectivity and multi-channel WiFi has none (paper: 6 % res,
	// 19 % ent).
	RescueFrac float64
	// EMPoWERBetterFrac is the fraction with ratio < 1.
	EMPoWERBetterFrac float64
}

// Figure5 reproduces Figure 5 from the Figure 4 samples: the CDF of
// T_MP-mWiFi/T_EMPoWER over the bottom-20 % of flows by min throughput.
func Figure5(f4 Figure4Result) Figure5Result {
	emp := f4.Samples[core.SchemeEMPoWER]
	mw := f4.Samples[core.SchemeMPmWiFi]
	idx := stats.BottomFractionByMin(mw, emp, 0.2)
	res := Figure5Result{Topo: f4.Topo}
	rescue := 0
	for _, i := range idx {
		if emp[i] > 0 && mw[i] == 0 {
			rescue++
			continue // ratio 0 counted in the CDF below
		}
	}
	var a, b []float64
	for _, i := range idx {
		a = append(a, mw[i])
		b = append(b, emp[i])
	}
	for _, r := range stats.Ratios(a, b) {
		if !math.IsInf(r, 0) {
			res.Ratios = append(res.Ratios, r)
		} else {
			res.Ratios = append(res.Ratios, 10) // mWiFi-only connectivity
		}
	}
	if len(idx) > 0 {
		res.RescueFrac = float64(rescue) / float64(len(idx))
	}
	better := 0
	for _, r := range res.Ratios {
		if r < 1 {
			better++
		}
	}
	if len(res.Ratios) > 0 {
		res.EMPoWERBetterFrac = float64(better) / float64(len(res.Ratios))
	}
	return res
}

// Render prints the ratio CDF.
func (r Figure5Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5 (%s): CDF of T_MP-mWiFi/T_EMPoWER, worst-20%% flows\n", r.Topo)
	writeCDF(&b, "ratio", r.Ratios)
	fmt.Fprintf(&b, "EMPoWER better on %.0f%% of worst flows (paper: ~60%%)\n", 100*r.EMPoWERBetterFrac)
	fmt.Fprintf(&b, "PLC/WiFi rescues connectivity on %.0f%% (paper: 6%% res / 19%% ent)\n", 100*r.RescueFrac)
	return b.String()
}

// Figure6Result holds the throughput-vs-optimal ratios of Figure 6.
type Figure6Result struct {
	Topo Topo
	// Ratios[s] is T_s / T_optimal per run.
	Ratios map[string][]float64
}

// optimumSchemes are the schemes Figures 6 and 7 compare with the optimum.
var optimumSchemes = []core.Scheme{core.SchemeEMPoWER, core.SchemeMP2bp, core.SchemeMPWoCC, core.SchemeSP}

// optimumRatios is the sweep behind Figures 6 and 7. Each replication
// draws an instance and nflows random flows (the instanceFor seeding),
// solves the optimum and the conservative optimum on the hybrid view, and
// returns the conservative optimum ("conservative opt") and each of
// optimumSchemes as a fraction of the optimum, clamped to [0, 1]. The
// quantity compared is the first flow's throughput, or the total utility
// when utility is set. An instance whose optimum is 0 (a disconnected
// pair) is skipped.
func optimumRatios(ctx context.Context, t Topo, cfg SimConfig, nflows int, utility bool) (map[string][]float64, error) {
	measure := func(flowRate, u float64) float64 {
		if utility {
			return u
		}
		return flowRate
	}
	// Bound the baselines' path enumeration: local-network routes are a
	// few hops (§3.2), and beyond ~500 paths the extra routes carry no
	// capacity while slowing the solver.
	optCfg := optimal.Config{Enumerate: optimal.EnumerateOptions{MaxHops: 4, MaxPaths: 512}}
	runs, err := runner.Collect(ctx, cfg.runs(), cfg.runnerConfig(),
		func(_ context.Context, rep runner.Rep) []float64 {
			inst := generate(t, cfg.Seed+int64(rep.Index))
			rng := stats.NewRand(cfg.Seed + int64(rep.Index) + 1_000_000)
			pairs := make([][2]graph.NodeID, nflows)
			flows := make([]optimal.FlowSpec, nflows)
			for i := range pairs {
				s, d := inst.RandomFlow(rng)
				pairs[i] = [2]graph.NodeID{s, d}
				flows[i] = optimal.FlowSpec{Src: s, Dst: d}
			}
			opt, cons, err := optimal.Baselines(inst.BuildCached(topology.ViewHybrid).Network, flows, optCfg)
			if err != nil {
				return nil
			}
			best := measure(opt.FlowRates[0], opt.Utility)
			if best <= 0 {
				return nil
			}
			out := []float64{clampRatio(measure(cons.FlowRates[0], cons.Utility) / best)}
			for _, s := range optimumSchemes {
				ev := core.Evaluate(inst, s, pairs, cfg.Core)
				out = append(out, clampRatio(measure(ev.Flows[0].Throughput, ev.Utility)/best))
			}
			return out
		})
	if err != nil {
		return nil, err
	}
	ratios := map[string][]float64{}
	for _, r := range runs {
		if r == nil {
			continue
		}
		ratios["conservative opt"] = append(ratios["conservative opt"], r[0])
		for i, s := range optimumSchemes {
			ratios[s.String()] = append(ratios[s.String()], r[i+1])
		}
	}
	return ratios, nil
}

// Figure6Ctx reproduces Figure 6: the distribution of T_X/T_optimal for
// conservative-opt, EMPoWER, MP-2bp, MP-w/o-CC and SP on single flows.
func Figure6Ctx(ctx context.Context, t Topo, cfg SimConfig) (Figure6Result, error) {
	ratios, err := optimumRatios(ctx, t, cfg, 1, false)
	return Figure6Result{Topo: t, Ratios: ratios}, err
}

// clampRatio guards against tiny solver noise pushing ratios above 1.
func clampRatio(r float64) float64 {
	if r > 1 {
		return 1
	}
	if r < 0 {
		return 0
	}
	return r
}

// Render prints the ratio CDFs and the headline optimality fractions.
func (r Figure6Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6 (%s): CDF of T_X/T_optimal\n", r.Topo)
	names := []string{"conservative opt", "EMPoWER", "MP-2bp", "MP-w/o-CC", "SP"}
	for _, n := range names {
		writeCDF(&b, n, r.Ratios[n])
	}
	if emp := r.Ratios["EMPoWER"]; len(emp) > 0 {
		within := 0
		for _, v := range emp {
			if v >= 0.85 {
				within++
			}
		}
		fmt.Fprintf(&b, "EMPoWER within 15%% of optimal on %.0f%% of flows (paper: 99%% res / 83%% ent)\n",
			100*float64(within)/float64(len(emp)))
	}
	return b.String()
}

// Figure7Result holds the utility ratios of Figure 7.
type Figure7Result struct {
	Topo   Topo
	Ratios map[string][]float64
}

// Figure7Ctx reproduces Figure 7: total network utility with three
// contending flows, as a fraction of the optimal utility.
func Figure7Ctx(ctx context.Context, t Topo, cfg SimConfig) (Figure7Result, error) {
	ratios, err := optimumRatios(ctx, t, cfg, 3, true)
	return Figure7Result{Topo: t, Ratios: ratios}, err
}

// Render prints the utility-ratio CDFs.
func (r Figure7Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7 (%s): CDF of U_X/U_optimal, 3 contending flows\n", r.Topo)
	for _, n := range []string{"conservative opt", "EMPoWER", "MP-2bp", "MP-w/o-CC", "SP"} {
		writeCDF(&b, n, r.Ratios[n])
	}
	return b.String()
}

// ConvergenceResult compares EMPoWER and backpressure convergence
// (§5.2.2's timing claims).
type ConvergenceResult struct {
	Topo Topo
	// EMPoWERSlots is the mean slots-to-steady-state of the controller
	// (paper: ~90 residential, ~77 enterprise).
	EMPoWERSlots float64
	// BackpressureSlots is the mean slots for backpressure to reach 90 %
	// of its final rate (paper: >3000 / >10000).
	BackpressureSlots float64
	Runs              int
}

// convRun is one accepted convergence measurement; nil marks a candidate
// instance the regime filters rejected.
type convRun struct {
	emp, bp float64
}

// ConvergenceCtx reproduces the §5.2.2 convergence comparison on a reduced
// number of instances (backpressure simulation is expensive by design —
// that is the point being reproduced). Both systems are measured with
// the same criterion — slots until the flow first reaches 90 % of its
// final rate — on multihop flows in the paper's 10-40 Mbps regime:
// backpressure's convergence penalty is a routing-exploration phenomenon
// (good routes are used only after queues on bad routes fill up), which
// single-hop or line-rate flows do not exhibit.
//
// The serial loop stopped as soon as it had accepted `runs` instances
// out of at most 4×runs candidates; to keep that early-stop semantics
// deterministic
// under parallelism, candidates are dispatched in index-ordered waves and
// the aggregate takes the first `runs` accepted candidates by index —
// the exact set the serial loop measured, for every worker count.
func ConvergenceCtx(ctx context.Context, t Topo, cfg SimConfig) (ConvergenceResult, error) {
	runs := cfg.runs()
	if runs > 20 {
		runs = 20
	}
	res := ConvergenceResult{Topo: t, Runs: runs}
	measure := func(run int) *convRun {
		inst, src, dst := instanceFor(t, cfg, run)
		net := inst.BuildCached(topology.ViewHybrid)
		routes := core.RoutesFor(core.SchemeEMPoWER, net.Network, src, dst)
		if len(routes) == 0 {
			return nil
		}
		multihop, longest := false, 0
		for _, p := range routes {
			if len(p) >= 2 {
				multihop = true
			}
			if len(p) > longest {
				longest = len(p)
			}
		}
		if !multihop {
			return nil
		}
		// EMPoWER controller with the paper's α heuristic, warm-started
		// at the routing procedure's assumed loading (as the real source
		// is: it computed R(P) per route during route selection).
		ccRoutes := make([]congestion.Route, len(routes))
		for i, p := range routes {
			ccRoutes[i] = congestion.Route{Links: p, Flow: 0}
		}
		initial := routing.SequentialRates(net.Network, routes)
		for i := range initial {
			initial[i] *= 0.7
		}
		tuner := congestion.NewAlphaTuner(0.02, len(routes), longest)
		ctrl, err := congestion.New(net.Network, ccRoutes, congestion.Options{
			Alpha:        tuner.Alpha(),
			InitialRates: initial,
		})
		if err != nil {
			return nil
		}
		// Single flow, so the flat batch trajectory is the totals series.
		totals := ctrl.RunAppend(4000, make([]float64, 0, 4000))
		final := stats.Mean(totals[len(totals)*3/4:])
		if final < 5 || final > 60 {
			return nil // outside the paper's moderate-rate regime
		}
		// Steady state: within 5 % of the final rate for good (the warm
		// start makes "first touch 90 %" trivially early).
		empSlots := congestion.SlotsToSteady(totals, 0.05)

		bp := optimal.NewBackpressure(net.Network, []optimal.FlowSpec{{Src: src, Dst: dst}})
		bp.V = 5000
		series := bp.Run(12000, 0, 300)
		bpFinal := stats.Mean(series[len(series)*3/4:])
		if bpFinal <= 0 {
			return nil
		}
		return &convRun{
			emp: float64(empSlots),
			bp:  float64(optimal.SlotsToFractionOfOptimal(series, bpFinal, 0.9)),
		}
	}

	chunk := 2 * runner.PoolSize(cfg.Parallel)
	if chunk < 8 {
		chunk = 8
	}
	total := runs * 4
	var accepted []convRun
	completed := 0
	for lo := 0; lo < total && len(accepted) < runs; lo += chunk {
		hi := lo + chunk
		if hi > total {
			hi = total
		}
		rcfg := cfg.runnerConfig()
		if cfg.Progress != nil {
			// Report against the candidate upper bound; the sweep may
			// stop early once enough instances are accepted.
			base := completed
			rcfg.OnProgress = func(done, _ int) { cfg.Progress(base+done, total) }
		}
		wave, err := runner.Collect(ctx, hi-lo, rcfg,
			func(_ context.Context, rep runner.Rep) *convRun {
				return measure(lo + rep.Index)
			})
		if err != nil {
			return res, err
		}
		completed += hi - lo
		for _, r := range wave {
			if r != nil && len(accepted) < runs {
				accepted = append(accepted, *r)
			}
		}
	}
	if len(accepted) > 0 {
		var empSum, bpSum float64
		for _, r := range accepted {
			empSum += r.emp
			bpSum += r.bp
		}
		res.EMPoWERSlots = empSum / float64(len(accepted))
		res.BackpressureSlots = bpSum / float64(len(accepted))
		res.Runs = len(accepted)
	}
	return res, nil
}

// Render prints the convergence comparison.
func (r ConvergenceResult) Render() string {
	return fmt.Sprintf(
		"Convergence (%s, %d runs):\n  EMPoWER:      %.0f slots to steady state (paper: ~90 res / ~77 ent)\n  backpressure: %.0f slots to 90%% of final (paper: >3000 res / >10000 ent)\n",
		r.Topo, r.Runs, r.EMPoWERSlots, r.BackpressureSlots)
}

// writeCDF renders a down-sampled CDF as one row of quantiles.
func writeCDF(b *strings.Builder, name string, xs []float64) {
	if len(xs) == 0 {
		fmt.Fprintf(b, "%-18s (no samples)\n", name)
		return
	}
	qs := []float64{0.1, 0.25, 0.5, 0.75, 0.9}
	fmt.Fprintf(b, "%-18s", name)
	for _, q := range qs {
		fmt.Fprintf(b, " p%02.0f=%7.2f", q*100, stats.Quantile(xs, q))
	}
	fmt.Fprintf(b, "  mean=%7.2f n=%d\n", stats.Mean(xs), len(xs))
}
