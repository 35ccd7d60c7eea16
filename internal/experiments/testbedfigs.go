package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/routing"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/transport"
)

// TestbedConfig tunes the §6 testbed-emulation experiments. The paper's
// wall-clock durations (1000-5000 s per run) are scaled down by default;
// the dynamics converge in tens of seconds, so the scaled runs show the
// same behaviour. Pass -duration 1000 to empower-testbed for
// paper-duration runs.
type TestbedConfig struct {
	Seed int64
	// Duration is the per-run emulated duration in seconds (default 60).
	Duration float64
	// Pairs is the number of random station pairs for Figure 10
	// (default 20; the paper uses 50).
	Pairs int
	// Flows is the number of flows for Figures 11/13 (default 10).
	Flows int
	// Repeats for Table 1 (defaults 5; the paper uses 40/10).
	Repeats int
	// Delta is the constraint margin δ, used as given (§6.3 uses 0.05;
	// empower-testbed's -delta defaults to it).
	Delta float64
	// Parallel bounds the replication worker pool (<= 0: GOMAXPROCS).
	// Pair selection stays serial (it consumes a shared RNG stream);
	// only the independent per-pair/per-repeat emulations fan out, so
	// the worker count never changes results.
	Parallel int
	// Shards is the worker cap inside an emulation (node.Config.Shards);
	// never changes results.
	Shards int
	// Progress, when non-nil, receives (done, total) after every
	// finished replication of the current figure.
	Progress func(done, total int)
	// JobTime, when non-nil, receives each replication's wall-clock
	// duration (serialized with Progress).
	JobTime func(d time.Duration)
	// Metrics, when non-nil, aggregates every emulation's sampled
	// registry — the -metrics plumbing.
	Metrics *obs.Aggregator
}

func (c TestbedConfig) duration() float64 {
	if c.Duration <= 0 {
		return 60
	}
	return c.Duration
}

func (c TestbedConfig) pairs() int {
	if c.Pairs <= 0 {
		return 20
	}
	return c.Pairs
}

func (c TestbedConfig) flows() int {
	if c.Flows <= 0 {
		return 10
	}
	return c.Flows
}

func (c TestbedConfig) repeats() int {
	if c.Repeats <= 0 {
		return 5
	}
	return c.Repeats
}

// runnerConfig maps the emulation configuration onto the shared runner.
func (c TestbedConfig) runnerConfig() runner.Config {
	return runner.Config{Workers: c.Parallel, BaseSeed: c.Seed, OnProgress: c.Progress, OnJobTime: c.JobTime}
}

// observe folds one finished emulation's sampled registry into the
// -metrics aggregator. Inert when Metrics is nil.
func (c TestbedConfig) observe(em *node.Emulation) {
	if c.Metrics != nil {
		reg := obs.NewRegistry()
		em.SampleMetrics(reg)
		c.Metrics.Add(reg)
	}
}

// testbedInstance builds the 22-node testbed with a fixed channel
// realization per seed.
func testbedInstance(seed int64) *topology.Instance {
	return topology.Testbed(stats.NewRand(seed), topology.Config{})
}

// nodeID maps the paper's 1-based testbed node numbers to graph IDs.
func nodeID(k int) graph.NodeID { return graph.NodeID(k - 1) }

// Figure9Result is the two-flow time trace of §6.2.
type Figure9Result struct {
	// Times are bin midpoints (s); Route1/Route2 the rates injected on
	// Flow 1-13's two routes; Total their sum; Received the goodput at
	// node 13. Flow2Start/Flow2Stop mark Flow 4-7's activity window.
	Times, Route1, Route2, Total, Received []float64
	Flow2Start, Flow2Stop                  float64
	BestSinglePath                         float64
	Routes                                 []string
}

// Figure9 reproduces Figure 9 scaled in time: Flow 1-13 starts at 0 with
// the multipath routes the routing protocol selects; Flow 4-7 (single-hop
// WiFi) is active during the middle third of the run; the congestion
// controller offloads WiFi while the contender is active.
func Figure9(cfg TestbedConfig) (Figure9Result, error) {
	inst := testbedInstance(cfg.Seed + 9)
	net := inst.Build(topology.ViewHybrid)
	dur := cfg.duration() * 5 // the trace needs three phases
	start2, stop2 := dur*0.39, dur*0.79

	em := node.NewEmulation(net.Network, node.Config{Delta: cfg.Delta, Estimation: true, Shards: cfg.Shards}, cfg.Seed+90)
	routes1 := core.RoutesFor(core.SchemeEMPoWER, net.Network, nodeID(1), nodeID(13))
	if len(routes1) == 0 {
		return Figure9Result{}, fmt.Errorf("experiments: no route 1->13 on this channel realization")
	}
	if len(routes1) > 2 {
		routes1 = routes1[:2]
	}
	f1, err := em.AddFlow(node.FlowSpec{
		Src: nodeID(1), Dst: nodeID(13), Routes: routes1, Kind: node.TrafficSaturated,
	}, 0)
	if err != nil {
		return Figure9Result{}, err
	}
	routes2 := core.RoutesFor(core.SchemeSP, net.Network, nodeID(4), nodeID(7))
	if len(routes2) == 0 {
		return Figure9Result{}, fmt.Errorf("experiments: no route 4->7")
	}
	f2, err := em.AddFlow(node.FlowSpec{
		Src: nodeID(4), Dst: nodeID(7), Routes: routes2[:1], Kind: node.TrafficSaturated,
	}, start2)
	if err != nil {
		return Figure9Result{}, err
	}
	em.Domain(em.NodeDomain(nodeID(4))).Engine.At(stop2, f2.Stop)
	em.Run(dur)
	cfg.observe(em)

	bin := dur / 100
	res := Figure9Result{Flow2Start: start2, Flow2Stop: stop2}
	res.Times, res.Route1 = f1.RouteRateSeries(0, bin)
	if len(routes1) > 1 {
		_, res.Route2 = f1.RouteRateSeries(1, bin)
	} else {
		res.Route2 = make([]float64, len(res.Route1))
	}
	_, res.Total = f1.SentRateSeries(bin)
	_, res.Received = em.Agent(nodeID(13)).Sinks()[0].RateSeries(bin)
	// Pad the received series to the same length.
	for len(res.Received) < len(res.Times) {
		res.Received = append(res.Received, 0)
	}
	// Best single path baseline: the max R(P) over the flow's routes.
	for _, p := range routes1 {
		if r := routing.RatePath(net.Network, p); r > res.BestSinglePath {
			res.BestSinglePath = r
		}
	}
	for _, p := range routes1 {
		res.Routes = append(res.Routes, net.PathString(p))
	}
	return res, nil
}

// Render prints the trace as columns.
func (r Figure9Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9: Flow 1-13 multipath trace (contending Flow 4-7 active %.0f-%.0f s)\n", r.Flow2Start, r.Flow2Stop)
	for _, s := range r.Routes {
		fmt.Fprintf(&b, "  route: %s\n", s)
	}
	fmt.Fprintf(&b, "  best single-path rate: %.1f Mbps\n", r.BestSinglePath)
	fmt.Fprintf(&b, "%8s %8s %8s %8s %8s\n", "t(s)", "route1", "route2", "total", "recv")
	step := len(r.Times) / 25
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(r.Times); i += step {
		fmt.Fprintf(&b, "%8.1f %8.2f %8.2f %8.2f %8.2f\n",
			r.Times[i], r.Route1[i], r.Route2[i], r.Total[i], at(r.Received, i))
	}
	return b.String()
}

func at(xs []float64, i int) float64 {
	if i < len(xs) {
		return xs[i]
	}
	return 0
}

// f10run is one Figure 10 station pair: the convergence fractions (when
// the packet emulation delivered) and the ordered ratio-panel entries
// (when the analytic EMPoWER throughput is positive).
type f10run struct {
	hasFrac               bool
	frac1020, frac190_200 float64
	ratios                []struct {
		name string
		v    float64
	}
	counted, mwBetter bool
}

// Figure10Result holds the testbed scheme-ratio CDFs (left plot) and the
// convergence fractions (right plot).
type Figure10Result struct {
	// Ratios[s] is T_s/T_EMPoWER over the station pairs.
	Ratios map[string][]float64
	// Frac10_20 and Frac190_200 are T(window)/T_final per pair for
	// EMPoWER (right plot).
	Frac10_20, Frac190_200 []float64
	// EMPoWERBetterThanMWiFi is the fraction of pairs where EMPoWER beats
	// MP-mWiFi (paper: 75 %).
	EMPoWERBetterThanMWiFi float64
}

// Figure10Ctx reproduces Figure 10 on the emulated testbed. The ratio CDF
// (left panel) compares all schemes with one evaluator — the analytic
// steady state on the same channel realization — so the ratios measure
// scheme differences rather than evaluator differences; the packet
// emulation of EMPoWER supplies the convergence fractions (right panel)
// and is cross-checked against the analytic steady state elsewhere
// (TestAnalyticMatchesPacketEmulation). The brute-force baselines SP-bf
// and SP-WiFi-bf are the exact maximum sustainable rate R(P) of the
// corresponding single path.
//
// The station pairs are drawn serially first (they consume one shared
// RNG stream), then the per-pair emulations — the dominant cost — run on
// the parallel runner and are folded back in pair order.
func Figure10Ctx(ctx context.Context, cfg TestbedConfig) (Figure10Result, error) {
	inst := testbedInstance(cfg.Seed + 10)
	hybrid := inst.Build(topology.ViewHybrid)
	wifi := inst.Build(topology.ViewWiFiSingle)
	rng := stats.NewRand(cfg.Seed + 100)
	res := Figure10Result{Ratios: map[string][]float64{}}
	copts := core.Options{Delta: cfg.Delta}

	pairs := make([][2]graph.NodeID, cfg.pairs())
	for p := range pairs {
		src, dst := inst.RandomFlow(rng)
		pairs[p] = [2]graph.NodeID{src, dst}
	}

	runs, err := runner.Collect(ctx, len(pairs), cfg.runnerConfig(),
		func(_ context.Context, rep runner.Rep) *f10run {
			p := rep.Index
			src, dst := pairs[p][0], pairs[p][1]
			routes := core.RoutesFor(core.SchemeEMPoWER, hybrid.Network, src, dst)
			if len(routes) == 0 {
				return nil
			}
			out := &f10run{}
			// Packet emulation of EMPoWER for this pair: convergence panel.
			em := node.NewEmulation(hybrid.Network, node.Config{Delta: cfg.Delta, Estimation: true, Shards: cfg.Shards}, cfg.Seed+int64(p))
			_, err := em.AddFlow(node.FlowSpec{Src: src, Dst: dst, Routes: routes, Kind: node.TrafficSaturated}, 0)
			if err != nil {
				return nil
			}
			dur := cfg.duration()
			em.Run(dur)
			cfg.observe(em)
			sink := em.Agent(dst).Sinks()[0]
			emuFinal := sink.MeanRate(dur*0.8, dur)
			if emuFinal > 0 {
				out.hasFrac = true
				out.frac1020 = ratio0(sink.MeanRate(10, 20), emuFinal)
				out.frac190_200 = ratio0(sink.MeanRate(dur*0.95, dur), emuFinal)
			}

			// Ratio panel: one evaluator for every scheme.
			final := core.Throughput(inst, core.SchemeEMPoWER, src, dst, copts)
			if final <= 0 {
				return out
			}
			add := func(name string, v float64) {
				out.ratios = append(out.ratios, struct {
					name string
					v    float64
				}{name, v / final})
			}
			add("SP", core.Throughput(inst, core.SchemeSP, src, dst, copts))
			add("MP-2bp", core.Throughput(inst, core.SchemeMP2bp, src, dst, copts))
			add("SP-WiFi", core.Throughput(inst, core.SchemeSPWiFi, src, dst, copts))
			mw := core.Throughput(inst, core.SchemeMPmWiFi, src, dst, copts)
			add("MP-mWiFi", mw)
			// Brute-force single paths: max sustainable rate on the chosen
			// single route (no margin, no estimation error).
			if sp := routing.SinglePath(hybrid.Network, src, dst, routing.DefaultConfig()); sp != nil {
				add("SP-bf", routing.RatePath(hybrid.Network, sp))
			}
			wcfg := routing.DefaultConfig()
			wcfg.UseCSC = false
			if sp := routing.SinglePath(wifi.Network, src, dst, wcfg); sp != nil {
				add("SP-WiFi-bf", routing.RatePath(wifi.Network, sp))
			} else {
				add("SP-WiFi-bf", 0)
			}
			out.counted = true
			out.mwBetter = mw < final
			return out
		})
	if err != nil {
		return res, err
	}

	mwBetter, n := 0, 0
	for _, r := range runs {
		if r == nil {
			continue
		}
		if r.hasFrac {
			res.Frac10_20 = append(res.Frac10_20, r.frac1020)
			res.Frac190_200 = append(res.Frac190_200, r.frac190_200)
		}
		for _, e := range r.ratios {
			res.Ratios[e.name] = append(res.Ratios[e.name], e.v)
		}
		if r.counted {
			if r.mwBetter {
				mwBetter++
			}
			n++
		}
	}
	if n > 0 {
		res.EMPoWERBetterThanMWiFi = float64(mwBetter) / float64(n)
	}
	return res, nil
}

func ratio0(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Render prints the two panels of Figure 10.
func (r Figure10Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10 (left): CDF of T_X/T_EMPoWER over testbed pairs\n")
	var names []string
	for n := range r.Ratios {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		writeCDF(&b, n, r.Ratios[n])
	}
	fmt.Fprintf(&b, "EMPoWER beats MP-mWiFi on %.0f%% of pairs (paper: 75%%)\n", 100*r.EMPoWERBetterThanMWiFi)
	fmt.Fprintf(&b, "Figure 10 (right): convergence fractions of final throughput\n")
	writeCDF(&b, "after 10-20s", r.Frac10_20)
	writeCDF(&b, "end of run", r.Frac190_200)
	return b.String()
}

// Figure11Result is the per-flow mean ± stddev comparison of Figure 11.
type Figure11Result struct {
	Pairs   [][2]int // 1-based node numbers
	Mean    map[string][]float64
	Std     map[string][]float64
	Schemes []string
}

// Figure11Ctx reproduces Figure 11: for each selected pair, the steady-state
// mean and standard deviation of per-second throughput measurements under
// EMPoWER, MP-mWiFi and SP (packet emulation for EMPoWER/SP on the hybrid
// view and for MP-mWiFi on the dual-channel view). The flow pairs are
// selected serially (the draw stream is shared and the validity check is
// cheap next to an emulation), then every (pair, scheme) emulation runs
// on the parallel runner and is folded back in pair-then-scheme order.
func Figure11Ctx(ctx context.Context, cfg TestbedConfig) (Figure11Result, error) {
	inst := testbedInstance(cfg.Seed + 11)
	rng := stats.NewRand(cfg.Seed + 110)
	res := Figure11Result{
		Mean:    map[string][]float64{},
		Std:     map[string][]float64{},
		Schemes: []string{"EMPoWER", "MP-mWiFi", "SP"},
	}
	type schemeRun struct {
		name   string
		scheme core.Scheme
	}
	runs := []schemeRun{
		{"EMPoWER", core.SchemeEMPoWER},
		{"MP-mWiFi", core.SchemeMPmWiFi},
		{"SP", core.SchemeSP},
	}
	var sel [][2]graph.NodeID
	hybrid := inst.Build(topology.ViewHybrid)
	for tried := 0; len(sel) < cfg.flows() && tried < cfg.flows()*40; tried++ {
		src, dst := inst.RandomFlow(rng)
		if len(core.RoutesFor(core.SchemeEMPoWER, hybrid.Network, src, dst)) == 0 {
			continue
		}
		sel = append(sel, [2]graph.NodeID{src, dst})
		res.Pairs = append(res.Pairs, [2]int{int(src) + 1, int(dst) + 1})
	}

	type cell struct{ mean, std float64 }
	cells, err := runner.Collect(ctx, len(sel)*len(runs), cfg.runnerConfig(),
		func(_ context.Context, rep runner.Rep) cell {
			pair, sr := rep.Index/len(runs), runs[rep.Index%len(runs)]
			src, dst := sel[pair][0], sel[pair][1]
			view := inst.Build(sr.scheme.View())
			routes := core.RoutesFor(sr.scheme, view.Network, src, dst)
			if len(routes) == 0 {
				return cell{}
			}
			// The emulation seed keeps the serial loop's derivation:
			// 1-based pair ordinal × 31 plus the scheme-name length.
			em := node.NewEmulation(view.Network, node.Config{Delta: cfg.Delta, Estimation: true, Shards: cfg.Shards},
				cfg.Seed+int64(pair+1)*31+int64(len(sr.name)))
			_, err := em.AddFlow(node.FlowSpec{Src: src, Dst: dst, Routes: routes, Kind: node.TrafficSaturated}, 0)
			if err != nil {
				return cell{}
			}
			dur := cfg.duration()
			em.Run(dur)
			cfg.observe(em)
			_, series := em.Agent(dst).Sinks()[0].RateSeries(1.0)
			tail := series
			if len(series) > int(dur/2) {
				tail = series[len(series)-int(dur/2):]
			}
			s := stats.Summarize(tail)
			return cell{mean: s.Mean, std: s.Std}
		})
	if err != nil {
		return res, err
	}
	for i, c := range cells {
		name := runs[i%len(runs)].name
		res.Mean[name] = append(res.Mean[name], c.mean)
		res.Std[name] = append(res.Std[name], c.std)
	}
	return res, nil
}

// Render prints the bar-chart data.
func (r Figure11Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 11: steady-state rate mean ± std per flow (Mbps)\n")
	fmt.Fprintf(&b, "%-8s", "flow")
	for _, s := range r.Schemes {
		fmt.Fprintf(&b, " %18s", s)
	}
	fmt.Fprintln(&b)
	for i, p := range r.Pairs {
		fmt.Fprintf(&b, "%3d-%-4d", p[0], p[1])
		for _, s := range r.Schemes {
			fmt.Fprintf(&b, "    %7.2f ± %5.2f", r.Mean[s][i], r.Std[s][i])
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// t1run is one Table 1 download measurement; nil marks a repetition that
// failed to complete within the cap.
type t1run struct {
	f613, f128 float64
}

// Table1Result holds the download-time table of §6.3.
type Table1Result struct {
	Rows []Table1Row
}

// Table1Row is one experiment line.
type Table1Row struct {
	Name          string
	FileBytes     int64
	EMPoWERMean   float64
	EMPoWERStd    float64
	WithoutCCMean float64
	WithoutCCStd  float64
	Repeats       int
}

// Table1Ctx reproduces Table 1: download times for Tiny (100 kB), Short
// (5 MB), Long and Conc file transfers on Flow 6-13, with Conc adding a
// concurrent Flow 12-8 of five 5 MB files with Poisson starting times,
// comparing EMPoWER with MP-w/o-CC. The Long/Conc file is scaled from
// 2 GB to 200 MB by default (wall-clock honesty; same contention
// behaviour) — the scale is recorded in the row name.
//
// Every (row, repetition, scheme) download is independent — the
// emulation seed depends only on those coordinates — so all of them run
// on the parallel runner; the per-row summaries are folded in repetition
// order, exactly as the serial loop appended them.
func Table1Ctx(ctx context.Context, cfg TestbedConfig) (Table1Result, error) {
	inst := testbedInstance(cfg.Seed + 1)
	net := inst.Build(topology.ViewHybrid)
	const longBytes = 200_000_000
	rows := []Table1Row{
		{Name: "Tiny, F.6-13 (100 kB)", FileBytes: 100_000},
		{Name: "Short, F.6-13 (5 MB)", FileBytes: 5_000_000},
		{Name: "Long, F.6-13 (200 MB)", FileBytes: longBytes},
		{Name: "Conc, F.6-13 (200 MB)", FileBytes: longBytes},
		{Name: "Conc, F.12-8 (25 MB)", FileBytes: 0}, // measured within Conc
	}
	routes613 := core.RoutesFor(core.SchemeEMPoWER, net.Network, nodeID(6), nodeID(13))
	routes128 := core.RoutesFor(core.SchemeEMPoWER, net.Network, nodeID(12), nodeID(8))

	measure := func(disableCC bool, rep int, row int) (f613 float64, f128 float64, ok bool) {
		em := node.NewEmulation(net.Network, node.Config{
			Delta: cfg.Delta, DisableCC: disableCC, Estimation: true, Shards: cfg.Shards,
		}, cfg.Seed+int64(rep)*997+int64(row))
		conc := rows[row].Name[:4] == "Conc"
		fileBytes := rows[row].FileBytes
		fl, err := em.AddFlow(node.FlowSpec{
			Src: nodeID(6), Dst: nodeID(13), Routes: routes613,
			Kind: node.TrafficFile, FileBytes: fileBytes,
		}, 0)
		if err != nil {
			return 0, 0, false
		}
		var concFlows []*node.Flow
		if conc {
			rng := stats.NewRand(cfg.Seed + int64(rep)*13)
			start := 0.0
			for i := 0; i < 5; i++ {
				start += rng.ExpFloat64() * 20 // Poisson arrivals, mean 20 s (scaled from 60)
				cf, err := em.AddFlow(node.FlowSpec{
					Src: nodeID(12), Dst: nodeID(8), Routes: routes128,
					Kind: node.TrafficFile, FileBytes: 5_000_000,
				}, start)
				if err == nil {
					concFlows = append(concFlows, cf)
				}
			}
		}
		// Run until the destination has received the full file. Transfers
		// are reliable (the source keeps sending until the 100 ms acks
		// confirm FileBytes), so the byte count always completes; the
		// download time is the moment the last needed byte arrived.
		sink := em.Agent(nodeID(13)).SinkFor(nodeID(6), fl.ID)
		const cap = 3600.0
		done := false
		for t := 0.25; t < cap; t += 0.25 {
			em.Run(t)
			if sink.TotalBytes >= fileBytes {
				done = true
				break
			}
		}
		if !done {
			cfg.observe(em)
			return 0, 0, false
		}
		f613 = sink.LastDeliveryAt()
		if conc {
			// Let the concurrent flows drain too.
			allDone := func() bool {
				for _, cf := range concFlows {
					if !cf.Done() {
						return false
					}
				}
				for _, s := range em.Agent(nodeID(8)).Sinks() {
					if s.IdleFor(em.Now()) < 2 {
						return false
					}
				}
				return true
			}
			var last float64
			for t := em.Now() + 0.5; t < cap; t += 0.5 {
				em.Run(t)
				if allDone() {
					break
				}
			}
			for _, s := range em.Agent(nodeID(8)).Sinks() {
				if s.LastDeliveryAt() > last {
					last = s.LastDeliveryAt()
				}
			}
			f128 = last
		}
		cfg.observe(em)
		return f613, f128, true
	}

	// One job per (row, repetition, scheme); index layout row-major so
	// the fold below reads repetitions in serial-loop order.
	repeats := cfg.repeats()
	perRow := repeats * 2
	outs, err := runner.Collect(ctx, 4*perRow, cfg.runnerConfig(),
		func(_ context.Context, rep runner.Rep) *t1run {
			row := rep.Index / perRow
			rem := rep.Index % perRow
			r, disableCC := rem/2, rem%2 == 1
			if t1, t2, ok := measure(disableCC, r, row); ok {
				return &t1run{f613: t1, f128: t2}
			}
			return nil
		})
	if err != nil {
		return Table1Result{}, err
	}

	for row := range rows[:4] {
		var empTimes, noccTimes []float64
		var empConc, noccConc []float64
		for rep := 0; rep < repeats; rep++ {
			if r := outs[row*perRow+rep*2]; r != nil {
				empTimes = append(empTimes, r.f613)
				if row == 3 {
					empConc = append(empConc, r.f128)
				}
			}
			if r := outs[row*perRow+rep*2+1]; r != nil {
				noccTimes = append(noccTimes, r.f613)
				if row == 3 {
					noccConc = append(noccConc, r.f128)
				}
			}
		}
		rows[row].Repeats = repeats
		se, sn := stats.Summarize(empTimes), stats.Summarize(noccTimes)
		rows[row].EMPoWERMean, rows[row].EMPoWERStd = se.Mean, se.Std
		rows[row].WithoutCCMean, rows[row].WithoutCCStd = sn.Mean, sn.Std
		if row == 3 {
			se, sn = stats.Summarize(empConc), stats.Summarize(noccConc)
			rows[4].EMPoWERMean, rows[4].EMPoWERStd = se.Mean, se.Std
			rows[4].WithoutCCMean, rows[4].WithoutCCStd = sn.Mean, sn.Std
			rows[4].Repeats = repeats
		}
	}
	return Table1Result{Rows: rows}, nil
}

// Render prints the table in the paper's layout.
func (t Table1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: download times (s), mean ± std over %d repeats\n", t.Rows[0].Repeats)
	fmt.Fprintf(&b, "%-26s %18s %18s\n", "", "EMPoWER", "MP-w/o-CC")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-26s %9.2f ± %5.2f %9.2f ± %5.2f\n",
			r.Name, r.EMPoWERMean, r.EMPoWERStd, r.WithoutCCMean, r.WithoutCCStd)
	}
	return b.String()
}

// Figure12Result is the TCP trace of §6.4.
type Figure12Result struct {
	// Times, RateSP, RateEMP: goodput series; the first half runs TCP on
	// SP-w/o-CC, the second half on EMPoWER with two routes and δ=0.3.
	Times, Rate    []float64
	SwitchAt       float64
	SPGoodput      float64
	EMPoWERGoodput float64
	Routes         []string
}

// Figure12Ctx reproduces Figure 12: a TCP flow 9→13 running over a single
// route without congestion control for the first half, then over
// EMPoWER's two routes with δ = 0.3 and delay equalization for the
// second half. The two phases are separate emulations with their own
// seeds, so they run as two replications on the parallel runner.
func Figure12Ctx(ctx context.Context, cfg TestbedConfig) (Figure12Result, error) {
	inst := testbedInstance(cfg.Seed + 12)
	net := inst.Build(topology.ViewHybrid)
	dur := cfg.duration() * 2
	half := dur / 2

	res := Figure12Result{SwitchAt: half}

	spRoutes := core.RoutesFor(core.SchemeSP, net.Network, nodeID(9), nodeID(13))
	mpRoutes := core.RoutesFor(core.SchemeEMPoWER, net.Network, nodeID(9), nodeID(13))
	if len(spRoutes) == 0 || len(mpRoutes) == 0 {
		return res, fmt.Errorf("experiments: no routes 9->13")
	}
	if len(mpRoutes) > 2 {
		mpRoutes = mpRoutes[:2]
	}

	series, err := runner.Run(ctx, 2, cfg.runnerConfig(),
		func(_ context.Context, rep runner.Rep) ([]float64, error) {
			var em *node.Emulation
			var routes []graph.Path
			if rep.Index == 0 {
				// Phase 1: TCP over the single path without CC.
				em = node.NewEmulation(net.Network, node.Config{DisableCC: true, Estimation: true, Shards: cfg.Shards}, cfg.Seed+120)
				routes = spRoutes[:1]
			} else {
				// Phase 2: TCP over EMPoWER multipath with δ=0.3 + delay
				// equalization.
				em = node.NewEmulation(net.Network, node.Config{
					Delta: 0.3, DelayEqualize: true, Estimation: true, Shards: cfg.Shards,
				}, cfg.Seed+121)
				routes = mpRoutes
			}
			c, err := transport.Dial(em, nodeID(9), nodeID(13), routes, -1)
			if err != nil {
				return nil, err
			}
			em.Run(half)
			cfg.observe(em)
			_, s := em.Agent(nodeID(13)).SinkFor(nodeID(9), c.Forward.ID).RateSeries(1.0)
			return s, nil
		})
	if err != nil {
		return res, err
	}
	s1, s2 := series[0], series[1]

	for i, v := range s1 {
		res.Times = append(res.Times, float64(i)+0.5)
		res.Rate = append(res.Rate, v)
	}
	for i, v := range s2 {
		res.Times = append(res.Times, half+float64(i)+0.5)
		res.Rate = append(res.Rate, v)
	}
	res.SPGoodput = stats.Mean(tailHalf(s1))
	res.EMPoWERGoodput = stats.Mean(tailHalf(s2))
	for _, p := range mpRoutes {
		res.Routes = append(res.Routes, net.PathString(p))
	}
	return res, nil
}

func tailHalf(xs []float64) []float64 {
	if len(xs) < 2 {
		return xs
	}
	return xs[len(xs)/2:]
}

// Render prints the TCP trace summary.
func (r Figure12Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 12: TCP flow 9-13; SP-w/o-CC before %.0f s, EMPoWER (δ=0.3) after\n", r.SwitchAt)
	for _, s := range r.Routes {
		fmt.Fprintf(&b, "  EMPoWER route: %s\n", s)
	}
	fmt.Fprintf(&b, "  steady goodput: SP-w/o-CC %.2f Mbps, EMPoWER %.2f Mbps\n", r.SPGoodput, r.EMPoWERGoodput)
	step := len(r.Times) / 30
	if step < 1 {
		step = 1
	}
	fmt.Fprintf(&b, "%8s %8s\n", "t(s)", "Mbps")
	for i := 0; i < len(r.Times); i += step {
		fmt.Fprintf(&b, "%8.1f %8.2f\n", r.Times[i], r.Rate[i])
	}
	return b.String()
}

// Figure13Result compares TCP rates under EMPoWER and SP-w/o-CC per flow.
type Figure13Result struct {
	Pairs                   [][2]int
	EMPoWERMean, EMPoWERStd []float64
	SPMean, SPStd           []float64
}

// Figure13Ctx reproduces Figure 13: average TCP rate with standard
// deviation for random flows that use two routes under EMPoWER (δ = 0.3)
// versus single-path TCP without congestion control. Route computation
// doubles as the pair filter and consumes a shared RNG stream, so
// selection stays serial; the TCP emulations — two per selected pair, by
// far the dominant cost — run on the parallel runner.
func Figure13Ctx(ctx context.Context, cfg TestbedConfig) (Figure13Result, error) {
	inst := testbedInstance(cfg.Seed + 13)
	net := inst.Build(topology.ViewHybrid)
	rng := stats.NewRand(cfg.Seed + 130)
	res := Figure13Result{}
	type pick struct {
		src, dst graph.NodeID
		mp, sp   []graph.Path
	}
	var sel []pick
	tried := 0
	for len(sel) < cfg.flows() && tried < cfg.flows()*40 {
		tried++
		src, dst := inst.RandomFlow(rng)
		mp := core.RoutesFor(core.SchemeEMPoWER, net.Network, src, dst)
		sp := core.RoutesFor(core.SchemeSP, net.Network, src, dst)
		if len(mp) < 2 || len(sp) == 0 {
			continue // the figure selects flows that use two routes
		}
		// Stay in the paper's moderate-rate regime (its TCP flows run at
		// 10-60 Mbps): on very strong single paths the δ = 0.3 margin
		// alone can outweigh the multipath gain.
		if routing.RatePath(net.Network, sp[0]) > 60 {
			continue
		}
		sel = append(sel, pick{src: src, dst: dst, mp: mp[:2], sp: sp})
		res.Pairs = append(res.Pairs, [2]int{int(src) + 1, int(dst) + 1})
	}

	type cell struct{ mean, std float64 }
	cells, err := runner.Collect(ctx, len(sel)*2, cfg.runnerConfig(),
		func(_ context.Context, rep runner.Rep) cell {
			p, emp := sel[rep.Index/2], rep.Index%2 == 0
			var cfgN node.Config
			if emp {
				cfgN = node.Config{Delta: 0.3, DelayEqualize: true, Estimation: true, Shards: cfg.Shards}
			} else {
				cfgN = node.Config{DisableCC: true, Estimation: true, Shards: cfg.Shards}
			}
			// The emulation seed keeps the serial loop's derivation:
			// 1-based pair ordinal × 71 plus the scheme bit.
			em := node.NewEmulation(net.Network, cfgN, cfg.Seed+int64(rep.Index/2+1)*71+boolInt64(emp))
			rs := p.sp[:1]
			if emp {
				rs = p.mp
			}
			conn, err := transport.Dial(em, p.src, p.dst, rs, -1)
			if err != nil {
				return cell{}
			}
			dur := cfg.duration()
			em.Run(dur)
			cfg.observe(em)
			_, series := em.Agent(p.dst).SinkFor(p.src, conn.Forward.ID).RateSeries(1.0)
			s := stats.Summarize(tailHalf(series))
			return cell{mean: s.Mean, std: s.Std}
		})
	if err != nil {
		return res, err
	}
	for i := 0; i < len(cells); i += 2 {
		res.EMPoWERMean = append(res.EMPoWERMean, cells[i].mean)
		res.EMPoWERStd = append(res.EMPoWERStd, cells[i].std)
		res.SPMean = append(res.SPMean, cells[i+1].mean)
		res.SPStd = append(res.SPStd, cells[i+1].std)
	}
	return res, nil
}

func boolInt64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Render prints the bar-chart data.
func (r Figure13Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 13: average TCP rate ± std (Mbps), δ=0.3\n")
	fmt.Fprintf(&b, "%-9s %18s %18s\n", "flow", "EMPoWER", "SP-w/o-CC")
	for i, p := range r.Pairs {
		fmt.Fprintf(&b, "%3d-%-5d %9.2f ± %5.2f %9.2f ± %5.2f\n",
			p[0], p[1], r.EMPoWERMean[i], r.EMPoWERStd[i], r.SPMean[i], r.SPStd[i])
	}
	return b.String()
}
