// Package core orchestrates the evaluation schemes of §5.1: it combines a
// topology view, a routing configuration and a congestion-control mode
// into per-flow throughput results. Two evaluation modes exist:
//
//   - analytic: route selection followed by running the (centralized
//     mathematics of the) congestion controller to convergence, or the
//     fluid MAC model for the no-congestion-control baselines. This is
//     the mode used for the paper's 1000-instance Monte-Carlo sweeps
//     (Figures 4-7); the packet-level simulator agrees with it at steady
//     state (see the cross-check tests).
//   - packet: the full node-agent emulation over the event-driven MAC
//     (used for the testbed experiments of §6).
package core

import (
	"fmt"
	"sync"

	"repro/internal/congestion"
	"repro/internal/graph"
	"repro/internal/mac"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Scheme identifies one evaluation configuration of §5.1.
type Scheme int

// The schemes of §5.1.
const (
	// SchemeEMPoWER: multipath routing + congestion control, PLC/WiFi.
	SchemeEMPoWER Scheme = iota
	// SchemeSP: single-path routing + congestion control, PLC/WiFi.
	SchemeSP
	// SchemeMPWiFi: multipath + congestion control, single-channel WiFi.
	SchemeMPWiFi
	// SchemeSPWiFi: single-path + congestion control, single-channel WiFi.
	SchemeSPWiFi
	// SchemeMPmWiFi: multipath + congestion control, two-channel WiFi.
	SchemeMPmWiFi
	// SchemeMPWoCC: multipath routing without congestion control, PLC/WiFi.
	SchemeMPWoCC
	// SchemeSPWoCC: single-path routing without congestion control, PLC/WiFi.
	SchemeSPWoCC
	// SchemeMP2bp: naive two-best-paths routing + congestion control,
	// PLC/WiFi.
	SchemeMP2bp
)

// String implements fmt.Stringer (the paper's scheme names).
func (s Scheme) String() string {
	switch s {
	case SchemeEMPoWER:
		return "EMPoWER"
	case SchemeSP:
		return "SP"
	case SchemeMPWiFi:
		return "MP-WiFi"
	case SchemeSPWiFi:
		return "SP-WiFi"
	case SchemeMPmWiFi:
		return "MP-mWiFi"
	case SchemeMPWoCC:
		return "MP-w/o-CC"
	case SchemeSPWoCC:
		return "SP-w/o-CC"
	case SchemeMP2bp:
		return "MP-2bp"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// MarshalText implements encoding.TextMarshaler so JSON-encoded results
// (including maps keyed by Scheme) carry the paper's scheme names rather
// than enum ordinals.
func (s Scheme) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// View returns the topology view the scheme runs on.
func (s Scheme) View() topology.View {
	switch s {
	case SchemeMPWiFi, SchemeSPWiFi:
		return topology.ViewWiFiSingle
	case SchemeMPmWiFi:
		return topology.ViewWiFiDual
	default:
		return topology.ViewHybrid
	}
}

// Multipath reports whether the scheme uses the multipath procedure.
func (s Scheme) Multipath() bool {
	switch s {
	case SchemeSP, SchemeSPWiFi, SchemeSPWoCC:
		return false
	default:
		return true
	}
}

// CC reports whether the scheme runs the congestion controller.
func (s Scheme) CC() bool {
	return s != SchemeMPWoCC && s != SchemeSPWoCC
}

// AllSchemes lists every scheme in declaration order.
func AllSchemes() []Scheme {
	return []Scheme{SchemeEMPoWER, SchemeSP, SchemeMPWiFi, SchemeSPWiFi,
		SchemeMPmWiFi, SchemeMPWoCC, SchemeSPWoCC, SchemeMP2bp}
}

// ParseScheme maps a paper scheme name (as printed by Scheme.String) back
// to its Scheme value.
func ParseScheme(name string) (Scheme, error) {
	for _, s := range AllSchemes() {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("core: unknown scheme %q", name)
}

// routingConfig returns the routing configuration for a scheme: the CSC
// is disabled on WiFi-only views (§5.1: "when using only WiFi, the CSC is
// set to 0").
func (s Scheme) routingConfig() routing.Config {
	cfg := routing.DefaultConfig()
	if s.View() == topology.ViewWiFiSingle {
		cfg.UseCSC = false
	}
	return cfg
}

// RoutesFor computes the routes the scheme's routing component selects
// for a flow on the (already view-materialized) network. It returns nil
// when the destination is unreachable.
func RoutesFor(s Scheme, net *graph.Network, src, dst graph.NodeID) []graph.Path {
	cfg := s.routingConfig()
	switch {
	case s == SchemeMP2bp:
		return routing.TwoBestPaths(net, src, dst, cfg)
	case s.Multipath():
		comb := routing.Multipath(net, src, dst, cfg)
		return comb.Paths
	default:
		p := routing.SinglePath(net, src, dst, cfg)
		if p == nil {
			return nil
		}
		return []graph.Path{p}
	}
}

// Options tunes analytic evaluation.
type Options struct {
	// Delta is the congestion-control constraint margin δ.
	Delta float64
	// Slots is the number of controller iterations (default 4000).
	Slots int
}

// controllerAlpha is the controller step size: the effective value after
// the paper's α heuristic for short routes.
const controllerAlpha = 0.05

func (o Options) slots() int {
	if o.Slots <= 0 {
		return 4000
	}
	return o.Slots
}

// FlowResult reports one flow's outcome.
type FlowResult struct {
	Routes     []graph.Path
	Throughput float64 // Mbps
}

// Result is the outcome of evaluating one scheme on one instance.
type Result struct {
	Scheme  Scheme
	Flows   []FlowResult
	Utility float64
	// ConvergenceSlots is the slots-to-steady-state of the total-rate
	// trajectory at the paper's 1 % band (CC schemes only; 0 otherwise).
	ConvergenceSlots int
	// ConvergenceSlots5 uses a 5 % band, appropriate for the fixed-step
	// controller whose iterates hover around the optimizer.
	ConvergenceSlots5 int
}

// evaluator holds the per-evaluation scratch state — the batch congestion
// controller and every intermediate slice Evaluate needs. Instances are
// pooled: a Monte-Carlo sweep reuses a handful of evaluators across
// thousands of instances instead of reallocating route lists, seed-rate
// buffers and trajectories per run. Every field is fully overwritten (or
// length-reset) per evaluation, so pooling never changes results; only
// Result and the route paths themselves escape.
type evaluator struct {
	ctrl          congestion.Controller
	ccRoutes      []congestion.Route
	routesPerFlow [][]graph.Path
	initial       []float64
	seqBuf        []float64
	traj          []float64 // slot-major per-flow rates from RunAppend
	totals        []float64
	avg           []float64
	allRoutes     []graph.Path
	inject        []float64
}

var evalPool = sync.Pool{New: func() any { return new(evaluator) }}

// Evaluate computes the scheme's converged per-flow throughput on an
// instance for the given source-destination pairs (analytic mode).
func Evaluate(inst *topology.Instance, s Scheme, pairs [][2]graph.NodeID, opts Options) Result {
	// Every downstream consumer here is read-only on the network (route
	// selection clones before mutating, the controller and fluid MAC only
	// read capacities), so the per-instance view cache is safe and
	// collapses the per-scheme rebuilds that dominate sweep allocations.
	net := inst.BuildCached(s.View())
	res := Result{Scheme: s, Flows: make([]FlowResult, len(pairs))}

	ev := evalPool.Get().(*evaluator)
	defer evalPool.Put(ev)

	// Route selection per flow.
	ccRoutes := ev.ccRoutes[:0]
	routesPerFlow := growPaths(ev.routesPerFlow, len(pairs))
	for f, pr := range pairs {
		routes := RoutesFor(s, net.Network, pr[0], pr[1])
		routesPerFlow[f] = routes
		res.Flows[f].Routes = routes
		for _, p := range routes {
			ccRoutes = append(ccRoutes, congestion.Route{Links: p, Flow: f})
		}
	}
	ev.ccRoutes, ev.routesPerFlow = ccRoutes, routesPerFlow
	if len(ccRoutes) == 0 {
		for f := range res.Flows {
			res.Utility += congestion.ProportionalFairness{}.Value(res.Flows[f].Throughput)
		}
		return res
	}

	if s.CC() {
		// Seed the controller near the routing procedure's assumed
		// loading: 70 % of each route's residual achievable rate. Sources
		// know these rates from the §3.2 exploration tree, and warm
		// starting is what gives the paper's tens-of-slots convergence.
		initial := ev.initial[:0]
		for _, routes := range routesPerFlow {
			ev.seqBuf = routing.AppendSequentialRates(net.Network, routes, ev.seqBuf[:0])
			for _, r := range ev.seqBuf {
				initial = append(initial, 0.7*r)
			}
		}
		ev.initial = initial
		if err := ev.ctrl.Reset(net.Network, ccRoutes, congestion.Options{
			Alpha:        controllerAlpha,
			Delta:        opts.Delta,
			InitialRates: initial,
		}); err != nil {
			// Routes are validated upstream; an error here is programmer
			// error on the scheme plumbing.
			panic(fmt.Sprintf("core: controller: %v", err))
		}
		slots := opts.slots()
		nf := ev.ctrl.NumFlows()
		traj := ev.ctrl.RunAppend(slots, ev.traj[:0])
		ev.traj = traj
		totals := growFloats(ev.totals, slots)
		ev.totals = totals
		for t := 0; t < slots; t++ {
			var tot float64
			for _, v := range traj[t*nf : (t+1)*nf] {
				tot += v
			}
			totals[t] = tot
		}
		res.ConvergenceSlots = congestion.SlotsToSteady(totals, 0.01)
		res.ConvergenceSlots5 = congestion.SlotsToSteady(totals, 0.05)
		// Report the time-averaged rates over the last quarter of the
		// run: with a fixed step size the iterates hover around the
		// optimizer, and the ergodic average is the converged allocation.
		tail := slots / 4
		if tail < 1 {
			tail = 1
		}
		// The controller reports flows 0..nf−1, nf being the highest
		// routed flow + 1: the route-less pairs past it keep 0 Mbps.
		avg := growFloats(ev.avg, len(pairs))
		ev.avg = avg
		for f := range avg {
			avg[f] = 0
		}
		for t := slots - tail; t < slots; t++ {
			for f, v := range traj[t*nf : (t+1)*nf] {
				avg[f] += v
			}
		}
		var util float64
		for f := range pairs {
			res.Flows[f].Throughput = avg[f] / float64(tail)
			util += congestion.ProportionalFairness{}.Value(res.Flows[f].Throughput)
		}
		res.Utility = util
		return res
	}

	// Without congestion control: saturated injection on every selected
	// route; the fluid MAC model yields the delivered (post-collapse)
	// rates. Injection at the first hop's capacity approximates a source
	// that keeps its first hop backlogged. Routes are appended flow by
	// flow, so flow f's rates occupy a contiguous index range.
	allRoutes := ev.allRoutes[:0]
	inject := ev.inject[:0]
	for _, routes := range routesPerFlow {
		for _, p := range routes {
			allRoutes = append(allRoutes, p)
			inject = append(inject, net.Link(p[0]).Capacity)
		}
	}
	ev.allRoutes, ev.inject = allRoutes, inject
	delivered := mac.FluidDelivered(net.Network, allRoutes, inject)
	pos := 0
	for f, routes := range routesPerFlow {
		var sum float64
		for range routes {
			sum += delivered[pos]
			pos++
		}
		res.Flows[f].Throughput = sum
		res.Utility += congestion.ProportionalFairness{}.Value(sum)
	}
	return res
}

// growPaths resizes a route-list scratch slice, reusing capacity.
func growPaths(s [][]graph.Path, n int) [][]graph.Path {
	if cap(s) < n {
		return make([][]graph.Path, n)
	}
	return s[:n]
}

// growFloats resizes a float64 scratch slice, reusing capacity.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// Throughput is a convenience for single-flow evaluations.
func Throughput(inst *topology.Instance, s Scheme, src, dst graph.NodeID, opts Options) float64 {
	r := Evaluate(inst, s, [][2]graph.NodeID{{src, dst}}, opts)
	return r.Flows[0].Throughput
}
