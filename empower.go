// Package empower is the public API of the EMPoWER reproduction: a system
// for exploiting multiple paths over heterogeneous mediums (PLC + WiFi) in
// local networks, after "EMPoWER Hybrid Networks: Exploiting Multiple
// Paths over Wireless and ElectRical Mediums" (Henri, Vlachou, Herzen,
// Thiran — CoNEXT 2016).
//
// The facade re-exports the pieces a downstream user needs:
//
//   - building hybrid multigraphs (NewNetworkBuilder) or generating the
//     paper's random topologies (Residential, Enterprise, Testbed);
//   - the multipath routing protocol (FindRoutes, FindCombination);
//   - the distributed congestion controller (NewController);
//   - the packet-level emulation of the full EMPoWER node stack
//     (NewEmulation) including the layer-2.5 wire format;
//   - the centralized optimal baselines (OptimalRates) the paper compares
//     against.
//
// The Monte-Carlo sweeps behind every figure (internal/experiments) run
// on a deterministic parallel replication runner (internal/runner): the
// same base seed yields bit-identical figures at any worker count, so
// parallelism is purely a wall-clock knob (-parallel on the cmd/
// binaries).
//
// See examples/ for runnable walkthroughs and DESIGN.md for the map from
// paper sections to packages.
package empower

import (
	"math/rand"

	"repro/internal/congestion"
	"repro/internal/graph"
	"repro/internal/node"
	"repro/internal/optimal"
	"repro/internal/routing"
	"repro/internal/scenario"
	"repro/internal/topology"
)

// Re-exported fundamental types.
type (
	// Network is the hybrid multigraph of §2.
	Network = graph.Network
	// NetworkBuilder assembles networks node by node.
	NetworkBuilder = graph.Builder
	// NodeID identifies a station.
	NodeID = graph.NodeID
	// LinkID identifies a directed link.
	LinkID = graph.LinkID
	// Tech is a link technology (medium).
	Tech = graph.Tech
	// Path is a loop-free route (a sequence of link IDs).
	Path = graph.Path

	// RoutingConfig tunes the §3 routing algorithms.
	RoutingConfig = routing.Config
	// Combination is a set of routes to be used simultaneously with
	// their exploration-tree rates.
	Combination = routing.Combination

	// Controller is the §4 congestion controller. Traffic of non-EMPoWER
	// stations (§4.3) is declared with its SetExternalLoad method, between
	// any two slots.
	Controller = congestion.Controller
	// ControllerOptions tunes the controller.
	ControllerOptions = congestion.Options
	// ControllerRoute attaches a path to a flow for the controller.
	ControllerRoute = congestion.Route
	// Utility is a flow utility function.
	Utility = congestion.Utility
	// ProportionalFairness is the paper's log(1+x) utility.
	ProportionalFairness = congestion.ProportionalFairness

	// Emulation is the packet-level EMPoWER node emulation of §6.
	Emulation = node.Emulation
	// EmulationConfig tunes it.
	EmulationConfig = node.Config
	// FlowSpec describes one emulated flow.
	FlowSpec = node.FlowSpec
	// Flow is the source-side handle of an emulated flow.
	Flow = node.Flow

	// Instance is a generated evaluation topology.
	Instance = topology.Instance
	// TopologyView selects hybrid / single-WiFi / dual-WiFi.
	TopologyView = topology.View
	// TopologyConfig tunes generation.
	TopologyConfig = topology.Config

	// Scenario is a declarative dynamic-network workload: timed link
	// failures/recoveries, capacity drift, node churn, and stochastic
	// flow arrival processes, bound to a running emulation.
	Scenario = scenario.Scenario
	// ScenarioOptions tunes the binding of a scenario to an emulation.
	ScenarioOptions = scenario.Options
	// ScenarioRuntime is a bound scenario: it drives the timeline and
	// measures failover latency and goodput.
	ScenarioRuntime = scenario.Runtime
)

// Technologies.
const (
	TechPLC   = graph.TechPLC
	TechWiFi  = graph.TechWiFi
	TechWiFi2 = graph.TechWiFi2
)

// Topology views.
const (
	ViewHybrid     = topology.ViewHybrid
	ViewWiFiSingle = topology.ViewWiFiSingle
	ViewWiFiDual   = topology.ViewWiFiDual
)

// Traffic kinds for emulated flows.
const (
	TrafficSaturated = node.TrafficSaturated
	TrafficFile      = node.TrafficFile
	TrafficExternal  = node.TrafficExternal
)

// NewNetworkBuilder returns a builder for a hybrid multigraph. A nil
// model uses single-collision-domain-per-technology interference (the
// paper's model for examples and small networks).
func NewNetworkBuilder(model graph.InterferenceModel) *NetworkBuilder {
	return graph.NewBuilder(model)
}

// DefaultRoutingConfig returns the paper's routing parameters (n = 5,
// CSC enabled, 6-hop routes).
func DefaultRoutingConfig() RoutingConfig { return routing.DefaultConfig() }

// FindSinglePath runs the §3.1 single-path procedure.
func FindSinglePath(net *Network, src, dst NodeID, cfg RoutingConfig) Path {
	return routing.SinglePath(net, src, dst, cfg)
}

// FindCombination runs the §3.2 multipath procedure and returns the best
// combination of simultaneously usable paths.
func FindCombination(net *Network, src, dst NodeID, cfg RoutingConfig) Combination {
	return routing.Multipath(net, src, dst, cfg)
}

// FindRoutes returns just the paths of the best combination.
func FindRoutes(net *Network, src, dst NodeID, cfg RoutingConfig) []Path {
	return routing.Multipath(net, src, dst, cfg).Paths
}

// PathRate returns R(P): the maximum rate sustainable on the path alone
// under intra-path interference.
func PathRate(net *Network, p Path) float64 { return routing.RatePath(net, p) }

// NewController creates the §4 congestion controller over preselected
// routes.
func NewController(net *Network, routes []ControllerRoute, opts ControllerOptions) (*Controller, error) {
	return congestion.New(net, routes, opts)
}

// NewEmulation builds the §6 packet-level emulation of the EMPoWER node
// stack on the given network.
func NewEmulation(net *Network, cfg EmulationConfig, seed int64) *Emulation {
	return node.NewEmulation(net, cfg, seed)
}

// LoadScenario reads a dynamic-network scenario from a JSON file (see
// examples/scenarios/ and the schema section in DESIGN.md).
func LoadScenario(path string) (*Scenario, error) { return scenario.Load(path) }

// NewScenario starts building a scenario programmatically.
func NewScenario(name string, duration float64) *Scenario {
	return scenario.New(name, duration)
}

// BindScenario expands the scenario's stochastic processes with the seed
// and schedules its timeline on the emulation; run the returned runtime
// to drive the dynamics and measure failover.
func BindScenario(em *Emulation, sc *Scenario, seed int64, opts ScenarioOptions) (*ScenarioRuntime, error) {
	return scenario.Bind(em, sc, seed, opts)
}

// Residential generates the §5.1 residential topology instance.
func Residential(rng *rand.Rand, cfg TopologyConfig) *Instance {
	return topology.Residential(rng, cfg)
}

// Enterprise generates the §5.1 enterprise topology instance.
func Enterprise(rng *rand.Rand, cfg TopologyConfig) *Instance {
	return topology.Enterprise(rng, cfg)
}

// Testbed generates the 22-node §6 testbed instance.
func Testbed(rng *rand.Rand, cfg TopologyConfig) *Instance {
	return topology.Testbed(rng, cfg)
}

// OptimalRates computes the centralized utility-optimal per-flow rates
// over all simple paths (the paper's "optimal" baseline). Flows are
// (src, dst) pairs with proportional-fairness utility.
func OptimalRates(net *Network, flows [][2]NodeID) ([]float64, error) {
	specs := make([]optimal.FlowSpec, len(flows))
	for i, f := range flows {
		specs[i] = optimal.FlowSpec{Src: f[0], Dst: f[1]}
	}
	res, err := optimal.Optimal(net, specs, optimal.Config{})
	if err != nil {
		return nil, err
	}
	return res.FlowRates, nil
}

// ConservativeOptimalRates is the optimum under EMPoWER's conservative
// interference constraint (2).
func ConservativeOptimalRates(net *Network, flows [][2]NodeID) ([]float64, error) {
	specs := make([]optimal.FlowSpec, len(flows))
	for i, f := range flows {
		specs[i] = optimal.FlowSpec{Src: f[0], Dst: f[1]}
	}
	res, err := optimal.ConservativeOpt(net, specs, optimal.Config{})
	if err != nil {
		return nil, err
	}
	return res.FlowRates, nil
}
