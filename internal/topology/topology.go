// Package topology generates the network instances of the paper's
// evaluation (§5.1 and §6.1):
//
//   - residential: 50×30 m, 10 nodes (5 hybrid PLC/WiFi, 5 WiFi-only),
//     uniform random positions;
//   - enterprise: 100×60 m, 20 nodes (10 hybrid APs on a 10 m grid, 10
//     WiFi-only clients), with two electrical panels splitting the
//     building — PLC links exist only within a panel;
//   - testbed: the 22-node office floor (65×40 m) of §6, with every node
//     equipped with two WiFi interfaces and one PLC interface.
//
// Link existence follows the paper's connection radii (35 m for WiFi,
// 50 m for PLC) and capacities are sampled from distance-based
// distributions calibrated to the paper's reported ranges (both
// technologies top out near 100 Mbps; PLC has much higher variance because
// electrical-wiring attenuation correlates only loosely with Euclidean
// distance).
//
// A generated Instance is view-independent: the same node positions and
// capacities materialize as a hybrid PLC/WiFi network, a single-channel
// WiFi network, or a two-channel WiFi network (the two channels share the
// same capacities, as in the paper, since fading affects both channels of
// the same radio similarly).
package topology

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/graph"
)

// Config holds generation parameters; zero values select the paper's.
type Config struct {
	// WiFiSenseFactor scales the WiFi carrier-sensing radius relative to
	// the connection radius (default 1.5; sensing reaches further than
	// decoding).
	WiFiSenseFactor float64
}

// The paper's link parameters: the connection radii in meters, and the
// per-link capacity ceiling in Mbps (the reported maximum of both 802.11n
// 40 MHz and HPAV 200).
const (
	wifiRadius  float64 = 35
	plcRadius   float64 = 50
	maxCapacity float64 = 100
)

func (c Config) senseFactor() float64 {
	if c.WiFiSenseFactor <= 0 {
		return 1.5
	}
	return c.WiFiSenseFactor
}

// NodeSpec describes one station of an instance.
type NodeSpec struct {
	Name   string
	X, Y   float64
	Hybrid bool // has a PLC interface
	Panel  int  // electrical panel (PLC collision/connectivity domain)
}

// Instance is a generated topology before materialization into a
// graph.Network view.
type Instance struct {
	Kind  string
	Nodes []NodeSpec
	// WiFiCap[i][j] is the capacity of the directed WiFi link i->j in
	// Mbps (0 = no link). PLCCap likewise for PLC.
	WiFiCap [][]float64
	PLCCap  [][]float64
	Config  Config

	// built caches one materialization per view for BuildCached.
	built [3]*Network
}

// View selects which technologies materialize.
type View int

const (
	// ViewHybrid uses PLC plus one WiFi channel (the paper's EMPoWER/SP
	// configuration).
	ViewHybrid View = iota
	// ViewWiFiSingle uses a single WiFi channel only (SP-WiFi/MP-WiFi).
	ViewWiFiSingle
	// ViewWiFiDual uses two non-interfering WiFi channels with identical
	// capacities (MP-mWiFi).
	ViewWiFiDual
)

// String implements fmt.Stringer.
func (v View) String() string {
	switch v {
	case ViewHybrid:
		return "hybrid"
	case ViewWiFiSingle:
		return "wifi-single"
	case ViewWiFiDual:
		return "wifi-dual"
	default:
		return fmt.Sprintf("View(%d)", int(v))
	}
}

// Network couples the materialized multigraph with instance metadata.
type Network struct {
	*graph.Network
	Instance *Instance
	View     View
	// HybridNodes lists nodes with a PLC interface (candidate flow
	// sources per §5.1).
	HybridNodes []graph.NodeID
}

// Senses implements graph.InterferenceModel, so an instance is the
// interference model of its views: WiFi nodes sense each other within the
// carrier-sensing radius (per channel); PLC nodes share a collision domain
// whenever they share an electrical panel (one IEEE 1901 central
// coordinator per panel). fillCaps never creates a cross-panel PLC link,
// so two PLC links interfere exactly when they share a panel.
func (inst *Instance) Senses(_ *graph.Network, t graph.Tech, u, v graph.NodeID) bool {
	a, b := &inst.Nodes[u], &inst.Nodes[v]
	if t == graph.TechPLC {
		return a.Panel == b.Panel
	}
	return math.Hypot(a.X-b.X, a.Y-b.Y) <= wifiRadius*inst.Config.senseFactor()
}

// Build materializes a view of the instance as a Network.
func (inst *Instance) Build(view View) *Network {
	b := graph.NewBuilder(inst)
	n := len(inst.Nodes)
	for i, spec := range inst.Nodes {
		techs := []graph.Tech{graph.TechWiFi}
		if view == ViewWiFiDual {
			techs = append(techs, graph.TechWiFi2)
		}
		if view == ViewHybrid && spec.Hybrid {
			techs = append(techs, graph.TechPLC)
		}
		name := spec.Name
		if name == "" {
			name = defaultNodeName(i + 1)
		}
		b.AddNode(name, spec.X, spec.Y, techs...)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if c := inst.WiFiCap[i][j]; c > 0 {
				b.AddLink(graph.NodeID(i), graph.NodeID(j), graph.TechWiFi, c)
				if view == ViewWiFiDual {
					b.AddLink(graph.NodeID(i), graph.NodeID(j), graph.TechWiFi2, c)
				}
			}
			if view == ViewHybrid {
				if c := inst.PLCCap[i][j]; c > 0 {
					b.AddLink(graph.NodeID(i), graph.NodeID(j), graph.TechPLC, c)
				}
			}
		}
	}
	net := &Network{Network: b.Build(), Instance: inst, View: view}
	for i, spec := range inst.Nodes {
		if spec.Hybrid {
			net.HybridNodes = append(net.HybridNodes, graph.NodeID(i))
		}
	}
	return net
}

// nodeNames interns the default "n1", "n2", ... node names: sweeps
// materialize thousands of instances and the per-node fmt.Sprintf was the
// single largest allocation source of a Figure-4 run.
var nodeNames = func() (a [64]string) {
	for i := range a {
		a[i] = fmt.Sprintf("n%d", i)
	}
	return
}()

func defaultNodeName(i int) string {
	if i >= 0 && i < len(nodeNames) {
		return nodeNames[i]
	}
	return fmt.Sprintf("n%d", i)
}

// BuildCached returns the instance's materialization of a view, building
// it on first use and reusing it afterwards. Scheme sweeps evaluate
// several schemes over at most three distinct views of the same
// instance, and materialization dominates their allocation profile; the
// cache collapses those rebuilds. The cached networks serve the
// read-only analytic paths (routing, the centralized controller, the
// fluid MAC): a caller that mutates link capacities — every emulation
// does — must take a fresh Build. Not safe for concurrent use on one
// Instance; the Monte-Carlo runners give each replication its own.
func (inst *Instance) BuildCached(view View) *Network {
	if int(view) >= len(inst.built) {
		return inst.Build(view)
	}
	if inst.built[view] == nil {
		inst.built[view] = inst.Build(view)
	}
	return inst.built[view]
}

// wifiCapacity samples the capacity of a WiFi link of length dist from
// the distance-based distribution: near-max at short range, decaying
// toward the edge of the connection radius, with lognormal shadowing and
// a distance-growing outage probability (deep fades and walls make some
// in-range links unusable — this is what gives PLC its coverage value in
// Figure 5).
func wifiCapacity(rng *rand.Rand, dist, radius, maxCap float64) float64 {
	if dist > radius {
		return 0
	}
	frac := dist / radius
	if rng.Float64() < 0.45*math.Pow(frac, 1.5) {
		return 0 // deep fade / obstruction outage
	}
	base := maxCap * math.Pow(1-frac/1.05, 1.7)
	noise := math.Exp(rng.NormFloat64() * 0.4)
	return clamp(base*noise, 2, maxCap)
}

// plcCapacity samples a PLC link capacity. Electrical attenuation depends
// on wiring topology more than Euclidean distance, so the distance
// dependence is weak, the variance large, and a wiring-dependent outage
// (different phases, long wiring detours) affects ~12 % of in-range
// pairs.
func plcCapacity(rng *rand.Rand, dist, radius, maxCap float64) float64 {
	if dist > radius {
		return 0
	}
	if rng.Float64() < 0.12 {
		return 0 // unfavorable wiring path
	}
	base := 0.8 * maxCap * math.Pow(1-dist/(radius*1.15), 0.7)
	noise := math.Exp(rng.NormFloat64() * 0.55)
	return clamp(base*noise, 2, maxCap)
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// fillCaps populates the directed capacity matrices. Forward and reverse
// capacities are correlated but not identical (σ ≈ 0.1 asymmetry).
func (inst *Instance) fillCaps(rng *rand.Rand) {
	n := len(inst.Nodes)
	inst.WiFiCap = matrix(n)
	inst.PLCCap = matrix(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := math.Hypot(inst.Nodes[i].X-inst.Nodes[j].X, inst.Nodes[i].Y-inst.Nodes[j].Y)
			if c := wifiCapacity(rng, d, wifiRadius, maxCapacity); c > 0 {
				inst.WiFiCap[i][j] = c
				inst.WiFiCap[j][i] = clamp(c*math.Exp(rng.NormFloat64()*0.1), 2, maxCapacity)
			}
			if inst.Nodes[i].Hybrid && inst.Nodes[j].Hybrid && inst.Nodes[i].Panel == inst.Nodes[j].Panel {
				if c := plcCapacity(rng, d, plcRadius, maxCapacity); c > 0 {
					inst.PLCCap[i][j] = c
					inst.PLCCap[j][i] = clamp(c*math.Exp(rng.NormFloat64()*0.15), 2, maxCapacity)
				}
			}
		}
	}
}

func matrix(n int) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	return m
}

// Residential generates the §5.1 residential instance: 10 nodes on a
// 50×30 m rectangle, 5 hybrid and 5 WiFi-only, one electrical panel.
func Residential(rng *rand.Rand, cfg Config) *Instance {
	inst := &Instance{Kind: "residential", Config: cfg}
	for i := 0; i < 10; i++ {
		inst.Nodes = append(inst.Nodes, NodeSpec{
			X:      rng.Float64() * 50,
			Y:      rng.Float64() * 30,
			Hybrid: i < 5,
			Panel:  0,
		})
	}
	inst.fillCaps(rng)
	return inst
}

// Enterprise generates the §5.1 enterprise instance: 20 nodes on a
// 100×60 m rectangle; 10 hybrid PLC/WiFi APs placed on distinct points of
// a 10 m grid; 10 WiFi-only clients placed uniformly; two electrical
// panels split the building at x = 50 and PLC links exist only within a
// panel.
func Enterprise(rng *rand.Rand, cfg Config) *Instance {
	inst := &Instance{Kind: "enterprise", Config: cfg}
	// Grid points strictly inside the rectangle.
	type pt struct{ x, y float64 }
	var grid []pt
	for x := 10.0; x <= 90; x += 10 {
		for y := 10.0; y <= 50; y += 10 {
			grid = append(grid, pt{x, y})
		}
	}
	rng.Shuffle(len(grid), func(i, j int) { grid[i], grid[j] = grid[j], grid[i] })
	for i := 0; i < 10; i++ {
		p := grid[i]
		panel := 0
		if p.x >= 50 {
			panel = 1
		}
		inst.Nodes = append(inst.Nodes, NodeSpec{X: p.x, Y: p.y, Hybrid: true, Panel: panel})
	}
	for i := 0; i < 10; i++ {
		x, y := rng.Float64()*100, rng.Float64()*60
		panel := 0
		if x >= 50 {
			panel = 1
		}
		inst.Nodes = append(inst.Nodes, NodeSpec{X: x, Y: y, Hybrid: false, Panel: panel})
	}
	inst.fillCaps(rng)
	return inst
}

// RandomFlow draws a flow per §5.1: the source uniformly among hybrid
// nodes, the destination uniformly among all other nodes (flows between
// two WiFi-only nodes are excluded by construction).
func (inst *Instance) RandomFlow(rng *rand.Rand) (src, dst graph.NodeID) {
	var hybrid []int
	for i, n := range inst.Nodes {
		if n.Hybrid {
			hybrid = append(hybrid, i)
		}
	}
	s := hybrid[rng.Intn(len(hybrid))]
	d := s
	for d == s {
		d = rng.Intn(len(inst.Nodes))
	}
	return graph.NodeID(s), graph.NodeID(d)
}
