package graph_test

// Interference-row invariants over the networks the experiments build:
// every row strictly ascending, containing its own link, and mirrored
// (j ∈ I_i ⟺ i ∈ I_j). Routing's scatter update is exact only under these
// (routing.(*workspace).update), and the controller's cells assume the
// symmetry too. Each network is also rebuilt by Build and by the reference
// (reference_test.go) on the same relation, row for row.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/topology"
)

// checkRows fails unless every interference row of net is strictly
// ascending, contains its own link and is mirrored by the rows it names.
func checkRows(t *testing.T, tag string, net *graph.Network) {
	t.Helper()
	for i := 0; i < net.NumLinks(); i++ {
		l := graph.LinkID(i)
		row := net.Interference(l)
		for k := 1; k < len(row); k++ {
			if row[k] <= row[k-1] {
				t.Fatalf("%s: I_%d = %v is not strictly ascending", tag, i, row)
			}
		}
		if _, ok := slices.BinarySearch(row, l); !ok {
			t.Fatalf("%s: I_%d = %v does not contain link %d", tag, i, row, i)
		}
		for _, j := range row {
			if _, ok := slices.BinarySearch(net.Interference(j), l); !ok {
				t.Fatalf("%s: %d ∈ I_%d but %d ∉ I_%d = %v", tag, j, i, i, j, net.Interference(j))
			}
		}
	}
}

// sameRows fails unless got and want have the same interference rows.
func sameRows(t *testing.T, tag string, got, want *graph.Network) {
	t.Helper()
	if got.NumLinks() != want.NumLinks() {
		t.Fatalf("%s: %d links, want %d", tag, got.NumLinks(), want.NumLinks())
	}
	for i := 0; i < want.NumLinks(); i++ {
		g, w := got.Interference(graph.LinkID(i)), want.Interference(graph.LinkID(i))
		if !slices.Equal(g, w) {
			t.Fatalf("%s: I_%d = %v, want %v", tag, i, g, w)
		}
	}
}

// checkBuild builds b twice, with Build and with the reference, and
// requires valid, identical rows.
func checkBuild(t *testing.T, tag string, b *graph.Builder) *graph.Network {
	t.Helper()
	net := b.Build()
	checkRows(t, tag, net)
	sameRows(t, tag+" vs reference", net, graph.ReferenceBuild(b))
	return net
}

// rebuild copies net's nodes and links into a Builder over model m.
func rebuild(net *graph.Network, m graph.InterferenceModel) *graph.Builder {
	b := graph.NewBuilder(m)
	for _, n := range net.Nodes {
		b.AddNode(n.Name, n.X, n.Y, n.Techs...)
	}
	for _, l := range net.Links {
		b.AddLink(l.From, l.To, l.Tech, l.Capacity)
	}
	return b
}

// TestInterferenceRowsOfTopologies covers every view of residential,
// enterprise and testbed instances, at the default carrier-sensing range
// and at a short one: the rows topology builds equal the reference's on the
// instance's own model, and the same nodes and links also build like the
// reference under one collision domain per technology and under a radius
// for WiFi only (PLC then has none).
func TestInterferenceRowsOfTopologies(t *testing.T) {
	gens := []struct {
		name string
		gen  func(rng *rand.Rand, cfg topology.Config) *topology.Instance
	}{
		{"residential", topology.Residential},
		{"enterprise", topology.Enterprise},
		{"testbed", topology.Testbed},
	}
	for _, g := range gens {
		for _, factor := range []float64{1.5, 0.4} {
			for seed := int64(1); seed <= 6; seed++ {
				inst := g.gen(rand.New(rand.NewSource(seed)), topology.Config{WiFiSenseFactor: factor})
				for _, view := range []topology.View{topology.ViewHybrid, topology.ViewWiFiSingle, topology.ViewWiFiDual} {
					tag := fmt.Sprintf("%s seed %d sense×%v %v", g.name, seed, factor, view)
					net := inst.Build(view).Network
					checkRows(t, tag, net)
					sameRows(t, tag+" vs reference", net, graph.ReferenceBuild(rebuild(net, inst)))
					checkBuild(t, tag+" single domain", rebuild(net, graph.SingleDomainPerTech{}))
					checkBuild(t, tag+" WiFi radius only", rebuild(net, graph.RangeBased{SenseRadius: map[graph.Tech]float64{graph.TechWiFi: 20}}))
				}
			}
		}
	}
}

// randomNetwork draws nodes nodes with random interface sets over PLC,
// WiFi, WiFi2 and an unconventional Tech(5), and up to links links between
// nodes sharing a technology, under a RangeBased model whose sensing radius
// is random per technology except where bit k of unbounded is set (the
// k-th technology is then one collision domain).
func randomNetwork(rng *rand.Rand, nodes, links int, unbounded uint8) *graph.Builder {
	techs := []graph.Tech{graph.TechPLC, graph.TechWiFi, graph.TechWiFi2, 5}
	radius := map[graph.Tech]float64{}
	for k, t := range techs {
		if unbounded&(1<<k) == 0 {
			radius[t] = 5 + rng.Float64()*40
		}
	}
	b := graph.NewBuilder(graph.RangeBased{SenseRadius: radius})
	carriers := make([][]graph.NodeID, len(techs))
	for i := 0; i < nodes; i++ {
		var has []graph.Tech
		for k, t := range techs {
			if rng.Intn(2) == 0 {
				has = append(has, t)
				carriers[k] = append(carriers[k], graph.NodeID(i))
			}
		}
		b.AddNode("", rng.Float64()*100, rng.Float64()*60, has...)
	}
	var usable []int
	for k, c := range carriers {
		if len(c) >= 2 {
			usable = append(usable, k)
		}
	}
	for added := 0; added < links && len(usable) > 0; {
		k := usable[rng.Intn(len(usable))]
		c := carriers[k]
		u, v := c[rng.Intn(len(c))], c[rng.Intn(len(c))]
		if u == v {
			continue
		}
		b.AddLink(u, v, techs[k], 1+rng.Float64()*99)
		added++
	}
	return b
}

// TestInterferenceRowsOfRandomRangeBased covers random networks whose
// link counts sit on and around the 64-link words of a row bitset, and
// whose node counts reach past the 64-node words of a sensed-node set, each
// also rebuilt under one collision domain per technology.
func TestInterferenceRowsOfRandomRangeBased(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, nodes := range []int{2, 17, 63, 64, 65, 130} {
		for _, links := range []int{0, 1, 2, 7, 63, 64, 65, 127, 128, 129, 200} {
			for it := 0; it < 4; it++ {
				tag := fmt.Sprintf("%d nodes, %d links, case %d", nodes, links, it)
				net := checkBuild(t, tag, randomNetwork(rng, nodes, links, uint8(rng.Intn(16))))
				checkBuild(t, tag+" single domain", rebuild(net, graph.SingleDomainPerTech{}))
			}
		}
	}
}
