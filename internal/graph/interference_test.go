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

// rowModel answers Interferes from the rows of an already built network,
// so a network whose Builder the test never held (a topology view) can be
// built again on the same relation.
type rowModel struct{ net *graph.Network }

func (m rowModel) Interferes(_ *graph.Network, a, b *graph.Link) bool {
	_, ok := slices.BinarySearch(m.net.Interference(a.ID), b.ID)
	return ok
}

func (rowModel) Name() string { return "rows-of-a-built-network" }

// rebuild copies net's nodes and links into a Builder over net's own
// interference relation.
func rebuild(net *graph.Network) *graph.Builder {
	b := graph.NewBuilder(rowModel{net})
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
// and at a short one.
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
		for _, cfg := range []topology.Config{{}, {WiFiSenseFactor: 0.4}} {
			for seed := int64(1); seed <= 6; seed++ {
				inst := g.gen(rand.New(rand.NewSource(seed)), cfg)
				for _, view := range []topology.View{topology.ViewHybrid, topology.ViewWiFiSingle, topology.ViewWiFiDual} {
					tag := fmt.Sprintf("%s seed %d sense %v %v", g.name, seed, cfg.WiFiSenseFactor, view)
					net := inst.Build(view).Network
					checkRows(t, tag, net)
					sameRows(t, tag+" rebuilt", checkBuild(t, tag+" rebuilt", rebuild(net)), net)
				}
			}
		}
	}
}

// randomRangeBased draws nodes with random interface sets and exactly
// links links over shared technologies, under a RangeBased model whose
// sensing radius is random per technology and, for some, absent (one
// collision domain).
func randomRangeBased(rng *rand.Rand, links int) *graph.Builder {
	techs := []graph.Tech{graph.TechPLC, graph.TechWiFi, graph.TechWiFi2}
	radius := map[graph.Tech]float64{}
	for _, k := range techs {
		if rng.Intn(4) != 0 {
			radius[k] = 5 + rng.Float64()*40
		}
	}
	b := graph.NewBuilder(graph.RangeBased{SenseRadius: radius})
	n := 2 + rng.Intn(30)
	has := make([][]graph.Tech, n)
	for i := range has {
		for _, k := range techs {
			if rng.Intn(2) == 0 {
				has[i] = append(has[i], k)
			}
		}
		if len(has[i]) == 0 {
			has[i] = []graph.Tech{graph.TechWiFi}
		}
		b.AddNode("", rng.Float64()*100, rng.Float64()*60, has[i]...)
	}
	for added := 0; added < links; {
		u, v := rng.Intn(n), rng.Intn(n)
		k := has[u][rng.Intn(len(has[u]))]
		if u == v || !slices.Contains(has[v], k) {
			continue
		}
		b.AddLink(graph.NodeID(u), graph.NodeID(v), k, 1+rng.Float64()*99)
		added++
	}
	return b
}

// TestInterferenceRowsOfRandomRangeBased covers random networks whose
// link counts sit on and around the bit matrix's 64-link word boundaries.
func TestInterferenceRowsOfRandomRangeBased(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, links := range []int{0, 1, 2, 7, 63, 64, 65, 127, 128, 129, 200} {
		for it := 0; it < 4; it++ {
			checkBuild(t, fmt.Sprintf("%d links, case %d", links, it), randomRangeBased(rng, links))
		}
	}
}
