package optimal

import (
	"testing"

	"repro/internal/graph"
)

// clusteredNet builds k disjoint triangles of WiFi nodes, spaced far
// beyond the sensing radius, so each triangle is its own interference
// domain.
func clusteredNet(k int) *graph.Network {
	b := graph.NewBuilder(graph.RangeBased{SenseRadius: map[graph.Tech]float64{graph.TechWiFi: 50}})
	for c := 0; c < k; c++ {
		ox := float64(c) * 1000
		a := b.AddNode("", ox, 0, graph.TechWiFi)
		m := b.AddNode("", ox+10, 0, graph.TechWiFi)
		z := b.AddNode("", ox+20, 0, graph.TechWiFi)
		b.AddDuplex(a, m, graph.TechWiFi, 54)
		b.AddDuplex(m, z, graph.TechWiFi, 54)
	}
	return b.Build()
}

func TestInterferenceDomainsClusters(t *testing.T) {
	net := clusteredNet(4)
	d := InterferenceDomains(net)
	if d.Num != 4 {
		t.Fatalf("domains = %d, want 4", d.Num)
	}
	// Links 0..3 belong to cluster 0, 4..7 to cluster 1, and so on, and
	// numbering follows first appearance in LinkID order.
	for l := 0; l < net.NumLinks(); l++ {
		if want := l / 4; d.Link[l] != want {
			t.Fatalf("link %d domain = %d, want %d", l, d.Link[l], want)
		}
	}
	for n := 0; n < net.NumNodes(); n++ {
		if want := n / 3; d.Node[n] != want {
			t.Fatalf("node %d domain = %d, want %d", n, d.Node[n], want)
		}
	}
}

func TestInterferenceDomainsSingleComponent(t *testing.T) {
	// The default model (all same-tech links interfere) plus shared
	// endpoints collapses any network with links into one domain — even a
	// hybrid one, because nodes carrying both technologies bridge them.
	b := graph.NewBuilder(nil)
	a := b.AddNode("a", 0, 0, graph.TechWiFi, graph.TechPLC)
	m := b.AddNode("b", 1, 0, graph.TechWiFi, graph.TechPLC)
	z := b.AddNode("c", 2, 0, graph.TechPLC)
	b.AddDuplex(a, m, graph.TechWiFi, 54)
	b.AddDuplex(m, z, graph.TechPLC, 30)
	d := InterferenceDomains(b.Build())
	if d.Num != 1 {
		t.Fatalf("domains = %d, want 1", d.Num)
	}
}

func TestInterferenceDomainsCapacityIndependent(t *testing.T) {
	net := clusteredNet(2)
	before := InterferenceDomains(net)
	// Kill a whole cluster's links: the partition must not change, or a
	// dynamic scenario could migrate links between domains mid-run.
	for l := 0; l < 4; l++ {
		net.Link(graph.LinkID(l)).Capacity = 0
	}
	after := InterferenceDomains(net)
	if after.Num != before.Num {
		t.Fatalf("domains changed with capacities: %d -> %d", before.Num, after.Num)
	}
	for l := range before.Link {
		if before.Link[l] != after.Link[l] {
			t.Fatalf("link %d migrated: %d -> %d", l, before.Link[l], after.Link[l])
		}
	}
}

func TestInterferenceDomainsRespectCliqueComponents(t *testing.T) {
	// Every maximal clique of the conflict graph must be contained in one
	// domain: clique edges are interference edges, and airtime contention
	// couples the event order of its members.
	net := clusteredNet(3)
	d := InterferenceDomains(net)
	cg := NewConflictGraph(net)
	for _, clique := range cg.MaximalCliques() {
		for _, l := range clique[1:] {
			if d.Link[l] != d.Link[clique[0]] {
				t.Fatalf("clique %v spans domains %d and %d", clique, d.Link[clique[0]], d.Link[l])
			}
		}
	}
	// Isolated nodes belong to domain 0.
	b := graph.NewBuilder(nil)
	b.AddNode("lone", 0, 0, graph.TechWiFi)
	u := b.AddNode("u", 1, 0, graph.TechWiFi)
	v := b.AddNode("v", 2, 0, graph.TechWiFi)
	b.AddDuplex(u, v, graph.TechWiFi, 54)
	dd := InterferenceDomains(b.Build())
	if dd.Num != 1 || dd.Node[0] != 0 {
		t.Fatalf("isolated node: domains=%d node0=%d, want 1/0", dd.Num, dd.Node[0])
	}
}
