package routing

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// fuzzNetwork draws a small hybrid multigraph under a RangeBased model —
// sparse, uneven interference rows, unlike SingleDomainPerTech's one row
// per technology — with duplex links over up to three technologies. Link
// i is dead (capacity 0) when bit i%8 of dead is set.
func fuzzNetwork(rng *rand.Rand, dead uint8) *graph.Network {
	techs := []graph.Tech{graph.TechPLC, graph.TechWiFi, graph.TechWiFi2}
	radius := map[graph.Tech]float64{}
	for _, k := range techs {
		if rng.Intn(4) != 0 {
			radius[k] = 5 + rng.Float64()*40
		}
	}
	b := graph.NewBuilder(graph.RangeBased{SenseRadius: radius})
	n := 2 + rng.Intn(9)
	for i := 0; i < n; i++ {
		b.AddNode("", rng.Float64()*60, rng.Float64()*40, techs...)
	}
	links := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for _, k := range techs {
				if rng.Intn(2) != 0 {
					continue
				}
				c := 1 + rng.Float64()*99
				for _, from := range [2]int{i, j} {
					capacity := c
					if dead&(1<<(links%8)) != 0 {
						capacity = 0
					}
					b.AddLink(graph.NodeID(from), graph.NodeID(i+j-from), k, capacity)
					links++
				}
			}
		}
	}
	return b.Build()
}

// walkPath follows a simple path from node 0, choosing each hop among the
// egress links to unvisited nodes with the digits of walk; its length is
// 1 + walk%6 hops or less where the walk is stuck.
func walkPath(net *graph.Network, walk uint64) graph.Path {
	hops := 1 + int(walk%6)
	walk /= 6
	seen := make([]bool, net.NumNodes())
	cur := graph.NodeID(0)
	seen[cur] = true
	var p graph.Path
	for len(p) < hops {
		var next []graph.LinkID
		for _, id := range net.Out(cur) {
			if !seen[net.Link(id).To] {
				next = append(next, id)
			}
		}
		if len(next) == 0 {
			break
		}
		id := next[walk%uint64(len(next))]
		walk /= uint64(len(next))
		p = append(p, id)
		cur = net.Link(id).To
		seen[cur] = true
	}
	return p
}

// FuzzUpdateMatchesReference holds the scatter update(P,G) to the gather
// it replaced (refUpdateAt): on a small random network, a random simple
// path and a rate, every capacity after the update must equal the
// reference's bit for bit. The rate is the fuzzed one when it is positive
// and finite, and R(P) on the same overlay in every case.
func FuzzUpdateMatchesReference(f *testing.F) {
	f.Add(int64(1), uint64(0), 0.0, uint8(0))
	f.Add(int64(2), uint64(12345), 0.5, uint8(0))
	f.Add(int64(3), uint64(987654321), 1e3, uint8(0x11))
	f.Fuzz(func(t *testing.T, seed int64, walk uint64, rate float64, dead uint8) {
		net := fuzzNetwork(newRng(seed), dead)
		p := walkPath(net, walk)
		if len(p) == 0 {
			return
		}
		rates := []float64{RatePath(net, p)}
		if rate > 0 && !math.IsInf(rate, 1) {
			rates = append(rates, rate)
		}
		for _, r := range rates {
			if r <= 0 {
				continue
			}
			ws := getWS(net)
			ws.fillCap()
			ws.update(ws.capRoot, p, r)
			want := refUpdateAt(net, p, r)
			for i := range net.Links {
				if g, w := ws.capRoot[i], want.Links[i].Capacity; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("path %v at r=%v: capacity of link %d = %v, reference %v", p, r, i, g, w)
				}
			}
			putWS(ws)
		}
	})
}
