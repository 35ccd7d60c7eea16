package routing

import (
	"testing"

	"repro/internal/graph"
)

// TestAblationCSCImprovesCombination checks the design choice behind the
// channel-switching cost: on hybrid topologies, routing with the CSC
// should never pick worse combinations (by total achievable rate) than
// routing without it, and should win on scenarios where alternating
// technologies avoids intra-path interference.
func TestAblationCSCImprovesCombination(t *testing.T) {
	winsOn, winsOff := 0, 0
	for seed := int64(0); seed < 30; seed++ {
		rng := newRng(seed)
		net, src, dst := randomNetwork(rng)
		on := DefaultConfig()
		off := DefaultConfig()
		off.UseCSC = false
		tOn := Multipath(net, src, dst, on).Total
		tOff := Multipath(net, src, dst, off).Total
		if tOn > tOff+1e-6 {
			winsOn++
		}
		if tOff > tOn+1e-6 {
			winsOff++
		}
	}
	// The CSC is a heuristic: it may occasionally lose, but it should not
	// lose more often than it wins on hybrid networks.
	if winsOff > winsOn {
		t.Errorf("CSC off wins %d vs on %d — CSC is hurting route quality", winsOff, winsOn)
	}
	t.Logf("CSC wins %d, loses %d (rest ties)", winsOn, winsOff)
}

// TestAblationNImprovesTotal checks that increasing n (the n-shortest
// budget) never decreases the combination total — more candidate paths
// can only widen the explored tree.
func TestAblationNImprovesTotal(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		rng := newRng(seed + 100)
		net, src, dst := randomNetwork(rng)
		prev := -1.0
		for _, n := range []int{1, 2, 5} {
			cfg := DefaultConfig()
			cfg.N = n
			total := Multipath(net, src, dst, cfg).Total
			if total < prev-1e-6 {
				t.Errorf("seed %d: total decreased from %.3f to %.3f when n grew to %d",
					seed, prev, total, n)
			}
			prev = total
		}
	}
}

// TestAblationCombinationVsTwoBest quantifies the gap between the full
// exploration tree and the naive MP-2bp route choice the paper compares
// against: the tree's total must always be at least the two-best-paths'
// joint achievable rate.
func TestAblationCombinationVsTwoBest(t *testing.T) {
	strictly := 0
	for seed := int64(0); seed < 30; seed++ {
		rng := newRng(seed + 200)
		net, src, dst := randomNetwork(rng)
		cfg := DefaultConfig()
		comb := Multipath(net, src, dst, cfg)
		two := TwoBestPaths(net, src, dst, cfg)
		if len(two) == 0 {
			continue
		}
		// Joint rate of the naive pair: load the first, then the second
		// on the residual graph.
		joint := RatePath(net, two[0])
		if len(two) > 1 {
			g1 := updated(net, two[0])
			joint += RatePath(g1, two[1])
		}
		if comb.Total < joint-1e-6 {
			t.Errorf("seed %d: combination %.3f below naive pair %.3f", seed, comb.Total, joint)
		}
		if comb.Total > joint+1e-6 {
			strictly++
		}
	}
	t.Logf("exploration tree strictly better than naive 2-best on %d/30 instances", strictly)
}

// TestCSCOptimalOnAlternatingChain verifies the CSC's purpose directly: a
// chain where each hop is available on both technologies must be routed
// with alternating technologies (which doubles the achievable rate).
func TestCSCOptimalOnAlternatingChain(t *testing.T) {
	b := graph.NewBuilder(nil)
	var ids []graph.NodeID
	for i := 0; i < 4; i++ {
		ids = append(ids, b.AddNode("", float64(i), 0, graph.TechPLC, graph.TechWiFi))
	}
	for i := 0; i < 3; i++ {
		b.AddDuplex(ids[i], ids[i+1], graph.TechPLC, 20)
		b.AddDuplex(ids[i], ids[i+1], graph.TechWiFi, 20)
	}
	net := b.Build()
	p := SinglePath(net, ids[0], ids[3], DefaultConfig())
	if p == nil {
		t.Fatal("no path")
	}
	for i := 1; i < len(p); i++ {
		if net.Link(p[i]).Tech == net.Link(p[i-1]).Tech {
			t.Fatalf("CSC failed to alternate technologies: %s", net.PathString(p))
		}
	}
	// Alternating 3-hop path: middle hop alone on its medium; ends share
	// one medium. R = 1/(2/20) = 10 vs 6.67 for a same-tech path.
	if r := RatePath(net, p); r < 10-1e-9 {
		t.Errorf("alternating path rate %.2f, want 10", r)
	}
}
