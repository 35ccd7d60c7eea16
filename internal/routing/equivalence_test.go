package routing

// Equivalence property tests: the dense workspace-backed routing core must
// return bit-identical results — same paths, same weights, same
// tie-breaks — to the map-based reference implementation kept in
// reference_test.go, across randomized instances, CSC on/off, and varying
// N and MaxHops.

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/stats"
	"repro/internal/topology"
)

func pathsEqual(a, b graph.Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func pathListsEqual(a, b []graph.Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !pathsEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// checkEquivalence runs dense vs reference on one (net, src, dst, cfg) and
// reports the first divergence.
func checkEquivalence(t *testing.T, tag string, net *graph.Network, src, dst graph.NodeID, cfg Config) {
	t.Helper()

	sp := SinglePath(net, src, dst, cfg)
	rsp := refSinglePath(net, src, dst, cfg)
	if (sp == nil) != (rsp == nil) || !pathsEqual(sp, rsp) {
		t.Fatalf("%s: SinglePath diverged: dense %v, reference %v", tag, sp, rsp)
	}
	if sp != nil {
		dw := PathWeight(net, sp, cfg)
		rw := PathWeight(net, rsp, cfg)
		if dw != rw {
			t.Fatalf("%s: SinglePath weight diverged: dense %v, reference %v", tag, dw, rw)
		}
	}

	ns := NShortest(net, src, dst, cfg)
	rns := refNShortest(net, src, dst, cfg)
	if !pathListsEqual(ns, rns) {
		t.Fatalf("%s: NShortest diverged:\n dense     %v\n reference %v", tag, ns, rns)
	}
	for i := range ns {
		if dw, rw := PathWeight(net, ns[i], cfg), PathWeight(net, rns[i], cfg); dw != rw {
			t.Fatalf("%s: NShortest weight %d diverged: dense %v, reference %v", tag, i, dw, rw)
		}
	}

	comb := Multipath(net, src, dst, cfg)
	rcomb := refMultipath(net, src, dst, cfg)
	if !pathListsEqual(comb.Paths, rcomb.Paths) {
		t.Fatalf("%s: Multipath paths diverged:\n dense     %v\n reference %v", tag, comb.Paths, rcomb.Paths)
	}
	if len(comb.Rates) != len(rcomb.Rates) || comb.Total != rcomb.Total {
		t.Fatalf("%s: Multipath rates/total diverged: dense %v/%v, reference %v/%v",
			tag, comb.Rates, comb.Total, rcomb.Rates, rcomb.Total)
	}
	for i := range comb.Rates {
		if comb.Rates[i] != rcomb.Rates[i] {
			t.Fatalf("%s: Multipath rate %d diverged: dense %v, reference %v", tag, i, comb.Rates[i], rcomb.Rates[i])
		}
	}
}

// TestDenseMatchesReferenceRandom sweeps random small multigraphs across
// the full configuration grid.
func TestDenseMatchesReferenceRandom(t *testing.T) {
	seeds := int64(40)
	if testing.Short() {
		seeds = 10
	}
	for seed := int64(0); seed < seeds; seed++ {
		rng := newRng(seed)
		net, src, dst := randomNetwork(rng)
		for _, csc := range []bool{true, false} {
			for _, n := range []int{1, 2, 5} {
				for _, maxHops := range []int{3, 6, 8} {
					cfg := Config{N: n, UseCSC: csc, MaxHops: maxHops}
					tag := fmt.Sprintf("seed=%d csc=%v n=%d maxhops=%d", seed, csc, n, maxHops)
					checkEquivalence(t, tag, net, src, dst, cfg)
				}
			}
		}
	}
}

// TestDenseMatchesReferenceTopologies runs the paper's residential and
// enterprise instance generators (the §5 Monte-Carlo population) through
// the equivalence check.
func TestDenseMatchesReferenceTopologies(t *testing.T) {
	seeds := int64(8)
	if testing.Short() {
		seeds = 3
	}
	builders := []struct {
		name  string
		build func(seed int64) (*graph.Network, graph.NodeID, graph.NodeID)
	}{
		{"residential", func(seed int64) (*graph.Network, graph.NodeID, graph.NodeID) {
			inst := topology.Residential(stats.NewRand(seed), topology.Config{})
			net := inst.Build(topology.ViewHybrid)
			src, dst := inst.RandomFlow(stats.NewRand(seed + 1000))
			return net.Network, src, dst
		}},
		{"enterprise", func(seed int64) (*graph.Network, graph.NodeID, graph.NodeID) {
			inst := topology.Enterprise(stats.NewRand(seed), topology.Config{})
			net := inst.Build(topology.ViewHybrid)
			src, dst := inst.RandomFlow(stats.NewRand(seed + 2000))
			return net.Network, src, dst
		}},
		{"residential-wifi", func(seed int64) (*graph.Network, graph.NodeID, graph.NodeID) {
			inst := topology.Residential(stats.NewRand(seed), topology.Config{})
			net := inst.Build(topology.ViewWiFiSingle)
			src, dst := inst.RandomFlow(stats.NewRand(seed + 3000))
			return net.Network, src, dst
		}},
	}
	for _, b := range builders {
		b := b
		t.Run(b.name, func(t *testing.T) {
			for seed := int64(0); seed < seeds; seed++ {
				net, src, dst := b.build(seed)
				for _, csc := range []bool{true, false} {
					cfg := DefaultConfig()
					cfg.UseCSC = csc
					tag := fmt.Sprintf("%s seed=%d csc=%v", b.name, seed, csc)
					checkEquivalence(t, tag, net, src, dst, cfg)
				}
			}
		})
	}
}

// TestRateProceduresMatchReference pins RatePath, the workspace's
// update(P,G) and AppendSequentialRates to the reference formulas on
// random instances.
func TestRateProceduresMatchReference(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := newRng(seed + 500)
		net, src, dst := randomNetwork(rng)
		paths := refNShortest(net, src, dst, DefaultConfig())
		for _, p := range paths {
			if got, want := RatePath(net, p), refRatePath(net, p); got != want {
				t.Fatalf("seed %d: RatePath %v != reference %v", seed, got, want)
			}
			g1 := updated(net, p)
			g2 := refUpdate(net, p)
			for i := 0; i < net.NumLinks(); i++ {
				if g1.Link(graph.LinkID(i)).Capacity != g2.Link(graph.LinkID(i)).Capacity {
					t.Fatalf("seed %d: update capacity %d diverged: %v != %v",
						seed, i, g1.Link(graph.LinkID(i)).Capacity, g2.Link(graph.LinkID(i)).Capacity)
				}
			}
		}
		// AppendSequentialRates vs the RatePath/update chain it replaces.
		rates := AppendSequentialRates(net, paths, nil)
		g := net
		for i, p := range paths {
			want := refRatePath(g, p)
			if rates[i] != want {
				t.Fatalf("seed %d: AppendSequentialRates[%d] = %v, chain gives %v", seed, i, rates[i], want)
			}
			if want > 0 {
				g = refUpdate(g, p)
			}
		}
	}
}
