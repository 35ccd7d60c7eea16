package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/topology"
)

// islandInstance is three hybrid nodes with WiFi and PLC between every
// pair, and a fourth node with no link at all: any pair naming node 3 has
// no route under any scheme.
func islandInstance() *topology.Instance {
	inst := &topology.Instance{}
	for i := 0; i < 4; i++ {
		inst.Nodes = append(inst.Nodes, topology.NodeSpec{X: 5 * float64(i), Hybrid: i < 3})
		inst.WiFiCap = append(inst.WiFiCap, make([]float64, 4))
		inst.PLCCap = append(inst.PLCCap, make([]float64, 4))
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i != j {
				inst.WiFiCap[i][j] = 30 + 10*float64(i)
				inst.PLCCap[i][j] = 20 + 5*float64(j)
			}
		}
	}
	return inst
}

// checkFlows fails unless res, s's result on inst, has one finite,
// non-negative throughput per pair, 0 for every pair without a route.
func checkFlows(t *testing.T, tag string, inst *topology.Instance, s Scheme, res Result, pairs [][2]graph.NodeID) {
	t.Helper()
	net := inst.BuildCached(s.View()).Network
	if len(res.Flows) != len(pairs) {
		t.Fatalf("%s: %d flow results for %d pairs", tag, len(res.Flows), len(pairs))
	}
	for f, fr := range res.Flows {
		x := fr.Throughput
		if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
			t.Fatalf("%s: flow %d throughput %v", tag, f, x)
		}
		if len(RoutesFor(s, net, pairs[f][0], pairs[f][1])) == 0 && x != 0 {
			t.Fatalf("%s: route-less flow %d reports %v Mbps", tag, f, x)
		}
	}
}

// TestEvaluateRoutelessPairs: a pair without a route — last, in the
// middle, or every pair — reports 0 Mbps under every scheme, and the
// routed pairs report positive rates. The controller counts flows up to
// the highest routed one, so a route-less last pair falls outside its
// trajectory rows.
func TestEvaluateRoutelessPairs(t *testing.T) {
	inst := islandInstance()
	cases := []struct {
		name  string
		pairs [][2]graph.NodeID
	}{
		{"last", [][2]graph.NodeID{{0, 1}, {1, 2}, {0, 3}}},
		{"middle", [][2]graph.NodeID{{0, 1}, {3, 2}, {1, 2}}},
		{"every", [][2]graph.NodeID{{0, 3}, {3, 1}}},
	}
	for _, c := range cases {
		for s := SchemeEMPoWER; s <= SchemeMP2bp; s++ {
			tag := fmt.Sprintf("%s/%v", c.name, s)
			res := Evaluate(inst, s, c.pairs, Options{Slots: 400})
			checkFlows(t, tag, inst, s, res, c.pairs)
			net := inst.BuildCached(s.View()).Network
			for f, pr := range c.pairs {
				routed := pr[0] != 3 && pr[1] != 3
				if routes := RoutesFor(s, net, pr[0], pr[1]); routed != (len(routes) > 0) {
					t.Fatalf("%s: flow %d has %d routes", tag, f, len(routes))
				}
				if routed && res.Flows[f].Throughput <= 0 {
					t.Fatalf("%s: routed flow %d reports %v Mbps", tag, f, res.Flows[f].Throughput)
				}
			}
		}
	}
}

// FuzzEvaluate drives Evaluate on random instances, pair draws and
// schemes: it must not panic, must report one finite, non-negative
// throughput per pair, and must report 0 for a pair without a route. The
// inputs are the topology kind, the instance seed, the pair-draw seed, the
// scheme, the pair count 1 + npairs%4 and the slot count 1 + slots%400.
// The corpus (testdata/fuzz/FuzzEvaluate) holds replication 63 of the
// enterprise Figure 7 sweep at seed 1, whose last pair has no route.
func FuzzEvaluate(f *testing.F) {
	f.Fuzz(func(t *testing.T, enterprise bool, seed, pairSeed int64, scheme, npairs uint8, slots uint16) {
		rng := rand.New(rand.NewSource(seed))
		var inst *topology.Instance
		if enterprise {
			inst = topology.Enterprise(rng, topology.Config{})
		} else {
			inst = topology.Residential(rng, topology.Config{})
		}
		s := Scheme(scheme % uint8(SchemeMP2bp+1))
		pairs := make([][2]graph.NodeID, 1+npairs%4)
		prng := rand.New(rand.NewSource(pairSeed))
		for i := range pairs {
			src, dst := inst.RandomFlow(prng)
			pairs[i] = [2]graph.NodeID{src, dst}
		}
		res := Evaluate(inst, s, pairs, Options{Delta: 0.05, Slots: 1 + int(slots%400)})
		checkFlows(t, s.String(), inst, s, res, pairs)
	})
}
