package core

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/topology"
)

func instance(seed int64) *topology.Instance {
	return topology.Residential(rand.New(rand.NewSource(seed)), topology.Config{})
}

// connectedPair finds a flow pair with hybrid connectivity on the
// instance.
func connectedPair(t *testing.T, inst *topology.Instance, seed int64) (graph.NodeID, graph.NodeID) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net := inst.Build(topology.ViewHybrid)
	for tries := 0; tries < 200; tries++ {
		src, dst := inst.RandomFlow(rng)
		if routes := RoutesFor(SchemeEMPoWER, net.Network, src, dst); len(routes) > 0 {
			return src, dst
		}
	}
	t.Skip("no connected pair on this seed")
	return 0, 0
}

func TestSchemeProperties(t *testing.T) {
	if SchemeEMPoWER.View() != topology.ViewHybrid || !SchemeEMPoWER.Multipath() || !SchemeEMPoWER.CC() {
		t.Error("EMPoWER properties wrong")
	}
	if SchemeSPWiFi.View() != topology.ViewWiFiSingle || SchemeSPWiFi.Multipath() {
		t.Error("SP-WiFi properties wrong")
	}
	if SchemeMPmWiFi.View() != topology.ViewWiFiDual {
		t.Error("MP-mWiFi view wrong")
	}
	if SchemeMPWoCC.CC() || SchemeSPWoCC.CC() {
		t.Error("w/o-CC schemes should not have CC")
	}
	if len(AllSchemes()) != 8 {
		t.Error("expected 8 schemes")
	}
	for _, s := range AllSchemes() {
		if s.String() == "" {
			t.Error("scheme with empty name")
		}
	}
}

func TestRoutesForSingleVsMulti(t *testing.T) {
	inst := instance(1)
	src, dst := connectedPair(t, inst, 2)
	net := inst.Build(topology.ViewHybrid)
	sp := RoutesFor(SchemeSP, net.Network, src, dst)
	if len(sp) != 1 {
		t.Fatalf("SP returned %d routes, want 1", len(sp))
	}
	mp := RoutesFor(SchemeEMPoWER, net.Network, src, dst)
	if len(mp) < 1 {
		t.Fatal("EMPoWER returned no routes")
	}
	bp := RoutesFor(SchemeMP2bp, net.Network, src, dst)
	if len(bp) < 1 || len(bp) > 2 {
		t.Fatalf("MP-2bp returned %d routes", len(bp))
	}
}

func TestEvaluateEMPoWERBeatsOrMatchesSP(t *testing.T) {
	if testing.Short() {
		t.Skip("10-instance analytic sweep")
	}
	better, worse := 0, 0
	for seed := int64(0); seed < 10; seed++ {
		inst := instance(seed)
		rng := rand.New(rand.NewSource(seed + 100))
		src, dst := inst.RandomFlow(rng)
		emp := Throughput(inst, SchemeEMPoWER, src, dst, Options{})
		sp := Throughput(inst, SchemeSP, src, dst, Options{})
		if emp >= sp-0.8 {
			better++
		} else {
			worse++
			t.Logf("seed %d: EMPoWER %.2f < SP %.2f", seed, emp, sp)
		}
	}
	if worse > 2 {
		t.Errorf("EMPoWER materially below SP in %d/10 instances", worse)
	}
}

func TestEvaluateHybridBeatsWiFiOnAverage(t *testing.T) {
	if testing.Short() {
		t.Skip("12-instance analytic sweep")
	}
	var hybridSum, wifiSum float64
	n := 12
	for seed := int64(0); seed < int64(n); seed++ {
		inst := instance(seed)
		rng := rand.New(rand.NewSource(seed + 500))
		src, dst := inst.RandomFlow(rng)
		hybridSum += Throughput(inst, SchemeEMPoWER, src, dst, Options{})
		wifiSum += Throughput(inst, SchemeSPWiFi, src, dst, Options{})
	}
	if hybridSum <= wifiSum {
		t.Errorf("hybrid EMPoWER (%.1f) should beat SP-WiFi (%.1f) in aggregate", hybridSum, wifiSum)
	}
	t.Logf("aggregate: EMPoWER %.1f vs SP-WiFi %.1f (gain %.0f%%)",
		hybridSum, wifiSum, 100*(hybridSum-wifiSum)/wifiSum)
}

func TestMPWiFiMatchesSPWiFi(t *testing.T) {
	// §5.2.1: multipath on a single channel cannot help — MP-WiFi
	// coincides with SP-WiFi.
	for seed := int64(0); seed < 6; seed++ {
		inst := instance(seed)
		rng := rand.New(rand.NewSource(seed + 900))
		src, dst := inst.RandomFlow(rng)
		mp := Throughput(inst, SchemeMPWiFi, src, dst, Options{})
		sp := Throughput(inst, SchemeSPWiFi, src, dst, Options{})
		if diff := mp - sp; diff < -0.8 || diff > 0.8 {
			t.Errorf("seed %d: MP-WiFi %.2f vs SP-WiFi %.2f should coincide", seed, mp, sp)
		}
	}
}

func TestMPmWiFiAtLeastDoublesSPWiFiRoughly(t *testing.T) {
	// The paper models T_MP-mWiFi = 2·T_SP-WiFi (identical capacities on
	// both channels). Our dual-channel routing is more general — it can
	// also alternate channels across the hops of one route, removing
	// intra-path interference — so the ratio is at least ~2 and can be
	// larger on multihop flows (documented deviation).
	for seed := int64(3); seed < 9; seed++ {
		inst := instance(seed)
		rng := rand.New(rand.NewSource(seed + 1300))
		src, dst := inst.RandomFlow(rng)
		dual := Throughput(inst, SchemeMPmWiFi, src, dst, Options{})
		single := Throughput(inst, SchemeSPWiFi, src, dst, Options{})
		if single == 0 {
			if dual != 0 {
				t.Errorf("seed %d: dual %.2f with no single-channel connectivity", seed, dual)
			}
			continue
		}
		ratio := dual / single
		if ratio < 1.5 {
			t.Errorf("seed %d: T_mWiFi/T_WiFi = %.2f, want >= ~2", seed, ratio)
		}
	}
}

func TestCCBeatsNoCC(t *testing.T) {
	wins, losses := 0, 0
	for seed := int64(0); seed < 10; seed++ {
		inst := instance(seed)
		rng := rand.New(rand.NewSource(seed + 1700))
		src, dst := inst.RandomFlow(rng)
		cc := Throughput(inst, SchemeEMPoWER, src, dst, Options{})
		nocc := Throughput(inst, SchemeMPWoCC, src, dst, Options{})
		if cc >= nocc-0.8 {
			wins++
		} else {
			losses++
			t.Logf("seed %d: EMPoWER %.2f < MP-w/o-CC %.2f", seed, cc, nocc)
		}
	}
	if losses > 2 {
		t.Errorf("EMPoWER lost to MP-w/o-CC in %d/10 instances", losses)
	}
}

func TestEvaluateUnreachableFlow(t *testing.T) {
	// An instance may have disconnected pairs: throughput must be 0.
	inst := instance(42)
	// Build a pair guaranteed disconnected by removing all links via a
	// tiny custom instance instead.
	tiny := &topology.Instance{
		Nodes: []topology.NodeSpec{
			{X: 0, Y: 0, Hybrid: true},
			{X: 49, Y: 29, Hybrid: false},
		},
		WiFiCap: [][]float64{{0, 0}, {0, 0}},
		PLCCap:  [][]float64{{0, 0}, {0, 0}},
	}
	res := Evaluate(tiny, SchemeEMPoWER, [][2]graph.NodeID{{0, 1}}, Options{})
	if res.Flows[0].Throughput != 0 {
		t.Errorf("unreachable throughput = %v", res.Flows[0].Throughput)
	}
	_ = inst
}

func TestEvaluateMultipleFlowsUtility(t *testing.T) {
	inst := instance(5)
	rng := rand.New(rand.NewSource(2000))
	pairs := make([][2]graph.NodeID, 3)
	for i := range pairs {
		s, d := inst.RandomFlow(rng)
		pairs[i] = [2]graph.NodeID{s, d}
	}
	res := Evaluate(inst, SchemeEMPoWER, pairs, Options{})
	if len(res.Flows) != 3 {
		t.Fatal("flow count wrong")
	}
	if res.Utility == 0 && (res.Flows[0].Throughput > 0 || res.Flows[1].Throughput > 0) {
		t.Error("utility not computed")
	}
}

func TestDeltaMarginLowersThroughput(t *testing.T) {
	inst := instance(7)
	rng := rand.New(rand.NewSource(2200))
	src, dst := inst.RandomFlow(rng)
	t0 := Throughput(inst, SchemeEMPoWER, src, dst, Options{})
	t3 := Throughput(inst, SchemeEMPoWER, src, dst, Options{Delta: 0.3})
	if t0 == 0 {
		t.Skip("disconnected pair")
	}
	if t3 >= t0 {
		t.Errorf("δ=0.3 throughput %.2f should be below δ=0 throughput %.2f", t3, t0)
	}
}
