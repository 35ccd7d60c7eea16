package topology

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestResidentialShape(t *testing.T) {
	inst := Residential(rng(1), Config{})
	if len(inst.Nodes) != 10 {
		t.Fatalf("residential has %d nodes, want 10", len(inst.Nodes))
	}
	hybrid := 0
	for _, n := range inst.Nodes {
		if n.Hybrid {
			hybrid++
		}
		if n.X < 0 || n.X > 50 || n.Y < 0 || n.Y > 30 {
			t.Errorf("node outside 50x30 rectangle: (%v,%v)", n.X, n.Y)
		}
		if n.Panel != 0 {
			t.Error("residential should have a single panel")
		}
	}
	if hybrid != 5 {
		t.Errorf("residential has %d hybrid nodes, want 5", hybrid)
	}
}

func TestEnterpriseShape(t *testing.T) {
	inst := Enterprise(rng(2), Config{})
	if len(inst.Nodes) != 20 {
		t.Fatalf("enterprise has %d nodes, want 20", len(inst.Nodes))
	}
	hybrid := 0
	for i, n := range inst.Nodes {
		if n.Hybrid {
			hybrid++
			// APs sit on the 10 m grid.
			if math.Mod(n.X, 10) != 0 || math.Mod(n.Y, 10) != 0 {
				t.Errorf("AP %d not on grid: (%v,%v)", i, n.X, n.Y)
			}
		}
		if n.X < 0 || n.X > 100 || n.Y < 0 || n.Y > 60 {
			t.Errorf("node outside 100x60: (%v,%v)", n.X, n.Y)
		}
		wantPanel := 0
		if n.X >= 50 {
			wantPanel = 1
		}
		if n.Panel != wantPanel {
			t.Errorf("node %d panel %d, want %d", i, n.Panel, wantPanel)
		}
	}
	if hybrid != 10 {
		t.Errorf("enterprise has %d hybrid nodes, want 10", hybrid)
	}
}

func TestEnterprisePLCWithinPanelOnly(t *testing.T) {
	inst := Enterprise(rng(3), Config{})
	for i := range inst.Nodes {
		for j := range inst.Nodes {
			if inst.PLCCap[i][j] > 0 && inst.Nodes[i].Panel != inst.Nodes[j].Panel {
				t.Fatalf("PLC link across panels %d->%d", i, j)
			}
		}
	}
}

func TestCapacityBoundsAndRadii(t *testing.T) {
	cfg := Config{}
	for seed := int64(0); seed < 5; seed++ {
		inst := Residential(rng(seed), cfg)
		for i := range inst.Nodes {
			for j := range inst.Nodes {
				d := math.Hypot(inst.Nodes[i].X-inst.Nodes[j].X, inst.Nodes[i].Y-inst.Nodes[j].Y)
				if c := inst.WiFiCap[i][j]; c > 0 {
					if c > 100 || c < 2 {
						t.Fatalf("WiFi capacity out of range: %v", c)
					}
					if d > 35 {
						t.Fatalf("WiFi link beyond radius: %v m", d)
					}
				}
				if c := inst.PLCCap[i][j]; c > 0 {
					if c > 100 || c < 2 {
						t.Fatalf("PLC capacity out of range: %v", c)
					}
					if d > 50 {
						t.Fatalf("PLC link beyond radius: %v m", d)
					}
				}
			}
		}
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a := Residential(rng(42), Config{})
	b := Residential(rng(42), Config{})
	for i := range a.Nodes {
		if a.Nodes[i] != b.Nodes[i] {
			t.Fatal("same seed must give same nodes")
		}
		for j := range a.Nodes {
			if a.WiFiCap[i][j] != b.WiFiCap[i][j] || a.PLCCap[i][j] != b.PLCCap[i][j] {
				t.Fatal("same seed must give same capacities")
			}
		}
	}
}

func TestBuildViews(t *testing.T) {
	inst := Residential(rng(7), Config{})
	hybrid := inst.Build(ViewHybrid)
	single := inst.Build(ViewWiFiSingle)
	dual := inst.Build(ViewWiFiDual)

	countTech := func(n *Network, tech graph.Tech) int {
		c := 0
		for i := 0; i < n.NumLinks(); i++ {
			if n.Link(graph.LinkID(i)).Tech == tech {
				c++
			}
		}
		return c
	}
	wifi := countTech(hybrid, graph.TechWiFi)
	if countTech(single, graph.TechWiFi) != wifi {
		t.Error("views disagree on WiFi link count")
	}
	if countTech(single, graph.TechPLC) != 0 || countTech(single, graph.TechWiFi2) != 0 {
		t.Error("single view has extra technologies")
	}
	if countTech(dual, graph.TechWiFi2) != wifi {
		t.Error("dual view should mirror every WiFi link on channel 2")
	}
	if countTech(dual, graph.TechPLC) != 0 {
		t.Error("dual view must not contain PLC")
	}
	if countTech(hybrid, graph.TechPLC) == 0 {
		t.Error("hybrid view lost its PLC links (check seed)")
	}
	if len(hybrid.HybridNodes) != 5 {
		t.Errorf("hybrid nodes %d, want 5", len(hybrid.HybridNodes))
	}
}

func TestDualChannelCapacitiesMatch(t *testing.T) {
	inst := Residential(rng(8), Config{})
	dual := inst.Build(ViewWiFiDual)
	// For every WiFi link there must be a WiFi2 link with equal capacity.
	type key struct {
		from, to graph.NodeID
	}
	ch1 := map[key]float64{}
	ch2 := map[key]float64{}
	for i := 0; i < dual.NumLinks(); i++ {
		l := dual.Link(graph.LinkID(i))
		switch l.Tech {
		case graph.TechWiFi:
			ch1[key{l.From, l.To}] = l.Capacity
		case graph.TechWiFi2:
			ch2[key{l.From, l.To}] = l.Capacity
		}
	}
	if len(ch1) != len(ch2) {
		t.Fatalf("channel link counts differ: %d vs %d", len(ch1), len(ch2))
	}
	for k, c := range ch1 {
		if ch2[k] != c {
			t.Fatalf("capacities differ on %v: %v vs %v", k, c, ch2[k])
		}
	}
}

func TestInterferenceModelProperties(t *testing.T) {
	inst := Enterprise(rng(9), Config{})
	net := inst.Build(ViewHybrid)
	for i := 0; i < net.NumLinks(); i++ {
		li := net.Link(graph.LinkID(i))
		for _, j := range net.Interference(graph.LinkID(i)) {
			lj := net.Link(j)
			if i != int(j) && li.Tech != lj.Tech {
				t.Fatal("cross-technology interference")
			}
			if li.Tech == graph.TechPLC && int(j) != i {
				if inst.Nodes[li.From].Panel != inst.Nodes[lj.From].Panel {
					t.Fatal("PLC interference across panels")
				}
			}
		}
	}
	// Channels 1 and 2 never interfere in the dual view.
	dual := inst.Build(ViewWiFiDual)
	for i := 0; i < dual.NumLinks(); i++ {
		li := dual.Link(graph.LinkID(i))
		for _, j := range dual.Interference(graph.LinkID(i)) {
			if lj := dual.Link(j); li.Tech != lj.Tech {
				t.Fatal("cross-channel interference in dual view")
			}
		}
	}
}

func TestRandomFlow(t *testing.T) {
	inst := Residential(rng(10), Config{})
	r := rng(11)
	for i := 0; i < 100; i++ {
		src, dst := inst.RandomFlow(r)
		if src == dst {
			t.Fatal("flow with identical endpoints")
		}
		if !inst.Nodes[src].Hybrid {
			t.Fatal("source must be a hybrid node")
		}
	}
}

func TestTestbed(t *testing.T) {
	inst := Testbed(rng(12), Config{})
	if len(inst.Nodes) != 22 {
		t.Fatalf("testbed has %d nodes, want 22", len(inst.Nodes))
	}
	for i, n := range inst.Nodes {
		if !n.Hybrid {
			t.Errorf("testbed node %d should be hybrid", i)
		}
		if n.X < 0 || n.X > 65 || n.Y < 0 || n.Y > 40 {
			t.Errorf("testbed node %d outside floor: (%v,%v)", i, n.X, n.Y)
		}
	}
	if inst.Nodes[0].Name != "node1" || inst.Nodes[21].Name != "node22" {
		t.Error("testbed node names wrong")
	}
	// The floor must be connected enough to route between far corners in
	// the hybrid view.
	net := inst.Build(ViewHybrid)
	if net.NumLinks() == 0 {
		t.Fatal("testbed has no links")
	}
}
