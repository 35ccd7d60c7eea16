package topology

// The link-pair interference predicate as it was before the node-level
// model — up to four net.Distance calls per WiFi link pair, PLC decided by
// the panels of the two senders — kept verbatim (renamed) as the oracle
// for Instance.Senses.

import (
	"slices"
	"testing"

	"repro/internal/graph"
)

type referenceInterferenceModel struct {
	inst  *Instance
	sense float64
}

func (m referenceInterferenceModel) Interferes(net *graph.Network, a, b *graph.Link) bool {
	if a.Tech != b.Tech {
		return false
	}
	if a.Tech == graph.TechPLC {
		return m.inst.Nodes[a.From].Panel == m.inst.Nodes[b.From].Panel
	}
	// WiFi channels: shared endpoint or proximity.
	if a.From == b.From || a.From == b.To || a.To == b.From || a.To == b.To {
		return true
	}
	for _, u := range []graph.NodeID{a.From, a.To} {
		for _, v := range []graph.NodeID{b.From, b.To} {
			if net.Distance(u, v) <= m.sense {
				return true
			}
		}
	}
	return false
}

// TestSensesMatchesDistancePredicate rebuilds every interference row of
// every view from the old predicate, pair by pair in i<j order, and
// requires the rows Build produced from Senses to be the same.
func TestSensesMatchesDistancePredicate(t *testing.T) {
	gens := []struct {
		name string
		gen  func(seed int64, cfg Config) *Instance
	}{
		{"residential", func(seed int64, cfg Config) *Instance { return Residential(rng(seed), cfg) }},
		{"enterprise", func(seed int64, cfg Config) *Instance { return Enterprise(rng(seed), cfg) }},
		{"testbed", func(seed int64, cfg Config) *Instance { return Testbed(rng(seed), cfg) }},
	}
	// The default carrier-sensing range, and one short enough that most
	// WiFi pairs without a shared endpoint are decided by distance.
	cfgs := []Config{{}, {WiFiSenseFactor: 0.4}}
	for _, g := range gens {
		for _, cfg := range cfgs {
			for seed := int64(1); seed <= 8; seed++ {
				inst := g.gen(seed, cfg)
				ref := referenceInterferenceModel{inst: inst, sense: wifiRadius * cfg.senseFactor()}
				for _, view := range []View{ViewHybrid, ViewWiFiSingle, ViewWiFiDual} {
					net := inst.Build(view)
					nl := net.NumLinks()
					rows := make([][]graph.LinkID, nl)
					for i := 0; i < nl; i++ {
						rows[i] = append(rows[i], graph.LinkID(i))
						for j := i + 1; j < nl; j++ {
							if ref.Interferes(net.Network, &net.Links[i], &net.Links[j]) {
								rows[i] = append(rows[i], graph.LinkID(j))
								rows[j] = append(rows[j], graph.LinkID(i))
							}
						}
					}
					for l := 0; l < nl; l++ {
						if got := net.Interference(graph.LinkID(l)); !slices.Equal(got, rows[l]) {
							t.Fatalf("%s seed %d sense×%v %v: I_%d = %v, distance predicate gives %v",
								g.name, seed, cfg.senseFactor(), view, l, got, rows[l])
						}
					}
				}
			}
		}
	}
}
