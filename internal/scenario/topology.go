package scenario

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/stats"
	"repro/internal/topology"
)

// TopologySpec makes a scenario self-contained: it either names one of
// the paper's generated instances (seeded per run, so Monte-Carlo sweeps
// get fresh channel realizations) or lays out a custom network
// explicitly.
type TopologySpec struct {
	// Kind is "custom", "residential", "enterprise" or "testbed".
	Kind string `json:"kind"`
	// View selects the materialization for generated kinds and the
	// technology filter for custom kinds: "hybrid" (default), "wifi"
	// (single channel) or "wifi-dual". Scheme sweeps override it with
	// the scheme's own view.
	View string `json:"view,omitempty"`
	// Nodes and Links describe a custom topology (Kind "custom").
	Nodes []NodeSpec `json:"nodes,omitempty"`
	Links []LinkSpec `json:"links,omitempty"`
	// SenseRadius switches a custom topology from the default
	// single-domain-per-tech interference model to the range-based one:
	// two same-tech links interfere only when their endpoints come within
	// the tech's radius (metres). Techs absent from the map keep an
	// infinite radius. Spatially separated clusters then fall into
	// independent interference domains, each with its own engine, MAC
	// and RNG stream.
	SenseRadius map[string]float64 `json:"sense_radius,omitempty"`
}

// NodeSpec is one station of a custom topology.
type NodeSpec struct {
	Name  string   `json:"name"`
	X     float64  `json:"x"`
	Y     float64  `json:"y"`
	Techs []string `json:"techs"`
}

// LinkSpec is one connection of a custom topology.
type LinkSpec struct {
	From     string  `json:"from"`
	To       string  `json:"to"`
	Tech     string  `json:"tech"`
	Capacity float64 `json:"capacity"`
	// OneWay suppresses the reverse direction (default: duplex).
	OneWay bool `json:"one_way,omitempty"`
}

func (t *TopologySpec) validate() error {
	if _, err := ParseView(t.View); err != nil {
		return fmt.Errorf("unknown topology view %q", t.View)
	}
	switch t.Kind {
	case "residential", "enterprise", "testbed":
		return nil
	case "custom":
		if len(t.Nodes) == 0 || len(t.Links) == 0 {
			return fmt.Errorf("custom topology needs nodes and links")
		}
		seen := map[string]bool{}
		for i, n := range t.Nodes {
			if n.Name == "" {
				return fmt.Errorf("custom topology: node %d has no name", i)
			}
			if seen[n.Name] {
				return fmt.Errorf("custom topology: duplicate node name %q", n.Name)
			}
			seen[n.Name] = true
		}
		for i, l := range t.Links {
			if !seen[l.From] || !seen[l.To] {
				return fmt.Errorf("custom topology: link %d references unknown node (%q -> %q)", i, l.From, l.To)
			}
			if l.From == l.To {
				return fmt.Errorf("custom topology: link %d is a self-link at %q", i, l.From)
			}
			if l.Capacity <= 0 {
				return fmt.Errorf("custom topology: link %d needs positive capacity", i)
			}
			if _, err := ParseTech(l.Tech); err != nil {
				return fmt.Errorf("custom topology: link %d: %w", i, err)
			}
		}
		for name, r := range t.SenseRadius {
			if _, err := ParseTech(name); err != nil {
				return fmt.Errorf("custom topology: sense_radius: %w", err)
			}
			if r <= 0 {
				return fmt.Errorf("custom topology: sense_radius[%s] must be positive, got %g", name, r)
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown topology kind %q", t.Kind)
	}
}

// ParseView maps a view name to the topology view.
func ParseView(name string) (topology.View, error) {
	switch name {
	case "", "hybrid":
		return topology.ViewHybrid, nil
	case "wifi", "wifi-single":
		return topology.ViewWiFiSingle, nil
	case "wifi-dual", "mwifi":
		return topology.ViewWiFiDual, nil
	default:
		return 0, fmt.Errorf("scenario: unknown topology view %q", name)
	}
}

// BuildView materializes the topology under an explicit view — the hook
// scheme sweeps use (core.Scheme.View decides the view per scheme). The
// seed fixes the channel realization of generated kinds; custom
// topologies are deterministic and ignore it.
func (t *TopologySpec) BuildView(seed int64, view topology.View) (*graph.Network, error) {
	if err := t.validate(); err != nil {
		return nil, err
	}
	switch t.Kind {
	case "residential":
		return topology.Residential(stats.NewRand(seed), topology.Config{}).Build(view).Network, nil
	case "enterprise":
		return topology.Enterprise(stats.NewRand(seed), topology.Config{}).Build(view).Network, nil
	case "testbed":
		return topology.Testbed(stats.NewRand(seed), topology.Config{}).Build(view).Network, nil
	}
	return t.buildCustom(view)
}

// buildCustom assembles a custom topology under a view: hybrid keeps the
// spec as written; the WiFi views mirror topology.Instance.Build — the
// single-channel view drops non-WiFi links, the dual view clones each
// WiFi link onto a second non-interfering channel with equal capacity.
func (t *TopologySpec) buildCustom(view topology.View) (*graph.Network, error) {
	var model graph.InterferenceModel
	if len(t.SenseRadius) > 0 {
		radii := map[graph.Tech]float64{}
		for name, r := range t.SenseRadius {
			tech, err := ParseTech(name)
			if err != nil {
				return nil, err
			}
			radii[tech] = r
		}
		// The dual-WiFi view clones links onto the second channel; unless
		// the spec says otherwise, that channel senses like the first.
		if r, ok := radii[graph.TechWiFi]; ok {
			if _, explicit := radii[graph.TechWiFi2]; !explicit {
				radii[graph.TechWiFi2] = r
			}
		}
		model = graph.RangeBased{SenseRadius: radii}
	}
	b := graph.NewBuilder(model)
	ids := map[string]graph.NodeID{}
	for _, n := range t.Nodes {
		techs := make([]graph.Tech, 0, len(n.Techs)+1)
		for _, name := range n.Techs {
			tech, err := ParseTech(name)
			if err != nil {
				return nil, err
			}
			switch view {
			case topology.ViewWiFiSingle:
				if tech != graph.TechWiFi {
					continue
				}
			case topology.ViewWiFiDual:
				if tech != graph.TechWiFi {
					continue
				}
				techs = append(techs, graph.TechWiFi2)
			}
			techs = append(techs, tech)
		}
		ids[n.Name] = b.AddNode(n.Name, n.X, n.Y, techs...)
	}
	for _, l := range t.Links {
		tech, err := ParseTech(l.Tech)
		if err != nil {
			return nil, err
		}
		if view != topology.ViewHybrid && tech != graph.TechWiFi {
			continue
		}
		add := func(tech graph.Tech) {
			b.AddLink(ids[l.From], ids[l.To], tech, l.Capacity)
			if !l.OneWay {
				b.AddLink(ids[l.To], ids[l.From], tech, l.Capacity)
			}
		}
		add(tech)
		if view == topology.ViewWiFiDual && tech == graph.TechWiFi {
			add(graph.TechWiFi2)
		}
	}
	return b.Build(), nil
}
