// Package routing implements the EMPoWER routing algorithms (paper §3):
//
//   - the single-path procedure: Dijkstra's algorithm over the virtual
//     graph of network interfaces with link metric W(l) = d_l = 1/c_l and a
//     channel-switching cost (CSC) that favors technology-alternating paths
//     (§3.1, following Yang et al.);
//   - an n-shortest-path generalization (Yen's algorithm) used as the
//     building block of the multipath procedure;
//   - the multipath procedure (§3.2): the maximum per-path rate R(P) under
//     intra-path interference, the residual-capacity procedure update(P,G),
//     and the exploration tree that returns the combination of paths with
//     the highest total achievable rate.
package routing

import (
	"math"

	"repro/internal/graph"
)

// Config holds the routing-protocol parameters.
type Config struct {
	// N is the number of shortest paths computed by n-shortest at every
	// tree vertex. The paper uses N = 5.
	N int
	// UseCSC enables the channel-switching cost. The paper disables it
	// (CSC = 0) for single-technology (WiFi-only) scenarios.
	UseCSC bool
	// MaxHops bounds the path length in links; 0 means the wire-format
	// limit of 6 (the EMPoWER header stores at most 6 hops).
	MaxHops int
}

// DefaultConfig returns the configuration used throughout the paper's
// evaluation: n = 5, CSC on, 6-hop routes. The exploration tree has no
// depth bound: every edge consumes capacity, so every branch ends (the
// paper reports depths of 1–3 in practice).
func DefaultConfig() Config {
	return Config{N: 5, UseCSC: true, MaxHops: 6}
}

func (c Config) maxHops() int {
	if c.MaxHops <= 0 {
		return 6
	}
	return c.MaxHops
}

// wns returns the non-switching channel cost of node u:
// w_ns(u) = min_{l ∈ L(u)} d_l over the positive-capacity egress links of
// u (paper §3.1). The switching cost w_s(u) is 0 by construction. If u has
// no live egress links the cost is 0 (such nodes cannot be intermediate
// anyway).
func wns(net *graph.Network, u graph.NodeID) float64 {
	best := math.Inf(1)
	for _, id := range net.Out(u) {
		l := net.Link(id)
		if l.Capacity > 0 && l.D() < best {
			best = l.D()
		}
	}
	if math.IsInf(best, 1) {
		return 0
	}
	return best
}

// PathWeight returns the routing weight of a path: the sum of the link
// metrics W(l) = d_l plus the channel-switching costs of the intermediate
// nodes (w_ns when two contiguous links use the same technology, w_s = 0
// otherwise). Dead links make the weight +Inf.
func PathWeight(net *graph.Network, p graph.Path, cfg Config) float64 {
	var w float64
	for i, id := range p {
		l := net.Link(id)
		if l.Capacity <= 0 {
			return math.Inf(1)
		}
		w += l.D()
		if cfg.UseCSC && i > 0 {
			prev := net.Link(p[i-1])
			if prev.Tech == l.Tech {
				w += wns(net, l.From)
			}
		}
	}
	return w
}

// pathWeightView is PathWeight under a capacity overlay, with the per-node
// w_ns precomputed into the workspace (ws.computeWns must have run for the
// same overlay). Values and operation order match PathWeight exactly.
func pathWeightView(ws *workspace, capv []float64, p graph.Path, cfg Config) float64 {
	var w float64
	for i, id := range p {
		c := capv[id]
		if c <= 0 {
			return math.Inf(1)
		}
		w += 1 / c
		if cfg.UseCSC && i > 0 {
			l := ws.net.Link(id)
			if ws.net.Link(p[i-1]).Tech == l.Tech {
				w += ws.wns[l.From]
			}
		}
	}
	return w
}
