package routing

import (
	"math"

	"repro/internal/graph"
)

// noTech marks the absence of an ingress technology (the path source).
const noTech graph.Tech = -1

// dijkstra runs the single-path procedure of §3.1 on the virtual graph of
// interfaces from src to dst under the capacity overlay capv. It returns
// the best path and its weight, or (nil, +Inf) if dst is unreachable. The
// returned path aliases ws.pathBuf; callers copy it before the next search.
//
// States are (node, ingress technology) pairs so that the channel-switching
// cost — which depends on the ingress and egress technologies at each
// intermediate node — is Markovian and Dijkstra applies. Link weights and
// CSCs are non-negative, so the isotonicity requirement of §3.1 holds.
// States are flattened to node*stride + tech + 1 so the distance, parent
// and visited sets are epoch-stamped slices rather than maps; together with
// a heap that replicates container/heap's sift rules this pops states in
// exactly the reference implementation's order, ties included.
//
// When useBans is set, links and nodes whose ban marks carry the current
// ban epoch are excluded (Yen spur searches); ingress is the technology of
// the link entering the search source (noTech at the true path source).
func (ws *workspace) dijkstra(capv []float64, src, dst graph.NodeID, cfg Config, ingress graph.Tech, useBans bool) (graph.Path, float64) {
	net := ws.net
	ws.searchEpoch++
	ep := ws.searchEpoch
	maxHops := int32(cfg.maxHops())
	stride := ws.stride

	start := int32(int(src)*stride + int(ingress) + 1)
	ws.dist[start] = 0
	ws.distMark[start] = ep
	ws.hops[start] = 0
	ws.prevState[start] = -1
	h := ws.heap[:0]
	h = heapPushState(h, heapState{dist: 0, state: start})

	best := int32(-1)
	bestDist := math.Inf(1)

	for len(h) > 0 {
		var e heapState
		h, e = heapPopState(h)
		s := e.state
		if ws.visMark[s] == ep {
			continue
		}
		ws.visMark[s] = ep
		if e.dist >= bestDist {
			break // every remaining state is at least as far
		}
		node := graph.NodeID(int(s) / stride)
		if node == dst {
			best, bestDist = s, e.dist
			break
		}
		if ws.hops[s] >= maxHops {
			continue
		}
		in := graph.Tech(int(s)%stride - 1)
		for _, id := range net.Out(node) {
			if useBans && ws.banLinkMark[id] == ws.banEpoch {
				continue
			}
			c := capv[id]
			if c <= 0 {
				continue
			}
			l := net.Link(id)
			if useBans && ws.banNodeMark[l.To] == ws.banEpoch {
				continue
			}
			w := 1 / c
			if cfg.UseCSC && in != noTech && in == l.Tech {
				w += ws.wns[node]
			}
			next := int32(int(l.To)*stride + int(l.Tech) + 1)
			nd := e.dist + w
			if ws.distMark[next] != ep || nd < ws.dist[next] {
				ws.dist[next] = nd
				ws.distMark[next] = ep
				ws.prevLink[next] = int32(id)
				ws.prevState[next] = s
				ws.hops[next] = ws.hops[s] + 1
				h = heapPushState(h, heapState{dist: nd, state: next})
			}
		}
	}
	ws.heap = h[:0]

	if best < 0 {
		return nil, math.Inf(1)
	}
	// Reconstruct backwards into the reusable buffer, then reverse.
	p := ws.pathBuf[:0]
	for s := best; s != start; s = ws.prevState[s] {
		p = append(p, graph.LinkID(ws.prevLink[s]))
	}
	for i, j := 0, len(p)-1; i < j; i, j = i+1, j-1 {
		p[i], p[j] = p[j], p[i]
	}
	ws.pathBuf = p
	p = ws.removeNodeLoops(p)
	ws.pathBuf = p
	return p, pathWeightView(ws, capv, p, cfg)
}

// SinglePath runs the single-path procedure of §3.1: the shortest path on
// the virtual interface graph from src to dst under the EMPoWER link metric
// and CSC. It returns nil if dst is unreachable.
func SinglePath(net *graph.Network, src, dst graph.NodeID, cfg Config) graph.Path {
	ws := getWS(net)
	ws.prepareSearch()
	ws.computeWns(ws.capRoot)
	p, w := ws.dijkstra(ws.capRoot, src, dst, cfg, noTech, false)
	if math.IsInf(w, 1) {
		putWS(ws)
		return nil
	}
	out := make(graph.Path, len(p))
	copy(out, p)
	putWS(ws)
	return out
}
