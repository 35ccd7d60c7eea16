package routing

// The pre-dense-workspace routing core, kept verbatim (modulo ref renames)
// as the reference implementation for the equivalence property tests: the
// map-based Dijkstra over (node, ingress-tech) states, string-keyed Yen
// with stable-sorted candidates, and the clone-per-vertex exploration
// tree. The dense implementation must reproduce its output bit for bit —
// same paths, same weights, same tie-breaks.

import (
	"container/heap"
	"math"
	"sort"

	"repro/internal/graph"
)

type refConstraints struct {
	bannedLinks map[graph.LinkID]bool
	bannedNodes map[graph.NodeID]bool
	ingress     graph.Tech
}

type refVstate struct {
	node graph.NodeID
	in   graph.Tech
}

type refPqItem struct {
	state refVstate
	dist  float64
	index int
}

type refPriorityQueue []*refPqItem

func (q refPriorityQueue) Len() int           { return len(q) }
func (q refPriorityQueue) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q refPriorityQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *refPriorityQueue) Push(x interface{}) {
	it := x.(*refPqItem)
	it.index = len(*q)
	*q = append(*q, it)
}
func (q *refPriorityQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}

func refDijkstra(net *graph.Network, src, dst graph.NodeID, cfg Config, cons refConstraints) (graph.Path, float64) {
	dist := make(map[refVstate]float64)
	prevLink := make(map[refVstate]graph.LinkID)
	prevState := make(map[refVstate]refVstate)
	hops := make(map[refVstate]int)

	pq := &refPriorityQueue{}
	start := refVstate{node: src, in: cons.ingress}
	dist[start] = 0
	hops[start] = 0
	heap.Push(pq, &refPqItem{state: start, dist: 0})

	visited := make(map[refVstate]bool)
	maxHops := cfg.maxHops()

	var best refVstate
	bestDist := math.Inf(1)

	for pq.Len() > 0 {
		it := heap.Pop(pq).(*refPqItem)
		s := it.state
		if visited[s] {
			continue
		}
		visited[s] = true
		if it.dist >= bestDist {
			break
		}
		if s.node == dst {
			best, bestDist = s, it.dist
			break
		}
		if hops[s] >= maxHops {
			continue
		}
		for _, id := range net.Out(s.node) {
			if cons.bannedLinks[id] {
				continue
			}
			l := net.Link(id)
			if l.Capacity <= 0 {
				continue
			}
			if cons.bannedNodes[l.To] {
				continue
			}
			w := l.D()
			if cfg.UseCSC && s.in != noTech && s.in == l.Tech {
				w += wns(net, s.node)
			}
			next := refVstate{node: l.To, in: l.Tech}
			nd := it.dist + w
			if old, ok := dist[next]; !ok || nd < old {
				dist[next] = nd
				prevLink[next] = id
				prevState[next] = s
				hops[next] = hops[s] + 1
				heap.Push(pq, &refPqItem{state: next, dist: nd})
			}
		}
	}

	if math.IsInf(bestDist, 1) {
		return nil, math.Inf(1)
	}
	var rev []graph.LinkID
	for s := best; s != start; s = prevState[s] {
		rev = append(rev, prevLink[s])
	}
	p := make(graph.Path, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		p = append(p, rev[i])
	}
	p = refRemoveNodeLoops(net, p)
	return p, PathWeight(net, p, cfg)
}

func refRemoveNodeLoops(net *graph.Network, p graph.Path) graph.Path {
	for {
		seen := make(map[graph.NodeID]int)
		loop := false
		if len(p) == 0 {
			return p
		}
		seen[net.Link(p[0]).From] = 0
		for i, id := range p {
			to := net.Link(id).To
			if j, ok := seen[to]; ok {
				np := make(graph.Path, 0, len(p)-(i-j+1))
				np = append(np, p[:j]...)
				np = append(np, p[i+1:]...)
				p = np
				loop = true
				break
			}
			seen[to] = i + 1
		}
		if !loop {
			return p
		}
	}
}

func refSinglePath(net *graph.Network, src, dst graph.NodeID, cfg Config) graph.Path {
	p, w := refDijkstra(net, src, dst, cfg, refConstraints{ingress: noTech})
	if math.IsInf(w, 1) {
		return nil
	}
	return p
}

func refNShortest(net *graph.Network, src, dst graph.NodeID, cfg Config) []graph.Path {
	if cfg.N <= 0 {
		return nil
	}
	first := refSinglePath(net, src, dst, cfg)
	if first == nil {
		return nil
	}
	accepted := []graph.Path{first}
	acceptedKeys := map[string]bool{PathKey(first): true}

	type candidate struct {
		path   graph.Path
		weight float64
	}
	var candidates []candidate
	candidateKeys := map[string]bool{}

	for len(accepted) < cfg.N {
		prev := accepted[len(accepted)-1]
		prevNodes, err := net.PathNodes(prev)
		if err != nil {
			break
		}
		for i := 0; i < len(prev); i++ {
			spurNode := prevNodes[i]
			root := prev[:i]

			cons := refConstraints{
				bannedLinks: make(map[graph.LinkID]bool),
				bannedNodes: make(map[graph.NodeID]bool),
				ingress:     noTech,
			}
			if i > 0 {
				cons.ingress = net.Link(prev[i-1]).Tech
			}
			for _, q := range accepted {
				if len(q) > i && samePrefix(q, prev, i) {
					cons.bannedLinks[q[i]] = true
				}
			}
			for _, v := range prevNodes[:i] {
				cons.bannedNodes[v] = true
			}

			spurCfg := cfg
			spurCfg.MaxHops = cfg.maxHops() - i
			if spurCfg.MaxHops <= 0 {
				continue
			}
			spur, w := refDijkstra(net, spurNode, dst, spurCfg, cons)
			if math.IsInf(w, 1) || len(spur) == 0 {
				continue
			}
			total := make(graph.Path, 0, len(root)+len(spur))
			total = append(total, root...)
			total = append(total, spur...)
			key := PathKey(total)
			if acceptedKeys[key] || candidateKeys[key] {
				continue
			}
			if err := net.ValidatePath(total, src, dst); err != nil {
				continue
			}
			candidateKeys[key] = true
			candidates = append(candidates, candidate{total, PathWeight(net, total, cfg)})
		}
		if len(candidates) == 0 {
			break
		}
		sort.SliceStable(candidates, func(a, b int) bool { return candidates[a].weight < candidates[b].weight })
		next := candidates[0]
		candidates = candidates[1:]
		delete(candidateKeys, PathKey(next.path))
		accepted = append(accepted, next.path)
		acceptedKeys[PathKey(next.path)] = true
	}
	return accepted
}

func refRatePath(net *graph.Network, p graph.Path) float64 {
	if len(p) == 0 {
		return 0
	}
	inPath := make(map[graph.LinkID]bool, len(p))
	for _, id := range p {
		inPath[id] = true
	}
	worst := 0.0
	for _, id := range p {
		var sum float64
		for _, i := range net.Interference(id) {
			if inPath[i] {
				l := net.Link(i)
				if l.Capacity <= 0 {
					return 0
				}
				sum += l.D()
			}
		}
		if sum > worst {
			worst = sum
		}
	}
	if worst == 0 {
		return 0
	}
	return 1 / worst
}

func refUpdate(net *graph.Network, p graph.Path) *graph.Network {
	r := refRatePath(net, p)
	if r <= 0 {
		return net.Clone()
	}
	return refUpdateAt(net, p, r)
}

// refUpdateAt is refUpdate's gather at a given rate r > 0: each affected
// link sums R(P)·d over its own interference row.
func refUpdateAt(net *graph.Network, p graph.Path, r float64) *graph.Network {
	out := net.Clone()
	inPath := make(map[graph.LinkID]bool, len(p))
	for _, id := range p {
		inPath[id] = true
	}
	affected := make(map[graph.LinkID]bool)
	for _, id := range p {
		for _, i := range net.Interference(id) {
			affected[i] = true
		}
	}
	for id := range affected {
		var consumed float64
		for _, i := range net.Interference(id) {
			if inPath[i] {
				consumed += float64(r * net.Link(i).D())
			}
		}
		frac := 1 - consumed
		if frac < 0 {
			frac = 0
		}
		out.Link(id).Capacity = net.Link(id).Capacity * frac
		if out.Link(id).Capacity < capacityEpsilon {
			out.Link(id).Capacity = 0
		}
	}
	return out
}

func refMultipath(net *graph.Network, src, dst graph.NodeID, cfg Config) Combination {
	var best Combination
	refExplore(net, src, dst, cfg, Combination{}, &best)
	return best
}

func refExplore(g *graph.Network, src, dst graph.NodeID, cfg Config, cur Combination, best *Combination) {
	paths := refNShortest(g, src, dst, cfg)
	leaf := true
	for _, p := range paths {
		r := refRatePath(g, p)
		if r <= capacityEpsilon {
			continue
		}
		leaf = false
		child := refUpdate(g, p)
		next := Combination{
			Paths: append(append([]graph.Path(nil), cur.Paths...), p),
			Rates: append(append([]float64(nil), cur.Rates...), r),
			Total: cur.Total + r,
		}
		refExplore(child, src, dst, cfg, next, best)
	}
	if leaf && cur.Total > best.Total {
		*best = cur
	}
}
