package optimal

import (
	"sort"

	"repro/internal/graph"
)

// ConflictGraph is the undirected graph whose vertices are the network
// links and whose edges connect pairs of links that cannot transmit
// simultaneously.
type ConflictGraph struct {
	n   int
	adj [][]bool
}

// NewConflictGraph derives the conflict graph of a network from its
// interference domains. Zero-capacity links become isolated vertices.
func NewConflictGraph(net *graph.Network) *ConflictGraph {
	n := net.NumLinks()
	cg := &ConflictGraph{n: n, adj: make([][]bool, n)}
	for i := 0; i < n; i++ {
		cg.adj[i] = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		if net.Link(graph.LinkID(i)).Capacity <= 0 {
			continue
		}
		for _, j := range net.Interference(graph.LinkID(i)) {
			if int(j) == i || net.Link(j).Capacity <= 0 {
				continue
			}
			cg.adj[i][j] = true
			cg.adj[j][i] = true
		}
	}
	return cg
}

// MaximalCliques enumerates all maximal cliques using Bron–Kerbosch with
// pivoting. Isolated vertices yield singleton cliques. The result is
// deterministic (cliques sorted by their sorted member lists).
func (cg *ConflictGraph) MaximalCliques() [][]int {
	var cliques [][]int
	all := make([]int, cg.n)
	for i := range all {
		all[i] = i
	}
	var bk func(r, p, x []int)
	bk = func(r, p, x []int) {
		if len(p) == 0 && len(x) == 0 {
			cliques = append(cliques, append([]int(nil), r...))
			return
		}
		// Choose the pivot with the most neighbors in p.
		pivot, best := -1, -1
		for _, u := range append(append([]int(nil), p...), x...) {
			cnt := 0
			for _, v := range p {
				if cg.adj[u][v] {
					cnt++
				}
			}
			if cnt > best {
				best, pivot = cnt, u
			}
		}
		var candidates []int
		for _, v := range p {
			if pivot < 0 || !cg.adj[pivot][v] {
				candidates = append(candidates, v)
			}
		}
		for _, v := range candidates {
			var np, nx []int
			for _, w := range p {
				if cg.adj[v][w] {
					np = append(np, w)
				}
			}
			for _, w := range x {
				if cg.adj[v][w] {
					nx = append(nx, w)
				}
			}
			bk(append(r, v), np, nx)
			// Move v from p to x.
			for i, w := range p {
				if w == v {
					p = append(p[:i], p[i+1:]...)
					break
				}
			}
			x = append(x, v)
		}
	}
	bk(nil, all, nil)
	for _, c := range cliques {
		sort.Ints(c)
	}
	sort.Slice(cliques, func(i, j int) bool {
		a, b := cliques[i], cliques[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
	return cliques
}

// MaxWeightIndependentSet returns an independent set maximizing the sum of
// the given non-negative vertex weights. Vertices with zero weight are
// ignored. For graphs with at most exactLimit weighted vertices the result
// is exact (branch and bound); beyond that a greedy heuristic is used.
func (cg *ConflictGraph) MaxWeightIndependentSet(weights []float64, exactLimit int) []int {
	// Collect the weighted vertices.
	var verts []int
	for i := 0; i < cg.n && i < len(weights); i++ {
		if weights[i] > 0 {
			verts = append(verts, i)
		}
	}
	if len(verts) == 0 {
		return nil
	}
	if exactLimit <= 0 {
		exactLimit = 24
	}
	if len(verts) > exactLimit {
		return cg.greedyMWIS(verts, weights)
	}
	// Branch and bound over verts sorted by decreasing weight.
	sort.Slice(verts, func(i, j int) bool { return weights[verts[i]] > weights[verts[j]] })
	bestW := 0.0
	var best, cur []int
	var rec func(idx int, curW, remW float64)
	rec = func(idx int, curW, remW float64) {
		if curW > bestW {
			bestW = curW
			best = append(best[:0], cur...)
		}
		if idx >= len(verts) || curW+remW <= bestW {
			return
		}
		v := verts[idx]
		// Remaining weight after this vertex.
		nextRem := remW - weights[v]
		// Branch 1: include v if compatible.
		ok := true
		for _, u := range cur {
			if cg.adj[u][v] {
				ok = false
				break
			}
		}
		if ok {
			cur = append(cur, v)
			rec(idx+1, curW+weights[v], nextRem)
			cur = cur[:len(cur)-1]
		}
		// Branch 2: exclude v.
		rec(idx+1, curW, nextRem)
	}
	var total float64
	for _, v := range verts {
		total += weights[v]
	}
	rec(0, 0, total)
	sort.Ints(best)
	return best
}

func (cg *ConflictGraph) greedyMWIS(verts []int, weights []float64) []int {
	sorted := append([]int(nil), verts...)
	sort.Slice(sorted, func(i, j int) bool { return weights[sorted[i]] > weights[sorted[j]] })
	var out []int
	for _, v := range sorted {
		ok := true
		for _, u := range out {
			if cg.adj[u][v] {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}
