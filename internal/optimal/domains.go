package optimal

import (
	"repro/internal/graph"
)

// Domains is a partition of a network into interference domains: the
// connected components of the relation "links interfere" ∪ "links share
// an endpoint node". Two links in the same maximal-clique-connected
// component of the conflict graph always land in the same domain (clique
// edges are interference edges), and merging across shared endpoints
// additionally pins every node's whole incident link set to one domain —
// which is what makes a domain a closed sub-emulation: MAC contention,
// forwarding, price earshot and flow paths never cross a domain
// boundary.
//
// The partition is capacity-independent: a failed (zero-capacity) link
// keeps its domain, so dynamic scenarios cannot migrate links between
// domains mid-run.
type Domains struct {
	// Num is the number of domains (at least 1, even for an empty
	// network).
	Num int
	// Link maps every LinkID to its domain index.
	Link []int
	// Node maps every NodeID to its domain index. Isolated nodes (no
	// incident links) belong to domain 0.
	Node []int
}

// InterferenceDomains decomposes a network into interference domains.
// Domain numbering is deterministic: domains are numbered by the first
// appearance of one of their links in LinkID order.
func InterferenceDomains(net *graph.Network) *Domains {
	nl := net.NumLinks()
	nn := net.NumNodes()
	d := &Domains{
		Link: make([]int, nl),
		Node: make([]int, nn),
	}
	// Union-find over links.
	parent := make([]int, nl)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	for l := 0; l < nl; l++ {
		for _, j := range net.Interference(graph.LinkID(l)) {
			union(l, int(j))
		}
	}
	for n := 0; n < nn; n++ {
		first := -1
		for _, l := range net.Out(graph.NodeID(n)) {
			if first < 0 {
				first = int(l)
			} else {
				union(first, int(l))
			}
		}
		for _, l := range net.In(graph.NodeID(n)) {
			if first < 0 {
				first = int(l)
			} else {
				union(first, int(l))
			}
		}
	}
	// Number the components by first appearance in LinkID order.
	num := map[int]int{}
	for l := 0; l < nl; l++ {
		r := find(l)
		id, ok := num[r]
		if !ok {
			id = len(num)
			num[r] = id
		}
		d.Link[l] = id
	}
	d.Num = len(num)
	if d.Num == 0 {
		d.Num = 1 // no links: one trivial domain holding every node
	}
	for n := 0; n < nn; n++ {
		first := -1
		if out := net.Out(graph.NodeID(n)); len(out) > 0 {
			first = int(out[0])
		} else if in := net.In(graph.NodeID(n)); len(in) > 0 {
			first = int(in[0])
		}
		if first >= 0 {
			d.Node[n] = d.Link[first]
		}
	}
	return d
}
