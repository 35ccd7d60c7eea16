package graph

// Build as it was before node-level interference — one pairwise predicate
// call per unordered link pair, recorded in a lower-triangle bitmap and
// each row filled by a strided column scan below the diagonal — kept
// (renamed) as the oracle for Build's interference rows
// (interference_test.go). The pairwise predicate is interferes below,
// spelled out from the model's Senses.

// ReferenceBuild exposes referenceBuild to the external test package,
// which imports topology (an internal test of graph cannot: topology
// imports graph).
var ReferenceBuild = (*Builder).referenceBuild

func (b *Builder) referenceBuild() *Network {
	net := &Network{
		Nodes: b.nodes,
		Links: b.links,
	}
	nn, nl := len(net.Nodes), len(net.Links)

	net.out = make([][]LinkID, nn)
	net.in = make([][]LinkID, nn)
	degOut := make([]int, nn)
	degIn := make([]int, nn)
	for i := range net.Links {
		degOut[net.Links[i].From]++
		degIn[net.Links[i].To]++
	}
	adjFlat := make([]LinkID, 2*nl)
	pos := 0
	for n := 0; n < nn; n++ {
		net.out[n] = adjFlat[pos : pos : pos+degOut[n]]
		pos += degOut[n]
		net.in[n] = adjFlat[pos : pos : pos+degIn[n]]
		pos += degIn[n]
	}
	for i := range net.Links {
		l := &net.Links[i]
		net.out[l.From] = append(net.out[l.From], l.ID)
		net.in[l.To] = append(net.in[l.To], l.ID)
	}

	// Interference: one interferes call per unordered pair, recorded in a
	// bitmap (bit i*nl+j for i<j) alongside per-link domain sizes, then an
	// ascending fill over the flat backing.
	net.interference = make([][]LinkID, nl)
	bits := make([]uint64, (nl*nl+63)/64)
	count := make([]int, nl)
	total := nl // every domain contains the link itself
	for i := 0; i < nl; i++ {
		count[i]++
		for j := i + 1; j < nl; j++ {
			if interferes(b.model, net, &net.Links[i], &net.Links[j]) {
				p := i*nl + j
				bits[p>>6] |= 1 << (p & 63)
				count[i]++
				count[j]++
				total += 2
			}
		}
	}
	intFlat := make([]LinkID, total)
	pos = 0
	for i := 0; i < nl; i++ {
		row := intFlat[pos : pos : pos+count[i]]
		for j := 0; j < i; j++ {
			p := j*nl + i
			if bits[p>>6]&(1<<(p&63)) != 0 {
				row = append(row, LinkID(j))
			}
		}
		row = append(row, LinkID(i))
		for j := i + 1; j < nl; j++ {
			p := i*nl + j
			if bits[p>>6]&(1<<(p&63)) != 0 {
				row = append(row, LinkID(j))
			}
		}
		net.interference[i] = row
		pos += count[i]
	}
	return net
}

// interferes is the link-pair relation the node-level model defines: the
// same technology, and a shared endpoint or an endpoint of one that senses
// an endpoint of the other.
func interferes(m InterferenceModel, net *Network, a, b *Link) bool {
	if a.Tech != b.Tech {
		return false
	}
	for _, u := range [2]NodeID{a.From, a.To} {
		for _, v := range [2]NodeID{b.From, b.To} {
			if u == v || m.Senses(net, a.Tech, u, v) {
				return true
			}
		}
	}
	return false
}
