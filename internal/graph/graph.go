// Package graph implements the network model of the EMPoWER paper (§2):
// a multigraph G(V, {E_1..E_K}) where V is a set of nodes and E_k the set
// of directed links available with technology k. Each link l has a capacity
// c_l (Mbps) and cost d_l = 1/c_l; I_l denotes the interference domain of l,
// the set containing l and every link that cannot transmit simultaneously
// with l.
//
// The airtime of an unsaturated link carrying rate x_l is µ_l = x_l·d_l
// (eq. 1 of the paper); Lemma 1 gives the maximum common rate of links that
// all contend for one medium as Rmax = (Σ d_li)^-1, which routing.RatePath
// applies per interference domain of a path.
package graph

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Tech identifies a link technology (a medium), e.g. PLC, a WiFi channel,
// or Ethernet. Technologies are small dense integers so they can index
// slices.
type Tech int

// Conventional technologies used across the repository. Additional
// technologies (e.g. a second WiFi channel) are just further Tech values.
const (
	TechPLC   Tech = 0
	TechWiFi  Tech = 1
	TechWiFi2 Tech = 2
)

// String implements fmt.Stringer.
func (t Tech) String() string {
	switch t {
	case TechPLC:
		return "PLC"
	case TechWiFi:
		return "WiFi"
	case TechWiFi2:
		return "WiFi2"
	default:
		return fmt.Sprintf("Tech(%d)", int(t))
	}
}

// NodeID identifies a node in the multigraph.
type NodeID int

// LinkID identifies a directed link in the multigraph. LinkIDs are dense:
// they index Network.Links.
type LinkID int

// Node is a network station. Position is in meters; Techs lists the
// technologies (interfaces) the node is equipped with.
type Node struct {
	ID    NodeID
	Name  string
	X, Y  float64
	Techs []Tech
}

// HasTech reports whether the node has an interface of technology t.
func (n *Node) HasTech(t Tech) bool {
	for _, k := range n.Techs {
		if k == t {
			return true
		}
	}
	return false
}

// Link is a directed communication opportunity between two nodes over one
// technology. Capacity is in Mbps; a link exists only with Capacity > 0.
type Link struct {
	ID       LinkID
	From, To NodeID
	Tech     Tech
	Capacity float64 // Mbps
}

// D returns d_l = 1/c_l, the per-bit airtime cost of the link
// (seconds per megabit). D of a zero-capacity link is +Inf.
func (l *Link) D() float64 {
	if l.Capacity <= 0 {
		return math.Inf(1)
	}
	return 1 / l.Capacity
}

// Path is a loop-free sequence of links joining a source to a destination.
type Path []LinkID

// Network is the multigraph. It is the central data structure of the
// reproduction: routing, congestion control and the simulators all operate
// on it. A Network is mutable (capacities can be updated) but its topology
// (nodes and their tech sets, link endpoints and technologies,
// interference structure) is fixed after Build. Caches rely on that: the
// MAC's interference cells and the emulation's price-listener lists are
// computed once per run and never invalidated.
type Network struct {
	Nodes []Node
	Links []Link

	// interference[l] lists the links in I_l, including l itself.
	interference [][]LinkID

	// out[n] lists the egress links of node n.
	out [][]LinkID
	// in[n] lists the ingress links of node n.
	in [][]LinkID
}

// InterferenceModel is the node-level protocol model of §5.1 (after Jain,
// Padhye, Padmanabhan and Qiu, MobiCom 2003): two links interfere when
// they use the same technology and either share an endpoint (a node has
// one radio per technology) or an endpoint of one senses an endpoint of
// the other.
type InterferenceModel interface {
	// Senses reports whether nodes u and v hear each other's
	// technology-t transmissions (carrier sensing, or one collision
	// domain). It must be symmetric; Build asks it once per unordered pair
	// u ≠ v of nodes carrying technology-t links.
	Senses(net *Network, t Tech, u, v NodeID) bool
}

// SingleDomainPerTech is the interference model used by the paper's
// simulations and examples (Figure 3 caption: "all links using the same
// medium interfere"): every pair of same-technology links interferes, and
// links of different technologies never do.
type SingleDomainPerTech struct{}

// Senses implements InterferenceModel.
func (SingleDomainPerTech) Senses(*Network, Tech, NodeID, NodeID) bool { return true }

// RangeBased models carrier sensing with a sensing radius per technology:
// two nodes sense each other within the radius, so two same-technology
// links interfere when any endpoint of one is within the sensing range of
// any endpoint of the other.
type RangeBased struct {
	// SenseRadius maps each technology to its carrier-sensing radius in
	// meters. Technologies absent from the map fall back to infinite radius
	// (single collision domain).
	SenseRadius map[Tech]float64
}

// Senses implements InterferenceModel.
func (m RangeBased) Senses(net *Network, t Tech, u, v NodeID) bool {
	r, ok := m.SenseRadius[t]
	return !ok || net.Distance(u, v) <= r
}

// Builder accumulates nodes and links and produces an immutable-topology
// Network.
type Builder struct {
	nodes []Node
	links []Link
	model InterferenceModel
}

// NewBuilder returns a Builder using the given interference model
// (SingleDomainPerTech if nil).
func NewBuilder(model InterferenceModel) *Builder {
	if model == nil {
		model = SingleDomainPerTech{}
	}
	return &Builder{model: model}
}

// internedTechs maps a bitmask over the conventional technologies
// (PLC/WiFi/WiFi2) to its canonical ascending tech list. Node tech sets
// are immutable after Build, so all nodes with the same interfaces share
// one backing array — sweeps build thousands of topologies and the
// per-node slice was a measurable share of their allocations.
var internedTechs = [8][]Tech{
	1: {TechPLC},
	2: {TechWiFi},
	3: {TechPLC, TechWiFi},
	4: {TechWiFi2},
	5: {TechPLC, TechWiFi2},
	6: {TechWiFi, TechWiFi2},
	7: {TechPLC, TechWiFi, TechWiFi2},
}

// AddNode adds a node and returns its ID.
func (b *Builder) AddNode(name string, x, y float64, techs ...Tech) NodeID {
	id := NodeID(len(b.nodes))
	mask, ok := 0, true
	for _, t := range techs {
		if t < 0 || t > TechWiFi2 {
			ok = false
			break
		}
		mask |= 1 << t
	}
	var ts []Tech
	if ok && len(internedTechs[mask]) == len(techs) {
		ts = internedTechs[mask]
	} else {
		// Unconventional technologies or duplicates: durable sorted copy.
		ts = append([]Tech(nil), techs...)
		for i := 1; i < len(ts); i++ {
			for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
				ts[j], ts[j-1] = ts[j-1], ts[j]
			}
		}
	}
	b.nodes = append(b.nodes, Node{ID: id, Name: name, X: x, Y: y, Techs: ts})
	return id
}

// AddLink adds a directed link and returns its ID. It panics on invalid
// endpoints, which are programming errors.
func (b *Builder) AddLink(from, to NodeID, tech Tech, capacity float64) LinkID {
	if from == to {
		panic(fmt.Sprintf("graph: self-link at node %d", from))
	}
	if int(from) >= len(b.nodes) || int(to) >= len(b.nodes) || from < 0 || to < 0 {
		panic(fmt.Sprintf("graph: link endpoints %d->%d out of range", from, to))
	}
	id := LinkID(len(b.links))
	b.links = append(b.links, Link{ID: id, From: from, To: to, Tech: tech, Capacity: capacity})
	return id
}

// AddDuplex adds the two directed links of a bidirectional connection with
// equal capacities and returns both IDs.
func (b *Builder) AddDuplex(u, v NodeID, tech Tech, capacity float64) (LinkID, LinkID) {
	return b.AddLink(u, v, tech, capacity), b.AddLink(v, u, tech, capacity)
}

// Build computes the interference domains and adjacency and returns the
// Network, each over one flat backing array: the §5 sweeps rebuild
// thousands of topologies. Adjacency lists follow link order; interference
// rows are ascending by LinkID with the link itself included. Rows are
// symmetric (j ∈ I_i ⟺ i ∈ I_j) whatever the model answers, because each
// unordered node pair is asked once and recorded both ways; routing's
// scatter update relies on it.
func (b *Builder) Build() *Network {
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

	// Interference, one technology at a time: inc[w] is the bitset of the
	// technology's links touching node w, and sense[u] the node bitset of
	// u and the nodes u senses. A link's row is the OR of inc over the
	// nodes its endpoints sense, so links whose endpoints sense the same
	// node set share a row: each distinct set (a class) is expanded once
	// and read out ascending, a word at a time, over one flat backing.
	words, nodeWords := (nl+63)/64, (nn+63)/64
	n, m := nn*(words+nodeWords), nl*nodeWords
	scratch := make([]uint64, n+m+nl*words)
	inc, sense := scratch[:nn*words], scratch[nn*words:n]
	// Per class, at most one per link: sensed-node set, link bitset.
	masks, rows := scratch[n:n:n+m], scratch[n+m:n+m]
	class := make([]int, nl)
	members := make([]NodeID, 0, nn)
	var techs []Tech
	for _, l := range net.Links {
		if !slices.Contains(techs, l.Tech) {
			techs = append(techs, l.Tech)
		}
	}
	total := 0
	for _, t := range techs {
		clear(inc)
		clear(sense)
		members = members[:0]
		for i, l := range net.Links {
			if l.Tech != t {
				continue
			}
			for _, w := range [2]int{int(l.From), int(l.To)} {
				inc[w*words+i>>6] |= 1 << (i & 63)
				if self := &sense[w*nodeWords+w>>6]; *self&(1<<(w&63)) == 0 {
					*self |= 1 << (w & 63)
					members = append(members, NodeID(w))
				}
			}
		}
		for i, u := range members {
			for _, v := range members[i+1:] {
				if b.model.Senses(net, t, u, v) {
					sense[int(u)*nodeWords+int(v)>>6] |= 1 << (v & 63)
					sense[int(v)*nodeWords+int(u)>>6] |= 1 << (u & 63)
				}
			}
		}
		first := len(masks)
		for i, l := range net.Links {
			if l.Tech != t {
				continue
			}
			k := len(masks)
			for w := 0; w < nodeWords; w++ {
				masks = append(masks, sense[int(l.From)*nodeWords+w]|sense[int(l.To)*nodeWords+w])
			}
			c := first
			for c < k && !slices.Equal(masks[c:c+nodeWords], masks[k:]) {
				c += nodeWords
			}
			if class[i] = c / nodeWords; c < k {
				masks = masks[:k]
				continue
			}
			rows = append(rows, make([]uint64, words)...)
			row := rows[len(rows)-words:]
			for w, word := range masks[k:] {
				for ; word != 0; word &= word - 1 {
					for x, y := range inc[(w<<6+bits.TrailingZeros64(word))*words:][:words] {
						row[x] |= y
					}
				}
			}
			for _, word := range row {
				total += bits.OnesCount64(word)
			}
		}
	}
	flat := make([]LinkID, 0, total)
	shared := make([][]LinkID, len(rows)/max(words, 1))
	for c := range shared {
		start := len(flat)
		for w, word := range rows[c*words:][:words] {
			for ; word != 0; word &= word - 1 {
				flat = append(flat, LinkID(w<<6+bits.TrailingZeros64(word)))
			}
		}
		shared[c] = flat[start:len(flat):len(flat)]
	}
	net.interference = make([][]LinkID, nl)
	for i, c := range class {
		net.interference[i] = shared[c]
	}
	return net
}

// Clone returns a deep copy of the network sharing no mutable state with
// the receiver. The interference structure is copied by reference
// internally since topology is immutable; capacities are copied by value.
func (n *Network) Clone() *Network {
	c := &Network{
		Nodes:        n.Nodes, // nodes are immutable after Build
		Links:        append([]Link(nil), n.Links...),
		interference: n.interference,
		out:          n.out,
		in:           n.in,
	}
	return c
}

// Link returns the link with the given ID.
func (n *Network) Link(id LinkID) *Link { return &n.Links[id] }

// Node returns the node with the given ID.
func (n *Network) Node(id NodeID) *Node { return &n.Nodes[id] }

// NumNodes returns the number of nodes.
func (n *Network) NumNodes() int { return len(n.Nodes) }

// NumLinks returns the number of links.
func (n *Network) NumLinks() int { return len(n.Links) }

// Out returns the egress links of node id. The returned slice must not be
// modified.
func (n *Network) Out(id NodeID) []LinkID { return n.out[id] }

// In returns the ingress links of node id. The returned slice must not be
// modified.
func (n *Network) In(id NodeID) []LinkID { return n.in[id] }

// Interference returns I_l: the link itself plus all links that cannot
// transmit simultaneously with it. The returned slice must not be modified.
func (n *Network) Interference(l LinkID) []LinkID { return n.interference[l] }

// Distance returns the Euclidean distance in meters between two nodes.
func (n *Network) Distance(a, b NodeID) float64 {
	dx := n.Nodes[a].X - n.Nodes[b].X
	dy := n.Nodes[a].Y - n.Nodes[b].Y
	return math.Hypot(dx, dy)
}

// FindLink returns the first link from -> to using tech with positive
// capacity, or -1.
func (n *Network) FindLink(from, to NodeID, tech Tech) LinkID {
	for _, id := range n.out[from] {
		l := &n.Links[id]
		if l.To == to && l.Tech == tech && l.Capacity > 0 {
			return id
		}
	}
	return -1
}

// PathNodes returns the node sequence visited by a path, starting with the
// source. It returns an error if the links do not form a connected
// chain.
func (n *Network) PathNodes(p Path) ([]NodeID, error) {
	if len(p) == 0 {
		return nil, fmt.Errorf("graph: empty path")
	}
	nodes := []NodeID{n.Links[p[0]].From}
	cur := n.Links[p[0]].From
	for _, id := range p {
		l := &n.Links[id]
		if l.From != cur {
			return nil, fmt.Errorf("graph: path broken at link %d (%d->%d), expected from %d", id, l.From, l.To, cur)
		}
		cur = l.To
		nodes = append(nodes, cur)
	}
	return nodes, nil
}

// ValidatePath checks that p is a loop-free path from src to dst.
func (n *Network) ValidatePath(p Path, src, dst NodeID) error {
	nodes, err := n.PathNodes(p)
	if err != nil {
		return err
	}
	if nodes[0] != src {
		return fmt.Errorf("graph: path starts at %d, want %d", nodes[0], src)
	}
	if nodes[len(nodes)-1] != dst {
		return fmt.Errorf("graph: path ends at %d, want %d", nodes[len(nodes)-1], dst)
	}
	seen := make(map[NodeID]bool, len(nodes))
	for _, v := range nodes {
		if seen[v] {
			return fmt.Errorf("graph: path visits node %d twice", v)
		}
		seen[v] = true
	}
	return nil
}

// PathString renders a path as "a -[WiFi 30.0]-> b -[PLC 10.0]-> c" for
// logs and examples.
func (n *Network) PathString(p Path) string {
	if len(p) == 0 {
		return "<empty>"
	}
	s := n.Nodes[n.Links[p[0]].From].Name
	if s == "" {
		s = fmt.Sprintf("n%d", n.Links[p[0]].From)
	}
	for _, id := range p {
		l := &n.Links[id]
		toName := n.Nodes[l.To].Name
		if toName == "" {
			toName = fmt.Sprintf("n%d", l.To)
		}
		s += fmt.Sprintf(" -[%s %.1f]-> %s", l.Tech, l.Capacity, toName)
	}
	return s
}
