// Package graph implements the network model of the EMPoWER paper (§2):
// a multigraph G(V, {E_1..E_K}) where V is a set of nodes and E_k the set
// of directed links available with technology k. Each link l has a capacity
// c_l (Mbps) and cost d_l = 1/c_l; I_l denotes the interference domain of l,
// the set containing l and every link that cannot transmit simultaneously
// with l.
//
// The airtime of an unsaturated link carrying rate x_l is µ_l = x_l·d_l
// (eq. 1 of the paper); Lemma 1 gives the maximum common rate of links that
// all contend for one medium as Rmax = (Σ d_li)^-1.
package graph

import (
	"fmt"
	"math"
	"math/bits"
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

// InterferenceModel decides which pairs of links interfere. Two links
// interfere when they cannot transmit simultaneously (a transmission on one
// would collide at a receiver of the other, or carrier sensing blocks it).
type InterferenceModel interface {
	// Interferes reports whether links a and b cannot transmit
	// simultaneously. It must be symmetric and is never called with a == b.
	Interferes(net *Network, a, b *Link) bool
	// Name identifies the model in logs and docs.
	Name() string
}

// SingleDomainPerTech is the interference model used by the paper's
// simulations and examples (Figure 3 caption: "all links using the same
// medium interfere"): every pair of same-technology links interferes, and
// links of different technologies never do.
type SingleDomainPerTech struct{}

// Interferes implements InterferenceModel.
func (SingleDomainPerTech) Interferes(_ *Network, a, b *Link) bool { return a.Tech == b.Tech }

// Name implements InterferenceModel.
func (SingleDomainPerTech) Name() string { return "single-domain-per-tech" }

// RangeBased models carrier sensing with a sensing radius per technology:
// two same-technology links interfere when any endpoint of one is within
// the sensing range of any endpoint of the other. Links sharing an endpoint
// always interfere (a node has one radio per technology).
type RangeBased struct {
	// SenseRadius maps each technology to its carrier-sensing radius in
	// meters. Technologies absent from the map fall back to infinite radius
	// (single collision domain).
	SenseRadius map[Tech]float64
}

// Interferes implements InterferenceModel.
func (m RangeBased) Interferes(net *Network, a, b *Link) bool {
	if a.Tech != b.Tech {
		return false
	}
	if a.From == b.From || a.From == b.To || a.To == b.From || a.To == b.To {
		return true
	}
	r, ok := m.SenseRadius[a.Tech]
	if !ok {
		return true
	}
	// The four endpoint pairs spelled out: this runs inside Build's O(L²)
	// loop, so it must not allocate.
	return net.Distance(a.From, b.From) <= r ||
		net.Distance(a.From, b.To) <= r ||
		net.Distance(a.To, b.From) <= r ||
		net.Distance(a.To, b.To) <= r
}

// Name implements InterferenceModel.
func (m RangeBased) Name() string { return "range-based" }

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
// Network. Both structures are built in two passes (count, then fill) over
// single flat backing arrays: the §5 sweeps rebuild thousands of topologies
// and the per-list append growth plus sort.Slice dominated their allocation
// profile. The fill orders reproduce the original appended-then-sorted
// lists exactly: adjacency in link order, interference ascending by LinkID
// with the link itself included. Interference rows are symmetric
// (j ∈ I_i ⟺ i ∈ I_j) whatever the model answers, because each unordered
// pair is asked once; routing's scatter update relies on it.
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

	// Interference: one Interferes call per unordered pair, recorded in a
	// symmetric nl×⌈nl/64⌉ bit matrix — both (i,j) and (j,i), and the
	// diagonal, since every domain contains the link itself — then each
	// row read out ascending, a word at a time, over the flat backing.
	words := (nl + 63) / 64
	matrix := make([]uint64, nl*words)
	total := nl
	for i := 0; i < nl; i++ {
		rowI := matrix[i*words : (i+1)*words]
		rowI[i>>6] |= 1 << (i & 63)
		for j := i + 1; j < nl; j++ {
			if b.model.Interferes(net, &net.Links[i], &net.Links[j]) {
				rowI[j>>6] |= 1 << (j & 63)
				matrix[j*words+(i>>6)] |= 1 << (i & 63)
				total += 2
			}
		}
	}
	net.interference = make([][]LinkID, nl)
	intFlat := make([]LinkID, total)
	pos = 0
	for i := 0; i < nl; i++ {
		start := pos
		for w, word := range matrix[i*words : (i+1)*words] {
			for ; word != 0; word &= word - 1 {
				intFlat[pos] = LinkID(w<<6 + bits.TrailingZeros64(word))
				pos++
			}
		}
		net.interference[i] = intFlat[start:pos:pos]
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

// Rmax implements Lemma 1: the maximum rate simultaneously achievable by
// each of a set of links that all contend for the same medium,
// Rmax = (Σ d_li)^-1. Links with zero capacity make the result 0.
func Rmax(links []*Link) float64 {
	var sum float64
	for _, l := range links {
		d := l.D()
		if math.IsInf(d, 1) {
			return 0
		}
		sum += d
	}
	if sum == 0 {
		return math.Inf(1)
	}
	return 1 / sum
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
