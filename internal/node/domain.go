package node

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/linkest"
	"repro/internal/mac"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/wire"
)

// dataPkt is the pooled in-flight form of a data frame: the wire frame
// plus the opaque transport metadata that, on the real testbed, rides in
// the Ethernet encapsulation. It is owned by exactly one holder at a
// time (a flow building it, a MAC queue, an agent forwarding it, a sink
// consuming it) and returns to its domain's free list when consumed
// or dropped.
type dataPkt struct {
	frame wire.DataFrame
	meta  interface{}
}

// Domain is one interference domain's closed emulation: its own engine,
// MAC, RNG, free lists and the agents of the nodes it owns. Net is the
// emulation's network, shared by every domain — full shape, so global
// node and link IDs stay valid — of which a domain writes and reads live
// only the links it owns. Agents is indexed by global NodeID with nil
// entries for foreign nodes. Nothing a domain does at runtime touches
// another domain (see NewEmulation), so Run may advance them one after
// another in any order.
type Domain struct {
	Engine *sim.Engine
	Net    *graph.Network
	MAC    *mac.MAC
	Agents []*Agent

	cfg   Config
	rng   *rand.Rand
	flows []*Flow
	// initCap is the Emulation's construction-time capacity slice
	// (Emulation.InitCapacity); a domain reads it for foreign links.
	initCap []float64

	// capEpoch[l] counts link l's capacity changes — the invariant
	// checker's witness that a link stayed dead (or alive) across a
	// whole sampling interval.
	capEpoch []uint32

	// Intrinsic observability counters, bumped on the domain's event loop
	// and summed over domains at barriers (see node/obs.go).
	estResets int
	reroutes  int
	failovers int

	// numTechs bounds the dense per-technology agent state.
	numTechs int

	// Free lists for the steady-state packet path; see the package
	// comment for the ownership rule.
	pkts   freeList[dataPkt]
	acks   freeList[wire.AckFrame]
	hops   freeList[ackHop]
	prices freeList[priceDelivery]
	holds  freeList[heldFrame]

	// priceBuf is the scratch encode buffer of broadcastPrice.
	priceBuf []byte
	// listeners[from*numTechs+tech] memoises broadcastPrice's receiver
	// list (nil until first use, in ascending agent order). It depends
	// only on what graph.Network fixes at Build — node tech sets, link
	// endpoints and technologies, interference rows — never on capacity.
	listeners [][]*Agent
}

// freeList is a LIFO stack of recycled values: get pops one (or
// allocates when empty), put pushes one back. Each free* method below
// applies its type's reset rule before put.
type freeList[T any] []*T

func (l *freeList[T]) get() *T {
	if n := len(*l); n > 0 {
		v := (*l)[n-1]
		*l = (*l)[:n-1]
		return v
	}
	return new(T)
}

func (l *freeList[T]) put(v *T) { *l = append(*l, v) }

// freePkt returns a consumed or dropped frame to the pool. The frame is
// cleared here so a reused slot never leaks a stale q_r, route or
// sequence number into the next packet.
func (e *Domain) freePkt(p *dataPkt) {
	p.frame = wire.DataFrame{}
	p.meta = nil
	e.pkts.put(p)
}

func (e *Domain) freeAck(a *wire.AckFrame) {
	routes := a.Routes[:0] // keep the backing array
	*a = wire.AckFrame{Routes: routes}
	e.acks.put(a)
}

func (e *Domain) freeAckHop(h *ackHop) {
	*h = ackHop{}
	e.hops.put(h)
}

func (e *Domain) freePriceDelivery(pd *priceDelivery) {
	pd.agent = nil
	e.prices.put(pd)
}

func (e *Domain) freeHeldFrame(h *heldFrame) {
	*h = heldFrame{}
	e.holds.put(h)
}

// newDomain builds the closed emulation of the nodes that nodeDom maps to
// domain d.
func newDomain(net *graph.Network, cfg Config, seed int64, nodeDom []int, d int, initCap []float64) *Domain {
	e := &Domain{
		Engine:   &sim.Engine{},
		Net:      net,
		cfg:      cfg,
		initCap:  initCap,
		capEpoch: make([]uint32, net.NumLinks()),
	}
	e.numTechs = 1
	for l := 0; l < net.NumLinks(); l++ {
		if t := int(net.Link(graph.LinkID(l)).Tech); t+1 > e.numTechs {
			e.numTechs = t + 1
		}
	}
	for i := 0; i < net.NumNodes(); i++ {
		for _, t := range net.Node(graph.NodeID(i)).Techs {
			if int(t)+1 > e.numTechs {
				e.numTechs = int(t) + 1
			}
		}
	}
	e.MAC = mac.New(e.Engine, net, stats.NewRand(seed), mac.Options{})
	e.rng = e.MAC.Rand()
	e.MAC.Deliver = e.deliver
	e.MAC.Drop = e.macDrop
	if cfg.Recorder > 0 {
		rec := obs.NewRecorder(cfg.Recorder)
		e.Engine.SetRecorder(rec)
		e.MAC.SetRecorder(rec)
	}
	e.Agents = make([]*Agent, net.NumNodes())
	e.listeners = make([][]*Agent, net.NumNodes()*e.numTechs)
	for i := range e.Agents {
		if nodeDom[i] == d {
			e.Agents[i] = newAgent(e, graph.NodeID(i))
		}
	}
	// Periodic per-node price broadcasts and dual updates, staggered a
	// little to avoid artificial synchronization. The offsets use the
	// global node index and count, so a node's tick phase does not depend
	// on how the topology decomposed.
	for i, a := range e.Agents {
		if a == nil {
			continue
		}
		a := a
		offset := cfg.priceInterval() * float64(i) / float64(len(e.Agents)+1)
		e.Engine.Schedule(offset, func() {
			a.priceTick()
			e.Engine.Every(cfg.priceInterval(), a.priceTick)
		})
	}
	return e
}

// deliver dispatches MAC deliveries to the receiving agent.
func (e *Domain) deliver(l graph.LinkID, pkt mac.Packet) {
	to := e.Net.Link(l).To
	e.Agents[to].receive(l, pkt)
}

// macDrop releases the pooled state of frames the MAC dropped (delivered
// frames release it at their consumer).
func (e *Domain) macDrop(_ graph.LinkID, pkt mac.Packet, _ mac.DropReason) {
	switch p := pkt.Payload.(type) {
	case *dataPkt:
		e.freePkt(p)
	case *ackHop:
		e.freeAck(p.ack)
		e.freeAckHop(p)
	}
}

// setLinkCapacity applies Emulation.SetLinkCapacity to an owned link.
func (e *Domain) setLinkCapacity(l graph.LinkID, c float64) {
	if c < 0 {
		c = 0
	}
	link := e.Net.Link(l)
	if link.Capacity == c {
		return
	}
	wasDead := link.Capacity <= 0
	link.Capacity = c
	e.capEpoch[l]++
	e.MAC.LinkChanged(l)
	if e.cfg.Estimation && wasDead && c > 0 {
		if est := e.Agents[link.From].est[l]; est != nil {
			// The estimator starved while the link was down; the probe
			// tick only samples ModeProbe links, so switch back explicitly
			// (an active flow's next send flips it to traffic mode again).
			est.SetMode(linkest.ModeProbe)
			e.estResets++
		}
	}
}

// effectiveCapacity is the goodput-bearing capacity the estimator
// samples: the ground-truth capacity scaled by the channel delivery
// probability. With zero loss it is exactly the capacity, so the
// estimation path is bit-identical to the pre-gray-failure behaviour.
func (e *Domain) effectiveCapacity(l graph.LinkID) float64 {
	c := e.Net.Link(l).Capacity
	if c <= 0 {
		return c
	}
	if p := e.MAC.LossProb(l); p > 0 {
		c *= 1 - p
	}
	return c
}

// priceDelivery is the pooled in-flight form of a price broadcast: the
// decoded frame plus its receiver, scheduled through the closure-free
// engine path.
type priceDelivery struct {
	agent *Agent
	frame wire.PriceFrame
}

func deliverPrice(arg any) {
	pd := arg.(*priceDelivery)
	em := pd.agent.em
	pd.agent.onPrice(&pd.frame)
	em.freePriceDelivery(pd)
}

// broadcastPrice delivers a price frame to every node sharing technology
// k within interference range of the origin. Price frames are modeled on
// the control plane (no airtime): the paper reports their overhead as
// negligible ("a small communication-overhead among the nodes"). The
// frame round-trips through its wire encoding in a retained scratch
// buffer, and each delivery rides a pooled priceDelivery.
func (e *Domain) broadcastPrice(from graph.NodeID, f *wire.PriceFrame) {
	e.priceBuf = f.AppendBinary(e.priceBuf[:0])
	for _, a := range e.priceListeners(from, f.Tech) {
		pd := e.prices.get()
		if err := pd.frame.UnmarshalBinary(e.priceBuf); err != nil {
			panic(fmt.Sprintf("node: price frame round-trip: %v", err))
		}
		pd.agent = a
		e.Engine.ScheduleFunc(1e-4, deliverPrice, pd)
	}
}

// priceListeners returns the agents that overhear a broadcast by `from`
// on technology k, in ascending node order (the order fixes the
// deliveries' event sequence numbers). The scan runs once per
// (node, technology); every later price tick reads the memo.
func (e *Domain) priceListeners(from graph.NodeID, tech graph.Tech) []*Agent {
	slot := &e.listeners[int(from)*e.numTechs+int(tech)]
	if *slot != nil {
		return *slot
	}
	list := []*Agent{} // non-nil even when empty: the scan is done
	for _, a := range e.Agents {
		if a == nil || a.id == from {
			// Foreign nodes have no agent here; they are never in earshot
			// anyway (earshot is an interference relation, and interference
			// never crosses a domain).
			continue
		}
		if !e.Net.Node(a.id).HasTech(tech) && !hasIngress(e.Net, a.id, tech) {
			continue
		}
		if !e.inEarshot(from, a.id, tech) {
			continue
		}
		list = append(list, a)
	}
	*slot = list
	return list
}

// inEarshot reports whether a broadcast by `from` on technology k is
// overheard by `to`: some link of `from` on k interferes with some link of
// `to` on k (the §4.2 "nodes in the interference domains of the outgoing
// links" rule).
func (e *Domain) inEarshot(from, to graph.NodeID, tech graph.Tech) bool {
	for _, lf := range e.Net.Out(from) {
		if e.Net.Link(lf).Tech != tech {
			continue
		}
		for _, i := range e.Net.Interference(lf) {
			li := e.Net.Link(i)
			if li.Tech == tech && (li.From == to || li.To == to) {
				return true
			}
		}
	}
	return false
}

func hasIngress(net *graph.Network, id graph.NodeID, tech graph.Tech) bool {
	for _, l := range net.In(id) {
		if net.Link(l).Tech == tech {
			return true
		}
	}
	return false
}

// linkEstimate returns the capacity estimate used for price terms, read
// from the estimator of the link's owner (see capacityEstimate).
func (e *Domain) linkEstimate(l graph.LinkID) float64 {
	a := e.Agents[e.Net.Link(l).From]
	if a == nil {
		// A foreign link reads its construction-time capacity: routing
		// inside the domain can never use it, so the value only feeds
		// aggregate signals, and no domain reads another's live state.
		return e.initCap[l]
	}
	return e.capacityEstimate(a.est[l], l)
}

// capacityEstimate is the one capacity rule behind price terms, route
// caps and the estimated routing view: link l's linkest estimate when
// estimation is enabled and est (its owner's estimator, or nil) has
// warmed up, zero once est declares the link failed, the true capacity
// otherwise. Agents pass their own estimator directly (Agent.priceTerm).
func (e *Domain) capacityEstimate(est *linkest.Estimator, l graph.LinkID) float64 {
	if e.cfg.Estimation && est != nil {
		if est.Failed(e.Engine.Now()) {
			// Samples stopped arriving: the link is down (§6.1's rapid
			// failure detection). Routing and rate control see zero
			// capacity.
			return 0
		}
		if v := est.Estimate(); v > 0 {
			return v
		}
	}
	return e.Net.Link(l).Capacity
}
