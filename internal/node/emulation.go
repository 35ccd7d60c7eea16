// Package node implements the EMPoWER node agent of §6.1 — the Go
// equivalent of the paper's Click Modular Router datapath — running over
// the discrete-event engine and the CSMA MAC:
//
//   - source routing with the 20-byte layer-2.5 header (package wire);
//     intermediate nodes check the destination and forward to the next
//     hop, adding their price contribution d_l·Σ_{i∈I_l}γ_i to the q_r
//     header field;
//   - per-technology price broadcasts every 100 ms carrying the node's
//     aggregate airtime demand and γ sum (§4.2), from which neighbors
//     compute y_l and update their duals;
//   - destination-side packet reordering by sequence number, loss
//     detection ("a packet with sequence number S is lost when packets
//     with higher sequence numbers arrived on all routes"), optional
//     delay equalization for TCP (§6.4), and acknowledgements at most 10
//     per second returning q_r per route;
//   - source-side multipath congestion control: each packet picks route r
//     with probability proportional to x_r, and the rates follow the
//     proximal update of §4.3 driven by acknowledged prices, with the α
//     step-size heuristic of §6.1.
//
// The steady-state packet path is allocation-free: data frames, ack
// frames, ack forwarding hops, price deliveries and delay-equalization
// holds all come from per-emulation free lists and return to them when
// consumed. The ownership rule is strict — whoever takes a pooled object
// off the MAC or the engine either hands it on or frees it, and nobody
// holds a pooled pointer across events after freeing it.
package node

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/linkest"
	"repro/internal/mac"
	"repro/internal/obs"
	"repro/internal/optimal"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Config tunes the emulation.
type Config struct {
	// AckInterval is the destination acknowledgement period (default
	// 0.1 s — at most 10 acks per second as in the paper).
	AckInterval float64
	// PriceInterval is the price-broadcast and γ-update period (default
	// 0.1 s).
	PriceInterval float64
	// GammaAlpha is the dual step size for the per-link γ updates
	// (default 0.1).
	GammaAlpha float64
	// FlowAlphaBase is the base α of the per-flow rate updates, adapted
	// by the paper's heuristic (default 0.02).
	FlowAlphaBase float64
	// Delta is the constraint margin δ (default 0; §6.3 uses 0.05, §6.4
	// uses 0.3 for TCP).
	Delta float64
	// UtilityScale is the proximal gain (see congestion.Options).
	UtilityScale float64
	// PacketBytes is the application payload per packet (default 1500).
	PacketBytes int
	// QueueLimit is the per-link MAC queue in packets (default 100).
	QueueLimit int
	// LossProb[l] is an optional static per-link channel error
	// probability, indexed by LinkID (the gray-failure model for
	// non-scenario runs; scenarios mutate loss mid-run through
	// SetLinkLoss). Missing entries and absent slices mean lossless.
	LossProb []float64
	// DelayEqualize enables destination-side delay equalization across
	// routes (§6.4; default off).
	DelayEqualize bool
	// ReportStale expires neighbor price reports after this many seconds
	// (default 0.5).
	ReportStale float64
	// DisableCC turns congestion control off (the w/o-CC baselines):
	// sources keep their first hops backlogged and no shaping occurs.
	DisableCC bool
	// InitialRate bootstraps each route's rate in Mbps (default 0.5).
	InitialRate float64
	// Estimation enables noisy link-capacity estimation (package
	// linkest) instead of oracle capacities for the price terms
	// (default true in testbed experiments; tests may disable it).
	Estimation bool
	// ExpectedDuration, when positive, presizes per-flow and per-sink
	// rate logs for a run of this many emulated seconds (callers that
	// know the scenario duration set it; zero means grow on demand).
	ExpectedDuration float64
	// Shards enables the sharded engine for topologies that decompose
	// into several interference domains (optimal.InterferenceDomains):
	// 0 (the zero value) always runs the classic single engine; n >= 1
	// runs one pooled engine per domain with up to n worker goroutines
	// (1 = sequential, still domain-decomposed); ShardsAuto sizes the
	// worker pool to GOMAXPROCS. The decomposition depends only on the
	// topology — never on the shard count — and each domain draws from
	// its own seed split, so the trajectory is bit-identical at any
	// Shards >= 1. A single-domain topology (every connected network)
	// always takes the classic engine, making Shards >= 1 byte-identical
	// to the zero value there.
	Shards int
	// Recorder, when positive, attaches a flight recorder of that many
	// records (rounded up to a power of two) to every domain engine and
	// its MAC. Recording costs one ring-index write per event and is
	// purely observational: it draws no RNG and schedules nothing, so
	// the trajectory is identical with it on or off. Zero disables
	// recording entirely (the default; also the zero-alloc-guard path).
	Recorder int
}

// ShardsAuto, as Config.Shards, sizes the sharded engine's worker pool
// to GOMAXPROCS (cmd flags map -shards 0 to it).
const ShardsAuto = -1

func (c Config) ackInterval() float64 {
	if c.AckInterval <= 0 {
		return 0.1
	}
	return c.AckInterval
}

func (c Config) priceInterval() float64 {
	if c.PriceInterval <= 0 {
		return 0.1
	}
	return c.PriceInterval
}

func (c Config) gammaAlpha() float64 {
	if c.GammaAlpha <= 0 {
		return 0.1
	}
	return c.GammaAlpha
}

func (c Config) flowAlphaBase() float64 {
	if c.FlowAlphaBase <= 0 {
		return 0.02
	}
	return c.FlowAlphaBase
}

func (c Config) utilityScale() float64 {
	if c.UtilityScale <= 0 {
		return 50
	}
	return c.UtilityScale
}

func (c Config) packetBytes() int {
	if c.PacketBytes <= 0 {
		return 1500
	}
	return c.PacketBytes
}

func (c Config) queueLimit() int {
	if c.QueueLimit <= 0 {
		return 100
	}
	return c.QueueLimit
}

func (c Config) reportStale() float64 {
	if c.ReportStale <= 0 {
		return 0.5
	}
	return c.ReportStale
}

func (c Config) initialRate() float64 {
	if c.InitialRate <= 0 {
		return 0.5
	}
	return c.InitialRate
}

// dataPkt is the pooled in-flight form of a data frame: the wire frame
// plus the opaque transport metadata that, on the real testbed, rides in
// the Ethernet encapsulation. It is owned by exactly one holder at a
// time (a flow building it, a MAC queue, an agent forwarding it, a sink
// consuming it) and returns to the emulation's free list when consumed
// or dropped.
type dataPkt struct {
	frame wire.DataFrame
	meta  interface{}
}

// Emulation owns the engine, the MAC, and one Agent per network node.
type Emulation struct {
	Engine *sim.Engine
	Net    *graph.Network
	MAC    *mac.MAC
	Agents []*Agent

	cfg   Config
	rng   *rand.Rand
	flows []*Flow

	// capEpoch[l] counts link l's capacity changes — the invariant
	// checker's witness that a link stayed dead (or alive) across a
	// whole sampling interval. Sharded dispatchers leave it nil; the
	// owning domain's counter is authoritative.
	capEpoch []uint32

	// Intrinsic observability counters, bumped on the owning domain's
	// event loop and sampled by internal/obs at barriers (see
	// node/obs.go). Sharded dispatchers keep them at zero; the accessors
	// sum over domains.
	estResets int
	reroutes  int
	failovers int

	// numTechs bounds the dense per-technology agent state.
	numTechs int

	// Free lists for the steady-state packet path. All are LIFO stacks;
	// see the package comment for the ownership rule.
	pktFree   []*dataPkt
	ackFree   []*wire.AckFrame
	hopFree   []*ackHop
	priceFree []*priceDelivery
	holdFree  []*heldFrame

	// priceBuf is the scratch encode buffer of broadcastPrice.
	priceBuf []byte
	// listeners[from*numTechs+tech] memoises broadcastPrice's receiver
	// list (nil until first use, in ascending agent order). It depends
	// only on what graph.Network fixes at Build — node tech sets, link
	// endpoints and technologies, interference rows — never on capacity.
	listeners [][]*Agent

	// Sharded-mode state (see shard.go). A sharded top-level emulation is
	// a dispatcher: Engine and MAC are nil, doms holds one closed
	// sub-emulation per interference domain, and Agents merges the
	// per-domain agents. Inside a sub-emulation, doms is nil and Agents
	// has nil entries for foreign nodes.
	doms    []*Emulation
	nodeDom []int
	linkDom []int
	sh      *sim.Sharded
}

func (e *Emulation) newPkt() *dataPkt {
	if n := len(e.pktFree); n > 0 {
		p := e.pktFree[n-1]
		e.pktFree = e.pktFree[:n-1]
		return p
	}
	return &dataPkt{}
}

// freePkt returns a consumed or dropped frame to the pool. The frame is
// cleared here so a reused slot never leaks a stale q_r, route or
// sequence number into the next packet.
func (e *Emulation) freePkt(p *dataPkt) {
	p.frame = wire.DataFrame{}
	p.meta = nil
	e.pktFree = append(e.pktFree, p)
}

func (e *Emulation) newAck() *wire.AckFrame {
	if n := len(e.ackFree); n > 0 {
		a := e.ackFree[n-1]
		e.ackFree = e.ackFree[:n-1]
		return a
	}
	return &wire.AckFrame{}
}

func (e *Emulation) freeAck(a *wire.AckFrame) {
	routes := a.Routes[:0] // keep the backing array
	*a = wire.AckFrame{Routes: routes}
	e.ackFree = append(e.ackFree, a)
}

func (e *Emulation) newAckHop() *ackHop {
	if n := len(e.hopFree); n > 0 {
		h := e.hopFree[n-1]
		e.hopFree = e.hopFree[:n-1]
		return h
	}
	return &ackHop{}
}

func (e *Emulation) freeAckHop(h *ackHop) {
	*h = ackHop{}
	e.hopFree = append(e.hopFree, h)
}

func (e *Emulation) newPriceDelivery() *priceDelivery {
	if n := len(e.priceFree); n > 0 {
		pd := e.priceFree[n-1]
		e.priceFree = e.priceFree[:n-1]
		return pd
	}
	return &priceDelivery{}
}

func (e *Emulation) freePriceDelivery(pd *priceDelivery) {
	pd.agent = nil
	e.priceFree = append(e.priceFree, pd)
}

func (e *Emulation) newHeldFrame() *heldFrame {
	if n := len(e.holdFree); n > 0 {
		h := e.holdFree[n-1]
		e.holdFree = e.holdFree[:n-1]
		return h
	}
	return &heldFrame{}
}

func (e *Emulation) freeHeldFrame(h *heldFrame) {
	*h = heldFrame{}
	e.holdFree = append(e.holdFree, h)
}

// NewEmulation builds the emulated network. With Config.Shards set and a
// topology that decomposes into several interference domains, the result
// is a sharded emulation running one engine per domain (see shard.go);
// otherwise it is the classic single-engine emulation.
func NewEmulation(net *graph.Network, cfg Config, seed int64) *Emulation {
	if cfg.Shards != 0 {
		if dec := optimal.InterferenceDomains(net); dec.Num > 1 {
			return newSharded(net, cfg, seed, dec)
		}
	}
	return newEmulationOwned(net, cfg, seed, nil)
}

// newEmulationOwned is the working constructor: own == nil builds the
// classic emulation over every node; a non-nil ownership mask builds one
// domain's closed sub-emulation — agents, price ticks and the RNG belong
// to the owned nodes only, while the network (a per-domain clone) keeps
// its full shape so global node and link IDs stay valid.
func newEmulationOwned(net *graph.Network, cfg Config, seed int64, own []bool) *Emulation {
	e := &Emulation{
		Engine:   &sim.Engine{},
		Net:      net,
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(seed)),
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
	e.MAC = mac.New(e.Engine, net, e.rng, mac.Options{QueueLimit: cfg.queueLimit(), LossProb: cfg.LossProb})
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
		if own != nil && !own[i] {
			continue
		}
		e.Agents[i] = newAgent(e, graph.NodeID(i))
	}
	// Periodic per-node price broadcasts and dual updates, staggered a
	// little to avoid artificial synchronization. The offsets use the
	// global node index and count in every mode, so a node's tick phase
	// does not depend on how the topology sharded.
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

// Flows returns the registered flows. On a sharded emulation the flows
// are merged in domain order; note that flow IDs are unique only within
// a domain (they only ride intra-domain frames).
func (e *Emulation) Flows() []*Flow {
	if e.doms == nil {
		return e.flows
	}
	var out []*Flow
	for _, d := range e.doms {
		out = append(out, d.flows...)
	}
	return out
}

// Agent returns node id's agent.
func (e *Emulation) Agent(id graph.NodeID) *Agent { return e.Agents[id] }

// deliver dispatches MAC deliveries to the receiving agent.
func (e *Emulation) deliver(l graph.LinkID, pkt mac.Packet) {
	to := e.Net.Link(l).To
	e.Agents[to].receive(l, pkt)
}

// macDrop releases the pooled state of frames the MAC dropped (delivered
// frames release it at their consumer).
func (e *Emulation) macDrop(_ graph.LinkID, pkt mac.Packet, _ mac.DropReason) {
	switch p := pkt.Payload.(type) {
	case *dataPkt:
		e.freePkt(p)
	case *ackHop:
		e.freeAck(p.ack)
		e.freeAckHop(p)
	}
}

// Run advances the emulation to absolute virtual time t (seconds). A
// sharded emulation advances every domain engine through the
// conservative-window coordinator.
func (e *Emulation) Run(t float64) {
	if e.sh != nil {
		e.sh.Run(t)
		return
	}
	e.Engine.Run(t)
}

// SetLinkCapacity mutates link l's capacity at the current virtual time —
// the scenario-engine hook behind link failure (c = 0), recovery and
// capacity drift. Unlike poking Net.Link(l).Capacity directly, it keeps
// the rest of the stack consistent:
//
//   - the MAC flushes a dead link's queue (releasing the transport
//     metadata of the lost frames) and kicks a recovered link back into
//     contention;
//   - on recovery of a dead link, the owning agent's estimator resumes
//     probe-mode sampling so the estimate re-learns.
//
// Detection of the change still happens through traffic-driven estimation
// (the §6.1 story), never through an oracle shortcut: a failure surfaces
// when samples stop arriving (linkest.Estimator.Failed, within the
// failure timeout), a capacity change when the noisy samples move.
func (e *Emulation) SetLinkCapacity(l graph.LinkID, c float64) {
	if e.doms != nil {
		// Dispatch to the owning domain (whose clone is the live ground
		// truth) and mirror into the top-level network, so external
		// readers keep seeing one consistent capacity map. Concurrent
		// domain goroutines only ever touch their own links, so the
		// mirror writes are element-disjoint.
		d := e.doms[e.linkDom[l]]
		d.SetLinkCapacity(l, c)
		e.Net.Link(l).Capacity = d.Net.Link(l).Capacity
		return
	}
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
	if e.cfg.Estimation && wasDead && c > 0 && e.Agents[link.From] != nil {
		if est := e.Agents[link.From].est[l]; est != nil {
			// The estimator starved while the link was down; the probe
			// tick only samples ModeProbe links, so switch back explicitly
			// (an active flow's next send flips it to traffic mode again).
			est.SetMode(linkest.ModeProbe)
			e.estResets++
		}
	}
}

// SetLinkLoss sets link l's channel error probability at the current
// virtual time — the gray-failure scenario hook (set-loss events). The
// link stays up: frames still consume airtime and a fraction p of them
// is dropped at reception. Like SetLinkCapacity, detection is honest —
// the estimator samples the effective capacity c·(1−p), so congestion
// control and routing see the degradation only through the noisy
// estimates, never through an oracle shortcut.
func (e *Emulation) SetLinkLoss(l graph.LinkID, p float64) {
	if e.doms != nil {
		// Dispatch to the owning domain's MAC; concurrent domain
		// goroutines only ever touch their own links.
		e.doms[e.linkDom[l]].SetLinkLoss(l, p)
		return
	}
	e.MAC.SetLossProb(l, p)
}

// LinkLoss returns link l's current channel error probability.
func (e *Emulation) LinkLoss(l graph.LinkID) float64 {
	if e.doms != nil {
		return e.doms[e.linkDom[l]].LinkLoss(l)
	}
	return e.MAC.LossProb(l)
}

// CapacityEpoch counts link l's capacity changes since construction.
// Two equal readings bracket an interval with no capacity transition —
// what lets the invariant checker reason about a sampled window instead
// of just its endpoints.
func (e *Emulation) CapacityEpoch(l graph.LinkID) uint32 {
	if e.doms != nil {
		return e.doms[e.linkDom[l]].capEpoch[l]
	}
	return e.capEpoch[l]
}

// effectiveCapacity is the goodput-bearing capacity the estimator
// samples: the ground-truth capacity scaled by the channel delivery
// probability. With zero loss it is exactly the capacity, so the
// estimation path is bit-identical to the pre-gray-failure behaviour.
func (e *Emulation) effectiveCapacity(l graph.LinkID) float64 {
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
func (e *Emulation) broadcastPrice(from graph.NodeID, f *wire.PriceFrame) {
	e.priceBuf = f.AppendBinary(e.priceBuf[:0])
	for _, a := range e.priceListeners(from, f.Tech) {
		pd := e.newPriceDelivery()
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
func (e *Emulation) priceListeners(from graph.NodeID, tech graph.Tech) []*Agent {
	slot := &e.listeners[int(from)*e.numTechs+int(tech)]
	if *slot != nil {
		return *slot
	}
	list := []*Agent{} // non-nil even when empty: the scan is done
	for _, a := range e.Agents {
		if a == nil || a.id == from {
			// Foreign nodes of a domain sub-emulation have no agent here;
			// they are never in earshot anyway (earshot is an interference
			// relation, and interference never crosses a domain).
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
func (e *Emulation) inEarshot(from, to graph.NodeID, tech graph.Tech) bool {
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

// linkEstimate returns the capacity estimate used for price terms: the
// linkest estimate when estimation is enabled and warmed up, the true
// capacity otherwise.
func (e *Emulation) linkEstimate(l graph.LinkID) float64 {
	if e.cfg.Estimation {
		a := e.Agents[e.Net.Link(l).From]
		if a == nil {
			// A foreign link of a domain sub-emulation: no local estimator.
			// Fall back to the domain clone's (frozen) capacity — routing
			// inside the domain can never use a foreign link, so the value
			// only feeds aggregate signals.
			return e.Net.Link(l).Capacity
		}
		if est := a.est[l]; est != nil {
			if est.Failed(e.Engine.Now()) {
				// Samples stopped arriving: the link is down (§6.1's
				// rapid failure detection). Routing and rate control see
				// zero capacity.
				return 0
			}
			if v := est.Estimate(); v > 0 {
				return v
			}
		}
	}
	return e.Net.Link(l).Capacity
}

// LinkEstimate exposes the capacity estimate feeding the price terms
// (the invariant checker bounds controller rates against it). On a
// sharded emulation it reads the owning domain's estimator through the
// merged agent view, exactly like the internal price path does.
func (e *Emulation) LinkEstimate(l graph.LinkID) float64 {
	if e.doms != nil {
		return e.doms[e.linkDom[l]].linkEstimate(l)
	}
	return e.linkEstimate(l)
}

// dEstimate returns the estimated d_l = 1/ĉ_l (+Inf treated as a huge
// price on dead links).
func (e *Emulation) dEstimate(l graph.LinkID) float64 {
	c := e.linkEstimate(l)
	if c <= 0 {
		return 1e9
	}
	return 1 / c
}
