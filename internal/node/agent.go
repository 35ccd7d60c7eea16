package node

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/linkest"
	"repro/internal/mac"
	"repro/internal/wire"
)

// neighborReport is a cached price broadcast from one neighbor on one
// technology. Reports live in a dense per-agent [tech][node] table;
// heardAt < 0 marks a slot that never heard anything.
type neighborReport struct {
	airtime  float64
	gammaSum float64
	heardAt  float64
}

// gammaCache is one technology's memoised price sum: sum is
// ownGammaSum + freshGammaSum as computed at the call that filled it, and
// oldest the smallest heardAt among the reports that sum included (+Inf
// when it included none).
type gammaCache struct {
	sum, oldest float64
	valid       bool
}

// serves reports whether the entry still holds the sum a scan at now
// would return (see Agent.gammaSum).
func (c *gammaCache) serves(now float64) bool {
	return c.valid && now-c.oldest <= reportStale
}

// Agent is the per-node EMPoWER daemon: forwarding, price accounting, and
// the endpoints of any flows sourced at or destined to this node. Its
// per-packet state — γ duals, offered bits, neighbor reports, estimators,
// next hops, sources, sinks — is dense (indexed by link, technology, node
// and flow ID, or scanned over the node's egress degree), so the
// forwarding, ack, sink and price paths never touch a map or allocate.
//
// The per-frame price term d_l·Σγ recomputes only what changed: d_l is
// read from the agent's own estimator, and the γ sum of each technology is
// cached (gsum) behind a freshness horizon — reused while the oldest
// report it included is still fresh, dropped by the only two writers of
// its inputs, onPrice and priceTick. CheckConsistency recomputes it.
type Agent struct {
	id graph.NodeID
	em *Domain

	// ifaceOut pairs the layer-2.5 interface ID of each neighbor's ingress
	// interface with this node's egress link reaching it, one entry per
	// distinct ID in egress order (nextHop scans it).
	ifaceOut []ifaceLink

	// egress caches the node's egress links (the Net.Out order every
	// iteration below follows), techs the first-seen egress technologies.
	egress []graph.LinkID
	techs  []graph.Tech

	// gamma is the dual variable per egress link, dense by LinkID.
	gamma []float64
	// offeredBits accumulates bits offered to the MAC per egress link
	// during the current price interval (airtime-demand measurement).
	offeredBits []float64

	// reports[tech][origin] caches overheard price broadcasts.
	reports [][]neighborReport
	// gsum[tech] memoises priceTerm's γ sum, dense by technology.
	gsum []gammaCache

	// est tracks per-egress-link capacity estimators, dense by LinkID
	// (nil for links not owned by this node).
	est []*linkest.Estimator

	// extBusy tracks carrier-sensed external airtime, dense by
	// technology; sense[tech] is the precomputed carrier-sense set.
	extBusy []externalBusy
	sense   [][]graph.LinkID
	// busyScratch accumulates per-transmitter busy airtime inside
	// measureExternal, dense by NodeID.
	busyScratch []float64

	// priceFrame is the scratch frame priceTick broadcasts from.
	priceFrame wire.PriceFrame

	// Flow endpoints. source holds the flows sourced here and sinks the
	// flows terminating here, both indexed by flow ID (nil for IDs that
	// are not sourced here or never delivered here). Flow IDs are dense
	// and unique within a domain, so one ID names one flow.
	source  []*Flow
	sinks   []*Sink
	tcpSeen bool // a TCP flow touches this node (δ signal)

	// Forwarding statistics. Every data frame this agent ingests is
	// counted in DataIn and ends up in exactly one of Consumed (local
	// destination), Forwarded (relayed) or RouteDrops (malformed or
	// stale route) — the relay flow-conservation invariant.
	DataIn     int
	Forwarded  int
	Consumed   int
	RouteDrops int
}

// ifaceLink is one next-hop entry: a neighbor's ingress interface ID and
// the egress link reaching it.
type ifaceLink struct {
	iface wire.InterfaceID
	link  graph.LinkID
}

func newAgent(em *Domain, id graph.NodeID) *Agent {
	a := &Agent{
		id:          id,
		em:          em,
		gamma:       make([]float64, em.Net.NumLinks()),
		offeredBits: make([]float64, em.Net.NumLinks()),
		est:         make([]*linkest.Estimator, em.Net.NumLinks()),
		reports:     make([][]neighborReport, em.numTechs),
		gsum:        make([]gammaCache, em.numTechs),
		extBusy:     make([]externalBusy, em.numTechs),
		sense:       make([][]graph.LinkID, em.numTechs),
		busyScratch: make([]float64, em.Net.NumNodes()),
	}
	a.egress = em.Net.Out(id)
	seen := make([]bool, em.numTechs)
	for _, l := range a.egress {
		link := em.Net.Link(l)
		a.addNextHop(wire.HashInterface(link.To, link.Tech), l)
		a.est[l] = linkest.New()
		if !seen[link.Tech] {
			seen[link.Tech] = true
			a.techs = append(a.techs, link.Tech)
		}
	}
	for t := range a.reports {
		a.reports[t] = make([]neighborReport, em.Net.NumNodes())
		for n := range a.reports[t] {
			a.reports[t][n].heardAt = -1
		}
		a.sense[t] = a.senseSet(graph.Tech(t))
		a.extBusy[t].lastBusy = make([]float64, em.Net.NumLinks())
	}
	// Probe-mode estimation keeps estimates fresh on idle links.
	if em.cfg.Estimation {
		em.Engine.Every(linkest.ProbeInterval, a.probeTick)
	}
	return a
}

// addNextHop records egress link l as the next hop towards interface
// iface. A parallel link to the same interface keeps the last-wins rule;
// two different interfaces behind one 16-bit ID would forward one
// neighbour's frames to the other, so construction refuses them.
func (a *Agent) addNextHop(iface wire.InterfaceID, l graph.LinkID) {
	for i := range a.ifaceOut {
		if a.ifaceOut[i].iface != iface {
			continue
		}
		p, link := a.em.Net.Link(a.ifaceOut[i].link), a.em.Net.Link(l)
		if p.To != link.To || p.Tech != link.Tech {
			panic(fmt.Sprintf("node: agent %d: egress interfaces (node %d, %v) and (node %d, %v) share layer-2.5 ID %d",
				a.id, p.To, p.Tech, link.To, link.Tech, iface))
		}
		a.ifaceOut[i].link = l
		return
	}
	a.ifaceOut = append(a.ifaceOut, ifaceLink{iface, l})
}

// nextHop returns the egress link reaching the neighbor interface iface,
// if this node has one.
func (a *Agent) nextHop(iface wire.InterfaceID) (graph.LinkID, bool) {
	for _, e := range a.ifaceOut {
		if e.iface == iface {
			return e.link, true
		}
	}
	return 0, false
}

// probeTick samples every idle egress link at probe precision. Links are
// visited in the network's egress order, not map order: each sample
// draws from the emulation's RNG, so the visit order must be a pure
// function of the seed for runs to be reproducible.
func (a *Agent) probeTick() {
	now := a.em.Engine.Now()
	for _, l := range a.egress {
		e := a.est[l]
		if e.Mode() == linkest.ModeProbe {
			cap := a.em.effectiveCapacity(l)
			if cap > 0 {
				e.Observe(e.Sample(cap, a.em.rng), now)
			}
		}
	}
}

// sendOnLink offers a frame of the given size to the MAC on egress link
// l, recording airtime demand and feeding traffic-mode capacity
// estimation.
func (a *Agent) sendOnLink(l graph.LinkID, bits float64, payload interface{}) bool {
	a.offeredBits[l] += bits
	if est := a.est[l]; est != nil && a.em.cfg.Estimation {
		est.SetMode(linkest.ModeTraffic)
		// Sample the effective capacity c·(1−p): under gray failure the
		// estimate (and with it congestion control and failover) tracks
		// what the link actually delivers, not its nominal rate.
		cap := a.em.effectiveCapacity(l)
		if cap > 0 {
			est.Observe(est.Sample(cap, a.em.rng), a.em.Engine.Now())
		}
	}
	return a.em.MAC.Send(l, bits, payload)
}

// receive handles a MAC delivery on ingress link l.
func (a *Agent) receive(l graph.LinkID, pkt mac.Packet) {
	switch f := pkt.Payload.(type) {
	case *dataPkt:
		a.onData(f)
	case *ackHop:
		// Acknowledgement in transit on its reverse path: forward the
		// next hop (or hand to the flow source at the end of the path).
		f.sink.forwardAck(f.ack, f.path, f.hop+1)
		a.em.freeAckHop(f)
	default:
		// Unknown payloads are dropped silently (future frame types).
	}
}

// onData implements the Check-Dst / Fwd pipeline of Figure 2. It owns
// the pooled frame: consumption and drops free it, a forward hands it to
// the MAC (whose Drop callback frees it on failure).
func (a *Agent) onData(p *dataPkt) {
	f := &p.frame
	a.DataIn++
	if f.Dst == a.id {
		a.Consumed++
		a.sinkFor(f.Src, f.FlowID).onData(p)
		return
	}
	// Forward to the next hop.
	f.Hop++
	if int(f.Hop) >= f.Header.RouteLen() {
		a.RouteDrops++
		a.em.freePkt(p)
		return // malformed route; drop
	}
	next, ok := a.nextHop(f.Header.Route[f.Hop])
	if !ok {
		a.RouteDrops++
		a.em.freePkt(p)
		return // we are not on this route; drop
	}
	a.addPrice(next, &f.Header)
	a.Forwarded++
	a.sendOnLink(next, frameBits(f), p)
}

// addPrice adds d_l · Σ_{i∈I_l} γ_i to the header's q_r field (§4.2).
func (a *Agent) addPrice(l graph.LinkID, h *wire.Header) {
	h.AddQR(a.priceTerm(l))
}

// priceTerm computes d_l · Σ_{i∈I_l} γ_i from local state: the node's own
// γ over its egress links of the link's technology plus the γ sums
// reported by neighbors on that technology. l is one of the agent's
// egress links, so its capacity estimate comes from the agent's own
// estimator; a dead link's d_l = 1/0 is priced as 1e9.
func (a *Agent) priceTerm(l graph.LinkID) float64 {
	c := a.em.capacityEstimate(a.est[l], l)
	d := 1 / c
	if c <= 0 {
		d = 1e9
	}
	return d * a.gammaSum(a.em.Net.Link(l).Tech, a.em.Engine.Now())
}

// gammaSum returns ownGammaSum(tech) + freshGammaSum(tech, now), from the
// cache while that is provably the same value. The inputs are γ (written
// only by priceTick) and the reports (written only by onPrice), and both
// drop the entries they affect, so a valid entry can go out of date only
// through time. It cannot while the oldest report it included is fresh
// (now − oldest ≤ reportStale): virtual time never decreases and float
// subtraction rounds monotonically, so every report it included (heardAt ≥
// oldest) is still fresh, every report it left out as stale stays stale,
// and unheard slots change only through onPrice. The sum is then over the
// same reports in the same order — the same bits.
func (a *Agent) gammaSum(tech graph.Tech, now float64) float64 {
	c := &a.gsum[tech]
	if !c.serves(now) {
		*c = a.scanGammaSum(tech, now)
	}
	return c.sum
}

// scanGammaSum computes the entry gammaSum caches for tech at now.
func (a *Agent) scanGammaSum(tech graph.Tech, now float64) gammaCache {
	fresh, oldest := a.freshGammaSum(tech, now)
	return gammaCache{sum: a.ownGammaSum(tech) + fresh, oldest: oldest, valid: true}
}

// freshGammaSum accumulates the unexpired neighbor reports' γ sums in
// ascending node order, and returns the oldest included report's heardAt
// (+Inf if none) for gammaSum's freshness horizon. Float addition is not
// associative, so the order must be reproducible for runs to be
// seed-deterministic; the dense table gives ascending order for free.
func (a *Agent) freshGammaSum(tech graph.Tech, now float64) (s, oldest float64) {
	oldest = math.Inf(1)
	if int(tech) >= len(a.reports) {
		return 0, oldest
	}
	reps := a.reports[tech]
	for n := range reps {
		if rep := &reps[n]; rep.heardAt >= 0 && now-rep.heardAt <= reportStale {
			s += rep.gammaSum
			oldest = min(oldest, rep.heardAt)
		}
	}
	return s, oldest
}

// CheckConsistency recomputes every γ-sum cache entry that gammaSum would
// serve now — valid and inside its freshness horizon — and reports the
// first whose sum or oldest report differs in a single bit from a fresh
// scan. It only reads (the invariant checker calls it mid-run).
func (a *Agent) CheckConsistency() error {
	now := a.em.Engine.Now()
	for t, c := range a.gsum {
		if !c.serves(now) {
			continue
		}
		w := a.scanGammaSum(graph.Tech(t), now)
		if math.Float64bits(w.sum) != math.Float64bits(c.sum) || math.Float64bits(w.oldest) != math.Float64bits(c.oldest) {
			return fmt.Errorf("node %d, %v: cached γ sum %v (oldest report %v), recomputed %v (oldest %v)",
				a.id, graph.Tech(t), c.sum, c.oldest, w.sum, w.oldest)
		}
	}
	return nil
}

// freshAirtimeSum is freshGammaSum for the reports' airtime claims.
func (a *Agent) freshAirtimeSum(tech graph.Tech, now float64) float64 {
	if int(tech) >= len(a.reports) {
		return 0
	}
	var s float64
	reps := a.reports[tech]
	for n := range reps {
		if rep := &reps[n]; rep.heardAt >= 0 && now-rep.heardAt <= reportStale {
			s += rep.airtime
		}
	}
	return s
}

func (a *Agent) ownGammaSum(tech graph.Tech) float64 {
	var s float64
	for _, l := range a.egress {
		if a.em.Net.Link(l).Tech == tech {
			s += a.gamma[l]
		}
	}
	return s
}

// ownAirtime returns the node's aggregate airtime demand on a technology
// over the last price interval.
func (a *Agent) ownAirtime(tech graph.Tech) float64 {
	var s float64
	for _, l := range a.egress {
		if a.em.Net.Link(l).Tech != tech {
			continue
		}
		c := a.em.linkEstimate(l)
		if c > 0 {
			// bits per interval -> Mbps -> airtime fraction.
			rate := a.offeredBits[l] / a.em.cfg.priceInterval() / 1e6
			s += rate / c
		}
	}
	return s
}

// priceTick runs every price interval: measure airtime, update γ per
// egress link (eq. 8), broadcast the per-technology aggregates, and reset
// the measurement window.
func (a *Agent) priceTick() {
	now := a.em.Engine.Now()
	limit := 1 - a.effectiveDelta()
	// Technologies in first-seen egress order (precomputed at
	// construction): the per-tech price broadcasts schedule engine
	// events, so their order must be reproducible.
	for _, tech := range a.techs {
		// y for this node's links of `tech`: own demand + fresh reports +
		// carrier-sensed external airtime (§4.3).
		y := a.ownAirtime(tech)
		y += a.freshAirtimeSum(tech, now)
		y += a.measureExternal(tech)
		for _, l := range a.egress {
			if a.em.Net.Link(l).Tech != tech {
				continue
			}
			g := a.gamma[l] + gammaAlpha*(y-limit)
			if g < 0 {
				g = 0
			}
			a.gamma[l] = g
		}
		a.priceFrame = wire.PriceFrame{
			Origin:     a.id,
			Tech:       tech,
			Airtime:    a.ownAirtime(tech),
			GammaSum:   a.ownGammaSum(tech),
			TCPPresent: a.tcpSeen,
		}
		a.em.broadcastPrice(a.id, &a.priceFrame)
	}
	clear(a.gsum) // γ moved: every cached price sum is out of date
	// Idle egress links fall back to probe-mode estimation (checked
	// before the counters reset).
	if a.em.cfg.Estimation {
		for _, l := range a.egress {
			if est := a.est[l]; a.offeredBits[l] == 0 && est.Mode() == linkest.ModeTraffic {
				est.SetMode(linkest.ModeProbe)
			}
		}
	}
	for _, l := range a.egress {
		a.offeredBits[l] = 0
	}
}

// effectiveDelta returns δ, raised to the TCP value when a TCP flow was
// signalled in this node's contention domain (§6.4).
func (a *Agent) effectiveDelta() float64 {
	d := a.em.cfg.Delta
	if a.tcpSeen && d < tcpDelta {
		return tcpDelta
	}
	return d
}

// tcpDelta is the §6.4 constraint margin for TCP traffic.
const tcpDelta = 0.3

// onPrice caches a neighbor's broadcast.
func (a *Agent) onPrice(f *wire.PriceFrame) {
	if int(f.Tech) >= len(a.reports) || int(f.Origin) >= len(a.reports[f.Tech]) {
		return // technology or node outside this network; ignore
	}
	rep := &a.reports[f.Tech][f.Origin]
	rep.airtime = f.Airtime
	rep.gammaSum = f.GammaSum
	rep.heardAt = a.em.Engine.Now()
	a.gsum[f.Tech].valid = false
	if f.TCPPresent {
		a.tcpSeen = true
	}
}

// onAck feeds an acknowledgement back into the flow it belongs to.
func (a *Agent) onAck(f *wire.AckFrame) {
	if fl := a.sourceFlow(f.Src, f.FlowID); fl != nil {
		fl.onAck(f)
	}
}

// addSource registers a flow sourced here under its flow ID. IDs are
// unique within a domain, so a second flow under one ID is a caller bug
// and panics.
func (a *Agent) addSource(f *Flow) {
	for int(f.ID) >= len(a.source) {
		a.source = append(a.source, nil)
	}
	if prev := a.source[f.ID]; prev != nil {
		panic(fmt.Sprintf("node: agent %d: flow ID %d registered twice", a.id, f.ID))
	}
	a.source[f.ID] = f
}

// sourceFlow returns the flow identified by its source node and flow ID
// if it is sourced here, else nil (acks are source-routed, so an ack
// naming another source cannot arrive on a correct path).
func (a *Agent) sourceFlow(src graph.NodeID, flowID uint16) *Flow {
	if int(flowID) < len(a.source) {
		if fl := a.source[flowID]; fl != nil && fl.Src == src {
			return fl
		}
	}
	return nil
}

// sinkFor returns (creating on demand) the sink state of a flow
// terminating here. A flow ID names one source within a domain, so a
// lookup under another source is a caller bug and panics.
func (a *Agent) sinkFor(src graph.NodeID, flowID uint16) *Sink {
	if s := a.PeekSink(src, flowID); s != nil {
		return s
	}
	for int(flowID) >= len(a.sinks) {
		a.sinks = append(a.sinks, nil)
	}
	if s := a.sinks[flowID]; s != nil {
		panic(fmt.Sprintf("node: agent %d: flow %d terminates from node %d, looked up from node %d", a.id, flowID, s.src, src))
	}
	s := newSink(a, src, flowID)
	a.sinks[flowID] = s
	a.em.Engine.Every(ackInterval, s.ackTick)
	return s
}

// SinkFor returns (creating on demand) the sink of the flow identified by
// its source node and flow ID — the hook point for transport receivers.
func (a *Agent) SinkFor(src graph.NodeID, flowID uint16) *Sink {
	return a.sinkFor(src, flowID)
}

// PeekSink returns the sink of the identified flow without creating it —
// the read-only form for observers (SinkFor schedules an ack tick on
// creation, which would perturb the trajectory under observation). It is
// nil until the flow delivered here (or SinkFor created it).
func (a *Agent) PeekSink(src graph.NodeID, flowID uint16) *Sink {
	if int(flowID) < len(a.sinks) {
		if s := a.sinks[flowID]; s != nil && s.src == src {
			return s
		}
	}
	return nil
}

// Sinks lists the sinks terminating at this node (for measurements),
// ordered by (source node, flow ID) so callers that index into the
// result select the same sink every run.
func (a *Agent) Sinks() []*Sink {
	var out []*Sink
	for _, s := range a.sinks {
		if s != nil {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].src != out[j].src {
			return out[i].src < out[j].src
		}
		return out[i].flowID < out[j].flowID
	})
	return out
}

// frameBits returns the on-air size of a data frame in bits.
func frameBits(f *wire.DataFrame) float64 {
	return float64(f.WireLen()) * 8
}

// ackBits returns the on-air size of an ack frame in bits.
func ackBits(f *wire.AckFrame) float64 {
	return float64(f.WireLen()+18) * 8 // plus an Ethernet-ish envelope
}
