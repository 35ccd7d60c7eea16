package node

import (
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/wire"
)

// DeliverFunc observes in-order application deliveries at a flow's
// destination (seq is the layer-2.5 sequence number; meta is the opaque
// transport metadata attached by Flow.Push).
type DeliverFunc func(seq uint32, payloadBytes int, meta interface{})

// routeState is the per-route receive state, dense by RouteIdx.
type routeState struct {
	seen      bool
	qr        float64
	maxSeq    uint32
	delivered uint32 // payload bytes since last ack
	lastSeen  float64
	// Delay equalization (§6.4).
	delayEWMA float64
	hasDelay  bool
}

// Sink is the destination-side state of one flow: per-route price and
// sequence tracking, the reordering buffer, loss detection, delay
// equalization, and acknowledgement generation. The per-packet path is
// allocation-free and map-free: route state is dense, the reorder buffer
// is a ring of plain values indexed by sequence number, and the frames
// themselves return to the emulation's pool the moment their fields are
// extracted.
type Sink struct {
	agent  *Agent
	src    graph.NodeID
	flowID uint16

	// routes is the per-route state, indexed by RouteIdx (grown on
	// first sight of a route).
	routes []routeState

	// Reordering: ring holds the packets admitted ahead of nextSeq, each
	// at slot seq & (len(ring)-1). Every present slot's sequence number
	// lies in [nextSeq, nextSeq+len(ring)), so a slot names exactly one
	// sequence number of the live window.
	nextSeq uint32
	ring    []bufEntry
	// Loss counters.
	Lost int

	// Delivery accounting.
	TotalBytes   int64
	TotalPackets int
	log          *seriesLog

	// OnDeliver, when set, receives in-order payloads (TCP receiver hook).
	OnDeliver DeliverFunc

	// reverse caches the ack return route.
	reverse   graph.Path
	reverseAt float64
	firstSeen float64
	lastData  float64
}

// bufEntry is one reordered packet waiting for its predecessors: the
// fields deliver needs, held by value (the frame is long since back in
// the pool). present marks an occupied ring slot.
type bufEntry struct {
	payloadLen uint16
	present    bool
	meta       interface{}
}

// sinkRingInit is the initial reorder-ring length (a power of two); the
// ring doubles whenever an admitted packet lies beyond the window.
const sinkRingInit = 64

func newSink(a *Agent, src graph.NodeID, flowID uint16) *Sink {
	return &Sink{
		agent:     a,
		src:       src,
		flowID:    flowID,
		ring:      make([]bufEntry, sinkRingInit),
		log:       newSeriesLog(a.em.cfg.ExpectedDuration),
		firstSeen: a.em.Engine.Now(),
		lastData:  a.em.Engine.Now(),
	}
}

// Src returns the flow's source node.
func (s *Sink) Src() graph.NodeID { return s.src }

// LastDeliveryAt returns the virtual time of the most recent data
// arrival for this flow.
func (s *Sink) LastDeliveryAt() float64 { return s.lastData }

// IdleFor returns how long the flow has been silent at time now.
func (s *Sink) IdleFor(now float64) float64 { return now - s.lastData }

// FlowID returns the flow identifier.
func (s *Sink) FlowID() uint16 { return s.flowID }

// route returns the state of route r, growing the dense table on first
// sight. The pointer is only valid until the next route call.
func (s *Sink) route(r uint8) *routeState {
	for int(r) >= len(s.routes) {
		s.routes = append(s.routes, routeState{})
	}
	return &s.routes[r]
}

// heldFrame carries a delay-equalized packet between its arrival and its
// deferred admission; pooled on the emulation.
type heldFrame struct {
	sink       *Sink
	seq        uint32
	payloadLen uint16
	meta       interface{}
}

func admitHeld(arg any) {
	h := arg.(*heldFrame)
	s, seq, plen, meta := h.sink, h.seq, h.payloadLen, h.meta
	s.agent.em.freeHeldFrame(h)
	s.admit(seq, plen, meta)
}

// onData ingests a data frame addressed to this node, consuming the
// pooled packet: every field the sink needs is extracted before the
// frame returns to the pool.
func (s *Sink) onData(p *dataPkt) {
	f := &p.frame
	now := s.agent.em.Engine.Now()
	s.lastData = now
	r := f.RouteIdx
	rs := s.route(r)
	rs.seen = true
	rs.lastSeen = now
	rs.qr = f.Header.QR
	if f.Header.Seq > rs.maxSeq {
		rs.maxSeq = f.Header.Seq
	}
	rs.delivered += uint32(f.PayloadLen)

	seq := f.Header.Seq
	payloadLen := f.PayloadLen
	sentAt := f.SentAt
	meta := p.meta
	s.agent.em.freePkt(p)

	// Delay equalization: delay fast-route packets so that all routes
	// show approximately the slowest route's delay (§6.4), reducing TCP
	// reordering timeouts.
	if s.agent.em.cfg.DelayEqualize {
		d := now - sentAt
		if rs.hasDelay {
			rs.delayEWMA = 0.9*rs.delayEWMA + 0.1*d
		} else {
			rs.delayEWMA = d
			rs.hasDelay = true
		}
		target := 0.0
		for i := range s.routes {
			if s.routes[i].hasDelay && s.routes[i].delayEWMA > target {
				target = s.routes[i].delayEWMA
			}
		}
		if hold := target - rs.delayEWMA; hold > 1e-6 {
			em := s.agent.em
			h := em.newHeldFrame()
			h.sink, h.seq, h.payloadLen, h.meta = s, seq, payloadLen, meta
			em.Engine.ScheduleFunc(hold, admitHeld, h)
			return
		}
	}
	s.admit(seq, payloadLen, meta)
}

// admit places the packet into the reorder buffer and flushes whatever is
// now deliverable, applying the paper's loss rule: a missing sequence
// number S is declared lost (and skipped) once every route has delivered
// a packet with sequence greater than S. A duplicate of a buffered
// sequence number replaces it.
func (s *Sink) admit(seq uint32, payloadLen uint16, meta interface{}) {
	if seq >= s.nextSeq {
		if seq-s.nextSeq >= uint32(len(s.ring)) {
			s.grow(seq - s.nextSeq)
		}
		s.ring[seq&uint32(len(s.ring)-1)] = bufEntry{payloadLen: payloadLen, present: true, meta: meta}
	}
	s.flush()
}

// grow doubles the ring until a packet d ahead of nextSeq fits, re-seating
// the live window [nextSeq, nextSeq+len) at its slots in the new ring.
func (s *Sink) grow(d uint32) {
	n := 2 * len(s.ring)
	for uint64(n) <= uint64(d) {
		n *= 2
	}
	ring := make([]bufEntry, n)
	oldMask, mask := uint32(len(s.ring)-1), uint32(n-1)
	for k := uint32(0); k < uint32(len(s.ring)); k++ {
		seq := s.nextSeq + k
		ring[seq&mask] = s.ring[seq&oldMask]
	}
	s.ring = ring
}

func (s *Sink) flush() {
	for {
		i := s.nextSeq & uint32(len(s.ring)-1)
		if e := s.ring[i]; e.present {
			s.deliver(s.nextSeq, e)
			s.ring[i] = bufEntry{}
			s.nextSeq++
			continue
		}
		// nextSeq missing: lost if all active routes are past it.
		if !s.allRoutesPast(s.nextSeq) {
			return
		}
		s.Lost++
		s.nextSeq++
	}
}

// routeStaleAfter excludes a route from the loss rule once it has been
// silent this long: a failed route would otherwise stall reordering
// forever (the source abandons dead routes within ~1 s via capacity
// estimation, so its sequence numbers never advance again).
const routeStaleAfter = 1.0

func (s *Sink) allRoutesPast(seq uint32) bool {
	now := s.agent.em.Engine.Now()
	live := 0
	for i := range s.routes {
		rs := &s.routes[i]
		if !rs.seen {
			continue
		}
		if now-rs.lastSeen > routeStaleAfter {
			continue // stale route: ignore its frozen sequence state
		}
		live++
		if rs.maxSeq <= seq {
			return false
		}
	}
	return live > 0
}

func (s *Sink) deliver(seq uint32, e bufEntry) {
	now := s.agent.em.Engine.Now()
	bytes := int(e.payloadLen)
	s.TotalBytes += int64(bytes)
	s.TotalPackets++
	s.log.add(now, float64(bytes)*8)
	if s.OnDeliver != nil {
		s.OnDeliver(seq, bytes, e.meta)
	}
}

// RateSeries returns the delivered goodput (Mbps) in bins of binSeconds.
func (s *Sink) RateSeries(binSeconds float64) ([]float64, []float64) {
	return s.log.series(binSeconds)
}

// MeanRate returns average goodput (Mbps) between two absolute times.
func (s *Sink) MeanRate(from, to float64) float64 {
	ts, rates := s.log.binned(0.5)
	if len(ts) == 0 || to <= from {
		return 0
	}
	var sum float64
	var n int
	for i, t := range ts {
		if t >= from && t < to {
			sum += rates[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// ackTick emits the periodic acknowledgement (at most every ack interval)
// with per-route q_r, max sequence and delivered byte counts, sent to the
// flow source over the best reverse single path with priority (small
// high-priority frames in the paper; small frames here). The frame and
// its Routes backing come from the emulation's ack pool.
func (s *Sink) ackTick() {
	seen := false
	for i := range s.routes {
		if s.routes[i].seen {
			seen = true
			break
		}
	}
	if !seen {
		return
	}
	now := s.agent.em.Engine.Now()
	// Stop acking a dead flow after 2 s of silence.
	if now-s.lastData > 2 {
		return
	}
	ack := s.agent.em.newAck()
	ack.Src = s.src
	ack.Dst = s.agent.id
	ack.FlowID = s.flowID
	ack.SentAt = now
	ack.Routes = appendRouteAcks(ack.Routes, s.routes)
	s.sendAck(ack)
}

// appendRouteAcks appends one acknowledgement entry per route seen so far
// (q_r, max sequence, payload bytes delivered since the last ack) and
// restarts the routes' delivered counters.
func appendRouteAcks(dst []wire.RouteAck, routes []routeState) []wire.RouteAck {
	for i := range routes {
		rs := &routes[i]
		if !rs.seen {
			continue
		}
		dst = append(dst, wire.RouteAck{
			RouteIdx:  uint8(i),
			QR:        rs.qr,
			MaxSeq:    rs.maxSeq,
			Delivered: rs.delivered,
		})
		rs.delivered = 0
	}
	return dst
}

// sendAck transmits the ack over the cached best reverse path, refreshing
// the cache every second. The ack travels hop-by-hop through the MAC; the
// final hop's agent dispatches it to the flow.
func (s *Sink) sendAck(ack *wire.AckFrame) {
	now := s.agent.em.Engine.Now()
	if s.reverse == nil || now-s.reverseAt > 1 {
		s.reverse = routing.SinglePath(s.agent.em.Net, s.agent.id, s.src, routing.DefaultConfig())
		s.reverseAt = now
	}
	if s.reverse == nil {
		s.agent.em.freeAck(ack)
		return // no way back; the source will coast on old prices
	}
	s.forwardAck(ack, s.reverse, 0)
}

// forwardAck sends the ack over hop h of the reverse path and chains to
// the next hop upon MAC delivery. Acknowledgements ride the same MAC but
// are tiny; the paper gives them prioritized queues, which our FIFO MAC
// approximates by their negligible airtime. The ack and its per-hop
// wrapper are pooled: the MAC's drop callback releases both when a hop
// dies, the final hop releases the ack after the source consumed it.
func (s *Sink) forwardAck(ack *wire.AckFrame, path graph.Path, hop int) {
	em := s.agent.em
	if hop >= len(path) {
		em.Agents[s.src].onAck(ack)
		em.freeAck(ack)
		return
	}
	l := path[hop]
	from := em.Net.Link(l).From
	bits := ackBits(ack)
	h := em.newAckHop()
	h.ack, h.sink, h.path, h.hop = ack, s, path, hop
	em.Agents[from].sendOnLink(l, bits, h)
}

// ackHop is the MAC payload that chains an ack along its reverse path.
type ackHop struct {
	ack  *wire.AckFrame
	sink *Sink
	path graph.Path
	hop  int
}
