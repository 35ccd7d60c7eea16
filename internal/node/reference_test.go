package node

// The map-based destination pipeline that the reorder ring, the flow-ID
// sink and source tables, the next-hop scan and the memoised rate binning
// replaced, and the price term that scanned every report per frame, kept
// verbatim (renamed) as an executable specification:
// TestSinkMatchesReference drives refSink and the live Sink through the
// same scripted arrivals on one engine and demands the same deliveries,
// losses, acknowledgements and rate-series bits,
// TestAgentLookupsMatchReference holds the next-hop, sink and source
// tables to the maps, and TestPriceTermMatchesReference holds the cached
// price term to refPriceTerm on every call. Same pattern as the
// reference_test.go oracles in mac, linkest, routing, congestion and
// optimal.

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/wire"
)

// refPriceTerm is priceTerm recomputing everything per call: both γ sums
// by scan and d_l through the domain's owner lookup.
func refPriceTerm(a *Agent, l graph.LinkID) float64 {
	tech := a.em.Net.Link(l).Tech
	gsum := a.ownGammaSum(tech) + refFreshGammaSum(a, tech, a.em.Engine.Now())
	return refDEstimate(a.em, l) * gsum
}

func refFreshGammaSum(a *Agent, tech graph.Tech, now float64) float64 {
	if int(tech) >= len(a.reports) {
		return 0
	}
	var s float64
	stale := reportStale
	reps := a.reports[tech]
	for n := range reps {
		if rep := &reps[n]; rep.heardAt >= 0 && now-rep.heardAt <= stale {
			s += rep.gammaSum
		}
	}
	return s
}

// refLinkEstimate is linkEstimate with the capacity rule inline.
func refLinkEstimate(e *Domain, l graph.LinkID) float64 {
	a := e.Agents[e.Net.Link(l).From]
	if a == nil {
		return e.initCap[l]
	}
	if e.cfg.Estimation {
		if est := a.est[l]; est != nil {
			if est.Failed(e.Engine.Now()) {
				return 0
			}
			if v := est.Estimate(); v > 0 {
				return v
			}
		}
	}
	return e.Net.Link(l).Capacity
}

func refDEstimate(e *Domain, l graph.LinkID) float64 {
	c := refLinkEstimate(e, l)
	if c <= 0 {
		return 1e9
	}
	return 1 / c
}

// refSink is the map-buffered Sink: its reorder buffer is a
// map[uint32]bufEntry and its rates re-bin the whole log on every read.
type refSink struct {
	agent  *Agent
	src    graph.NodeID
	flowID uint16

	routes []routeState

	// Reordering.
	nextSeq uint32
	buffer  map[uint32]bufEntry
	// Loss counters.
	Lost int

	// Delivery accounting.
	TotalBytes   int64
	TotalPackets int
	log          *seriesLog

	OnDeliver DeliverFunc

	lastData float64
}

func newRefSink(a *Agent, src graph.NodeID, flowID uint16) *refSink {
	return &refSink{
		agent:    a,
		src:      src,
		flowID:   flowID,
		buffer:   map[uint32]bufEntry{},
		log:      &seriesLog{},
		lastData: a.em.Engine.Now(),
	}
}

func (s *refSink) route(r uint8) *routeState {
	for int(r) >= len(s.routes) {
		s.routes = append(s.routes, routeState{})
	}
	return &s.routes[r]
}

// onData is Sink.onData; the delay-equalization hold rides a closure
// instead of the pooled heldFrame (whose sink field is a *Sink).
func (s *refSink) onData(p *dataPkt) {
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
			s.agent.em.Engine.Schedule(hold, func() { s.admit(seq, payloadLen, meta) })
			return
		}
	}
	s.admit(seq, payloadLen, meta)
}

func (s *refSink) admit(seq uint32, payloadLen uint16, meta interface{}) {
	if seq >= s.nextSeq {
		s.buffer[seq] = bufEntry{payloadLen: payloadLen, meta: meta}
	}
	s.flush()
}

func (s *refSink) flush() {
	for {
		if e, ok := s.buffer[s.nextSeq]; ok {
			s.deliver(s.nextSeq, e)
			delete(s.buffer, s.nextSeq)
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

func (s *refSink) allRoutesPast(seq uint32) bool {
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

func (s *refSink) deliver(seq uint32, e bufEntry) {
	now := s.agent.em.Engine.Now()
	bytes := int(e.payloadLen)
	s.TotalBytes += int64(bytes)
	s.TotalPackets++
	s.log.add(now, float64(bytes)*8)
	if s.OnDeliver != nil {
		s.OnDeliver(seq, bytes, e.meta)
	}
}

func (s *refSink) RateSeries(binSeconds float64) ([]float64, []float64) {
	return refSeries(s.log, binSeconds)
}

func (s *refSink) MeanRate(from, to float64) float64 {
	ts, rates := refSeries(s.log, 0.5)
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

// refSeries is seriesLog.series before the memo: every call re-bins the
// whole log.
func refSeries(s *seriesLog, bin float64) ([]float64, []float64) {
	if s.n == 0 || bin <= 0 {
		return nil, nil
	}
	last := s.chunks[(s.n-1)/seriesChunkPoints]
	end := last.times[(s.n-1)%seriesChunkPoints]
	n := int(end/bin) + 1
	sums := make([]float64, n)
	for ci, c := range s.chunks {
		limit := seriesChunkPoints
		if rem := s.n - ci*seriesChunkPoints; rem < limit {
			limit = rem
		}
		for i := 0; i < limit; i++ {
			idx := int(c.times[i] / bin)
			if idx >= n {
				idx = n - 1
			}
			sums[idx] += c.bits[i]
		}
	}
	ts := make([]float64, n)
	rates := make([]float64, n)
	for i := range sums {
		ts[i] = (float64(i) + 0.5) * bin
		rates[i] = sums[i] / bin / 1e6
	}
	return ts, rates
}

// refIfaceOut is newAgent's next-hop map construction.
func refIfaceOut(em *Domain, id graph.NodeID) map[wire.InterfaceID]graph.LinkID {
	ifaceOut := map[wire.InterfaceID]graph.LinkID{}
	for _, l := range em.Net.Out(id) {
		link := em.Net.Link(l)
		iface := wire.HashInterface(link.To, link.Tech)
		if prev, ok := ifaceOut[iface]; ok {
			// A parallel link to the same interface keeps the last-wins
			// rule; two different interfaces behind one 16-bit ID would
			// forward one neighbour's frames to the other.
			if p := em.Net.Link(prev); p.To != link.To || p.Tech != link.Tech {
				panic(fmt.Sprintf("node: agent %d: egress interfaces (node %d, %v) and (node %d, %v) share layer-2.5 ID %d",
					id, p.To, p.Tech, link.To, link.Tech, iface))
			}
		}
		ifaceOut[iface] = l
	}
	return ifaceOut
}

// refSourceTable is the agent's flow-ID-keyed source map with onAck's
// lookup.
type refSourceTable struct {
	id     graph.NodeID
	source map[uint16]*Flow
}

func (t *refSourceTable) lookup(src graph.NodeID, flowID uint16) *Flow {
	if src != t.id {
		return nil
	}
	return t.source[flowID]
}

type sinkKey struct {
	src    graph.NodeID
	flowID uint16
}

// refSinkTable is the agent's struct-keyed sink map with its lookups.
type refSinkTable struct {
	a     *Agent
	sinks map[sinkKey]*Sink
}

func (t *refSinkTable) sinkFor(src graph.NodeID, flowID uint16) *Sink {
	a := t.a
	k := sinkKey{src, flowID}
	s := t.sinks[k]
	if s == nil {
		s = newSink(a, src, flowID)
		t.sinks[k] = s
		a.em.Engine.Every(ackInterval, s.ackTick)
	}
	return s
}

func (t *refSinkTable) PeekSink(src graph.NodeID, flowID uint16) *Sink {
	return t.sinks[sinkKey{src, flowID}]
}

func (t *refSinkTable) Sinks() []*Sink {
	out := make([]*Sink, 0, len(t.sinks))
	for _, s := range t.sinks {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].src != out[j].src {
			return out[i].src < out[j].src
		}
		return out[i].flowID < out[j].flowID
	})
	return out
}
