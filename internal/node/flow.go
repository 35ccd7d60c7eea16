package node

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/congestion"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/wire"
)

// TrafficKind selects the application driving a flow.
type TrafficKind int

// Traffic kinds.
const (
	// TrafficSaturated models a saturated UDP iperf source.
	TrafficSaturated TrafficKind = iota
	// TrafficFile models a file download of FileBytes.
	TrafficFile
	// TrafficExternal is pushed by an external layer (e.g. the mini-TCP
	// of package transport) via Push.
	TrafficExternal
)

// ErrOverRate is returned by Push when the congestion controller's token
// bucket is empty: the rate from the layers above exceeds the flow's
// allocation, so the packet is dropped (TCP perceives this as congestion,
// §6.4).
var ErrOverRate = errors.New("node: send rate above congestion-control allocation")

// FlowSpec configures AddFlow.
type FlowSpec struct {
	Src, Dst graph.NodeID
	// Routes are the preselected routes from the routing protocol.
	Routes []graph.Path
	Kind   TrafficKind
	// FileBytes is the download size for TrafficFile.
	FileBytes int64
	// TCP marks the flow as TCP for the §6.4 δ signalling.
	TCP bool
}

// Flow is the source-side state of one EMPoWER flow.
type Flow struct {
	ID       uint16
	Src, Dst graph.NodeID
	spec     FlowSpec

	em    *Domain
	agent *Agent

	routes    []graph.Path
	ifaceIDs  [][]wire.InterfaceID
	firstLink []graph.LinkID

	// Congestion-control state (proximal multipath controller).
	x, xbar []float64
	tuner   *congestion.AlphaTuner
	// seqBuf is scratch for the sequential-rate warm starts
	// (installRoutes) and reuses its backing array across route swaps.
	seqBuf []float64

	// Token bucket shaping at rate Σx (bits), with a small queue ahead
	// of the drop decision to absorb transport bursts.
	tokens     float64
	lastRefil  float64
	shapeQ     []shapedPkt
	drainTimer sim.TimerRef

	seq uint32
	// lastAckAt is the virtual time of the most recent acknowledgement
	// (-1 before the first): the freshness signal the invariant checker
	// gates its rate-vs-capacity bound on (a flow whose acks stopped
	// coasts on stale rates, which is correct behaviour, not a violation).
	lastAckAt float64
	// File-transfer accounting (TrafficFile): downloads are reliable —
	// the source keeps sending until the destination has confirmed
	// FileBytes of payload through the 100 ms acknowledgements (lost
	// packets are covered by fresh ones, as a reliable transport would).
	confirmedBytes int64
	active         bool
	sendTimer      sim.TimerRef

	// routeLogs[r] logs what the flow sent on route r (Figure 9's "rate
	// sent on Route i" series); retired holds the logs of route sets a
	// reroute replaced, so the union of both covers every packet the flow
	// ever sent.
	routeLogs []*seriesLog
	retired   []*seriesLog
}

// AddFlow registers a flow and starts its traffic at virtual time
// startAt. A flow lives entirely inside its source's interference domain:
// there are no cross-domain links, so route validation rejects anything
// else naturally. Flow IDs are unique only within a domain (they only
// ride intra-domain frames).
func (e *Emulation) AddFlow(spec FlowSpec, startAt float64) (*Flow, error) {
	return e.doms[e.nodeDom[spec.Src]].addFlow(spec, startAt)
}

func (e *Domain) addFlow(spec FlowSpec, startAt float64) (*Flow, error) {
	f := &Flow{
		ID:        uint16(len(e.flows) + 1),
		Src:       spec.Src,
		Dst:       spec.Dst,
		spec:      spec,
		em:        e,
		agent:     e.Agents[spec.Src],
		lastAckAt: -1,
	}
	// The warm start reads ground truth, as the source's route selection
	// did.
	if err := f.installRoutes(e.Net, spec.Routes); err != nil {
		return nil, err
	}
	e.flows = append(e.flows, f)
	f.agent.addSource(f)
	if spec.TCP {
		f.agent.tcpSeen = true
	}
	e.Engine.AtFunc(startAt, flowStart, f)
	return f, nil
}

// installRoutes is the one route-install path, behind AddFlow and every
// route swap. It validates every route (a path from Src to Dst, at most
// wire.MaxHops hops) before it mutates anything, then installs the set:
// interface IDs and first hops, congestion-control state warm-started at
// 85 % of the sequential residual rates R(P) on view (the §3.2
// exploration-tree loading), floored at initialRate, a fresh α tuner,
// and one empty sent-packet log per route, the previous set's logs
// retired. Warm starting reproduces the paper's behaviour of reaching
// near-target rates within seconds (Figure 9/10-right), and makes a
// mid-failure reroute cost tens of controller slots instead of a ramp.
func (f *Flow) installRoutes(view *graph.Network, routes []graph.Path) error {
	if len(routes) == 0 {
		return ErrNoRoutes
	}
	ifaceIDs := make([][]wire.InterfaceID, len(routes))
	firsts := make([]graph.LinkID, len(routes))
	longest := 0
	for i, r := range routes {
		if err := f.em.Net.ValidatePath(r, f.Src, f.Dst); err != nil {
			return fmt.Errorf("node: flow route invalid: %w", err)
		}
		if len(r) > wire.MaxHops {
			return wire.ErrRouteTooLong
		}
		longest = max(longest, len(r))
		ifaceIDs[i] = make([]wire.InterfaceID, len(r))
		for h, l := range r {
			link := f.em.Net.Link(l)
			ifaceIDs[i][h] = wire.HashInterface(link.To, link.Tech)
		}
		firsts[i] = r[0]
	}
	n := len(routes)
	f.routes = append([]graph.Path(nil), routes...)
	f.ifaceIDs = ifaceIDs
	f.firstLink = firsts
	f.x = make([]float64, n)
	f.xbar = make([]float64, n)
	f.retired = append(f.retired, f.routeLogs...)
	f.routeLogs = newRouteLogs(n)
	f.seqBuf = routing.AppendSequentialRates(view, f.routes, f.seqBuf[:0])
	for i, r := range f.seqBuf {
		f.x[i] = max(0.85*r, initialRate)
		f.xbar[i] = f.x[i]
	}
	f.tuner = congestion.NewAlphaTuner(flowAlphaBase, n, longest)
	return nil
}

// newRouteLogs returns one empty sent-packet log per route.
func newRouteLogs(n int) []*seriesLog {
	logs := make([]*seriesLog, n)
	for i := range logs {
		logs[i] = &seriesLog{}
	}
	return logs
}

func flowStart(arg any) { arg.(*Flow).start() }

func (f *Flow) start() {
	f.active = true
	f.lastRefil = f.em.Engine.Now()
	f.scheduleNext()
}

// Stop halts the flow's traffic.
func (f *Flow) Stop() {
	f.active = false
	f.sendTimer.Cancel()
}

// AppendRates appends the current per-route congestion-control rates
// (Mbps) to dst and returns it.
func (f *Flow) AppendRates(dst []float64) []float64 { return append(dst, f.x...) }

// TotalRate returns Σ_r x_r (Mbps).
func (f *Flow) TotalRate() float64 {
	var s float64
	for _, v := range f.x {
		s += v
	}
	return s
}

// Routes returns the flow's routes.
func (f *Flow) Routes() []graph.Path { return f.routes }

// Active reports whether the flow is currently emitting traffic.
func (f *Flow) Active() bool { return f.active }

// CC reports whether the flow runs under congestion control (false for
// the w/o-CC baselines).
func (f *Flow) CC() bool { return !f.em.cfg.DisableCC }

// InjectedPackets returns the number of data packets the source has
// built so far (the sequence-number high-water mark; an upper bound on
// what any sink can deliver or declare lost).
func (f *Flow) InjectedPackets() int { return int(f.seq) }

// LastAckAt returns the virtual time of the most recent acknowledgement
// (-1 if none arrived yet).
func (f *Flow) LastAckAt() float64 { return f.lastAckAt }

// Done reports whether a file flow's payload has been confirmed
// delivered in full.
func (f *Flow) Done() bool {
	return f.spec.Kind == TrafficFile && f.confirmedBytes >= f.spec.FileBytes
}

// fileSendable reports whether a file flow should still emit packets: the
// transfer is reliable, so sending continues (covering losses with fresh
// payload) until the destination confirmed the full file.
func (f *Flow) fileSendable() bool {
	if f.spec.Kind != TrafficFile {
		return true
	}
	return f.confirmedBytes < f.spec.FileBytes
}

// flowSendTick is the closure-free body of the per-packet send timer.
func flowSendTick(arg any) {
	f := arg.(*Flow)
	f.emitOne()
	f.scheduleNext()
}

// scheduleNext arms the next packet transmission for self-clocked
// sources.
func (f *Flow) scheduleNext() {
	if !f.active || f.spec.Kind == TrafficExternal {
		return
	}
	if !f.fileSendable() {
		return
	}
	pktBits := float64(packetBytes) * 8
	var gap float64
	if f.em.cfg.DisableCC {
		// Without congestion control the source keeps its first hops
		// backlogged: inject as fast as the MAC drains (poll at a fine
		// interval and top the queues up).
		gap = 0.0005
	} else {
		rate := f.TotalRate() * 1e6 // bits per second
		if rate < 1e4 {
			rate = 1e4
		}
		gap = pktBits / rate
	}
	f.sendTimer = f.em.Engine.ScheduleFunc(gap, flowSendTick, f)
}

// emitOne sends one packet (or tops up queues in w/o-CC mode).
func (f *Flow) emitOne() {
	if !f.active {
		return
	}
	if f.em.cfg.DisableCC {
		// Keep up to 4 packets queued per route's first hop. A dead first
		// hop rejects every send without the queue growing — skip it, or
		// the top-up loop would spin forever (scenario link failures hit
		// this; w/o-CC sources just blast into the void and lose).
		for r := range f.routes {
			if f.em.Net.Link(f.firstLink[r]).Capacity <= 0 {
				continue
			}
			for f.em.MAC.QueueLen(f.firstLink[r]) < 4 {
				if !f.fileSendable() {
					return
				}
				f.sendPacket(r, packetBytes, nil)
			}
		}
		return
	}
	if !f.fileSendable() {
		return
	}
	r := f.pickRoute()
	f.sendPacket(r, packetBytes, nil)
}

// pickRoute samples a route with probability proportional to x_r (§6.1:
// "each packet is sent over route r with a probability proportional to
// the rate x_r").
func (f *Flow) pickRoute() int {
	total := f.TotalRate()
	if total <= 0 {
		return 0
	}
	u := f.em.rng.Float64() * total
	for i, v := range f.x {
		u -= v
		if u <= 0 {
			return i
		}
	}
	return len(f.x) - 1
}

// shapedPkt is a packet waiting for tokens in the shaping queue.
type shapedPkt struct {
	bytes int
	meta  interface{}
}

// shapeQueueLimit bounds the shaping queue ahead of the congestion
// controller's drop decision (packets).
const shapeQueueLimit = 30

// Push injects an externally produced packet (TrafficExternal flows, e.g.
// TCP segments). The congestion controller shapes with a token bucket at
// rate Σx; a short queue absorbs transport bursts, and packets beyond it
// are dropped with ErrOverRate (which TCP perceives as congestion, §6.4).
func (f *Flow) Push(payloadBytes int, meta interface{}) error {
	if !f.active {
		return errors.New("node: flow not active")
	}
	if !f.em.cfg.DisableCC {
		f.refillTokens()
		need := float64(payloadBytes) * 8
		if len(f.shapeQ) > 0 || f.tokens < need {
			if len(f.shapeQ) >= shapeQueueLimit {
				return ErrOverRate
			}
			f.shapeQ = append(f.shapeQ, shapedPkt{payloadBytes, meta})
			f.armDrain()
			return nil
		}
		f.tokens -= need
	}
	f.sendPacket(f.pickRoute(), payloadBytes, meta)
	return nil
}

// armDrain schedules the shaping queue to drain when enough tokens have
// accumulated for its head packet.
func (f *Flow) armDrain() {
	if f.drainTimer.Active() || len(f.shapeQ) == 0 {
		return
	}
	need := float64(f.shapeQ[0].bytes) * 8
	rate := f.TotalRate() * 1e6
	if rate < 1e4 {
		rate = 1e4
	}
	wait := (need - f.tokens) / rate
	// Floor the wait at 0.1 ms: a float-precision-zero wait would respin
	// the drain at the same virtual instant forever.
	if wait < 1e-4 {
		wait = 1e-4
	}
	f.drainTimer = f.em.Engine.ScheduleFunc(wait, flowDrain, f)
}

func flowDrain(arg any) { arg.(*Flow).drainShaped() }

func (f *Flow) drainShaped() {
	f.drainTimer = sim.TimerRef{}
	if !f.active {
		f.shapeQ = nil
		return
	}
	f.refillTokens()
	for len(f.shapeQ) > 0 {
		p := f.shapeQ[0]
		need := float64(p.bytes) * 8
		if f.tokens < need {
			break
		}
		f.tokens -= need
		f.shapeQ = f.shapeQ[1:]
		f.sendPacket(f.pickRoute(), p.bytes, p.meta)
	}
	f.armDrain()
}

func (f *Flow) refillTokens() {
	now := f.em.Engine.Now()
	dt := now - f.lastRefil
	if dt <= 0 {
		return
	}
	f.lastRefil = now
	f.tokens += f.TotalRate() * 1e6 * dt
	// Bucket depth: 100 ms worth of traffic (one ack interval).
	max := f.TotalRate() * 1e6 * 0.1
	if max < 8*12000 {
		max = 8 * 12000
	}
	if f.tokens > max {
		f.tokens = max
	}
}

// sendPacket builds one data frame on route r in a pooled packet and
// offers it to the MAC. The pool owns the frame from the moment it is
// handed to sendOnLink: a failed send already released it through the
// MAC's drop callback.
func (f *Flow) sendPacket(r int, payloadBytes int, meta interface{}) {
	p := f.em.pkts.get()
	df := &p.frame
	df.Src = f.Src
	df.Dst = f.Dst
	df.FlowID = f.ID
	df.RouteIdx = uint8(r)
	df.Hop = 0
	df.SentAt = f.em.Engine.Now()
	df.PayloadLen = uint16(payloadBytes)
	df.Header.Seq = f.seq
	f.seq++
	if err := df.Header.SetRoute(f.ifaceIDs[r]); err != nil {
		panic(err) // routes validated at AddFlow
	}
	p.meta = meta
	first := f.firstLink[r]
	f.agent.addPrice(first, &df.Header)
	bits := frameBits(df)
	if f.agent.sendOnLink(first, bits, p) {
		f.routeLogs[r].add(f.em.Engine.Now(), bits)
	}
}

// onAck applies the §4.3 proximal update per acknowledged route and
// advances the reliable-transfer confirmation counter.
func (f *Flow) onAck(ack *wire.AckFrame) {
	f.lastAckAt = f.em.Engine.Now()
	for _, ra := range ack.Routes {
		f.confirmedBytes += int64(ra.Delivered)
	}
	if f.em.cfg.DisableCC {
		return
	}
	alpha := f.tuner.Alpha()
	total := f.TotalRate()
	for _, ra := range ack.Routes {
		r := int(ra.RouteIdx)
		if r >= len(f.x) {
			continue
		}
		q := ra.QR
		nx, nxbar := congestion.ProximalUpdate(f.x[r], f.xbar[r], congestion.DefaultUtilityScale, alpha, congestion.ProportionalFairness{}.Prime(total), q)
		// Cap at the route's estimated bottleneck to suppress transients.
		if cap := f.routeCap(r); nx > cap {
			nx = cap
		}
		f.xbar[r] = nxbar
		f.x[r] = nx
	}
	f.tuner.Observe(f.TotalRate())
}

func (f *Flow) routeCap(r int) float64 {
	cap := math.Inf(1)
	for _, l := range f.routes[r] {
		if c := f.em.linkEstimate(l); c < cap {
			cap = c
		}
	}
	return cap
}

// SentRateSeries returns the injected rate (Mbps) in bins of binSeconds,
// over every route the flow ever sent on.
func (f *Flow) SentRateSeries(binSeconds float64) ([]float64, []float64) {
	return rebin(slices.Concat(f.retired, f.routeLogs), binSeconds)
}

// RouteRateSeries returns the per-route injected rate series.
func (f *Flow) RouteRateSeries(r int, binSeconds float64) ([]float64, []float64) {
	return f.routeLogs[r].series(binSeconds)
}
