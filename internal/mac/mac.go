// Package mac simulates the medium access layer of the paper's evaluation:
// a simplified CSMA/CA with perfect carrier sensing and no back-off
// (§5.1). A link may start transmitting only when no link in its
// interference domain is active; when a transmission ends, a uniformly
// random eligible contender grabs the medium. There are no collisions
// (sensing is perfect), so contention manifests purely as airtime sharing,
// exactly the abstraction the paper's model of §2 builds on.
//
// The steady-state packet path — enqueue, transmission start, completion,
// delivery — performs zero heap allocations: per-link queues are ring
// buffers of inline Packet values (they grow to the configured queue
// limit once and are reused forever), completion timers ride the
// engine's closure-free pooled scheduling, and packets cross the
// Deliver/Drop callbacks by value. Callbacks therefore must not retain a
// Packet's address; the value they receive is theirs, the queue slot it
// came from is not.
//
// A completion costs what it can start, not what it frees. The freed row
// is still shuffled in full — the draw sequence is part of the seeded
// trajectory — but in one pass that draws straight from a concrete
// stats.Source (a bit-exact twin of the math/rand stream the MAC was
// handed, shared with its owner through Rand) and picks out the links
// flagged as contenders, backlogged and idle, as their final positions
// settle. Only those are offered the medium, and the carrier-sense state
// is one busy count per interference cell (links with identical
// interference rows) instead of one per link. DESIGN.md's
// "allocation-free emulation fast path" section has the exactness
// arguments.
//
// The package also provides a fluid approximation (FluidDelivered) used by
// the analytic no-congestion-control baselines: it reproduces the
// congestion-collapse behaviour of saturated multihop paths without
// simulating individual packets.
package mac

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Packet is one MAC-layer frame in flight. Packets live inline in the
// per-link ring buffers and are handed to callbacks by value.
type Packet struct {
	// Bits is the frame size in bits (including layer-2.5 overhead).
	Bits float64
	// Payload carries upper-layer state (e.g. a wire frame); the MAC
	// never inspects it.
	Payload interface{}
	// Enqueued is the virtual time the packet entered the MAC queue.
	Enqueued float64
}

// DeliverFunc receives packets on the far end of a link. The packet is
// passed by value; the receiver owns it from here on.
type DeliverFunc func(l graph.LinkID, pkt Packet)

// DropReason classifies a packet loss. The enum is dense so per-reason
// counters live in a fixed array on LinkStats and the invariant checker
// can verify the totals without string comparisons.
type DropReason uint8

// Drop reasons.
const (
	// DropDeadLink rejects a Send on a link with zero capacity.
	DropDeadLink DropReason = iota
	// DropQueueOverflow is drop-tail on a full per-link FIFO.
	DropQueueOverflow
	// DropLinkDown flushes queued frames when a link's capacity reaches
	// zero mid-run (the frames are gone with the medium).
	DropLinkDown
	// DropChannelLoss is a per-packet channel error at reception (the
	// gray-failure model: the link is up, the airtime is consumed, the
	// frame is corrupt).
	DropChannelLoss
	// NumDropReasons sizes dense per-reason arrays.
	NumDropReasons
)

var dropReasonNames = [NumDropReasons]string{
	"dead-link", "queue-overflow", "link-down", "channel-loss",
}

func (r DropReason) String() string {
	if int(r) < len(dropReasonNames) {
		return dropReasonNames[r]
	}
	return "unknown"
}

// DropFunc observes packets lost to queue overflow, link death or
// channel errors (by value, like DeliverFunc).
type DropFunc func(l graph.LinkID, pkt Packet, reason DropReason)

// Options configures the MAC.
type Options struct {
	// QueueLimit is the per-link FIFO capacity in packets (default 100,
	// drop-tail).
	QueueLimit int
}

func (o Options) queueLimit() int {
	if o.QueueLimit <= 0 {
		return 100
	}
	return o.QueueLimit
}

// LinkStats accumulates per-link counters. DroppedPkts is incremented
// separately from the per-reason array (not derived from it), so the
// invariant DroppedPkts == Σ Dropped[r] is a real consistency check.
type LinkStats struct {
	DeliveredBits float64
	DeliveredPkts int
	DroppedPkts   int
	// Dropped counts losses by reason, indexed by DropReason.
	Dropped     [NumDropReasons]int
	BusySeconds float64
}

// ring is a FIFO of inline Packet values. It grows geometrically up to
// the queue limit and never shrinks, so steady-state enqueue/dequeue is
// allocation-free.
type ring struct {
	buf  []Packet
	head int
	n    int
}

func (r *ring) len() int { return r.n }

func (r *ring) at(i int) *Packet { return &r.buf[(r.head+i)%len(r.buf)] }

// push appends p; limit is the queue limit the ring's growth stops at
// (a push past it still finds room).
func (r *ring) push(p Packet, limit int) {
	if r.n == len(r.buf) {
		r.grow(limit)
	}
	r.buf[(r.head+r.n)%len(r.buf)] = p
	r.n++
}

func (r *ring) pop() Packet {
	p := r.buf[r.head]
	r.buf[r.head] = Packet{}
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return p
}

// truncate drops every packet past position keep, clearing the slots so
// payloads don't leak through the ring's backing array.
func (r *ring) truncate(keep int) {
	for i := keep; i < r.n; i++ {
		*r.at(i) = Packet{}
	}
	r.n = keep
}

func (r *ring) grow(limit int) {
	next := make([]Packet, min(max(8, 2*len(r.buf)), max(limit, r.n+1)))
	for i := 0; i < r.n; i++ {
		next[i] = *r.at(i)
	}
	r.buf = next
	r.head = 0
}

// completeArg binds a MAC and a link for the closure-free completion
// timer; one per link, allocated once at New.
type completeArg struct {
	m *MAC
	l graph.LinkID
}

func macComplete(arg any) {
	a := arg.(*completeArg)
	a.m.complete(a.l)
}

// MAC is the shared-medium scheduler. It must only be driven from the
// owning sim.Engine's event loop (single-threaded).
type MAC struct {
	engine *sim.Engine
	net    *graph.Network
	// src continues the stream New was handed; the contender shuffle
	// draws from it directly, everything else through rng over it.
	src  *stats.Source
	rng  *rand.Rand
	opts Options

	queues       []ring
	transmitting []bool
	// contender[l] is "backlogged and not transmitting", kept current at
	// every queue and transmission transition, so complete can skip the
	// links tryStart would turn away at its first test.
	contender []bool
	// Links with identical interference rows form a cell. Interference is
	// symmetric, so every row is a union of whole cells and all links of a
	// cell hear the same transmitters: cellBusy[c] counts the active
	// transmitters in I_l for every l with cellOf[l] == c (l may start
	// only at zero), and rowCells[c] lists the cells making up that row —
	// what a transmission start or end has to bump.
	cellOf   []int32
	cellBusy []int32
	rowCells [][]int32
	stats    []LinkStats
	// lossProb[l] is the live per-link channel error probability applied
	// per packet (dense; zero until SetLossProb sets it).
	lossProb []float64

	// completion[l] is the preallocated argument of link l's completion
	// timers; order and picks back the contender shuffle in complete.
	completion []completeArg
	order      []graph.LinkID
	picks      []graph.LinkID

	// Deliver is invoked when a packet crosses a link (after channel-loss
	// filtering). Drop is invoked on losses. Either may be nil.
	Deliver DeliverFunc
	Drop    DropFunc

	// rec is the optional flight recorder (nil: recording off). Records
	// are written on the engine's event loop, so the ring keeps its
	// single-writer discipline.
	rec *obs.Recorder
}

// New creates a MAC over the network's links. rng must run math/rand's
// default generator (stats.NewRand): the MAC takes its stream over —
// the caller draws through Rand from here on, and sees the values it
// would have drawn from rng.
func New(engine *sim.Engine, net *graph.Network, rng *rand.Rand, opts Options) *MAC {
	n := net.NumLinks()
	src := stats.Continue(rng)
	m := &MAC{
		engine:       engine,
		net:          net,
		src:          src,
		rng:          rand.New(src),
		opts:         opts,
		queues:       make([]ring, n),
		transmitting: make([]bool, n),
		contender:    make([]bool, n),
		stats:        make([]LinkStats, n),
		lossProb:     make([]float64, n),
		completion:   make([]completeArg, n),
	}
	m.cellOf, m.rowCells = interferenceCells(net)
	m.cellBusy = make([]int32, len(m.rowCells))
	for l := range m.completion {
		m.completion[l] = completeArg{m: m, l: graph.LinkID(l)}
	}
	return m
}

// interferenceCells partitions the links into cells of identical
// interference rows. cellOf[l] is link l's cell; rowCells[c] lists, once
// each, the cells of the links in the row shared by cell c's members.
// Rows are ascending and contain their own link, so all members of a
// cell sit in its lowest member's row: one walk of that row, comparing
// only rows whose hash agrees, finds them. With every row distinct the
// cells are the links and rowCells is the interference structure itself.
func interferenceCells(net *graph.Network) (cellOf []int32, rowCells [][]int32) {
	n := net.NumLinks()
	cellOf = make([]int32, n)
	hash := make([]uint64, n)
	for l := range cellOf {
		cellOf[l] = -1
		h := uint64(14695981039346656037)
		for _, i := range net.Interference(graph.LinkID(l)) {
			h = (h ^ uint64(i)) * 1099511628211
		}
		hash[l] = h
	}
	var lowest []graph.LinkID // per cell, its lowest member
	for l := range cellOf {
		if cellOf[l] >= 0 {
			continue
		}
		row := net.Interference(graph.LinkID(l))
		for _, j := range row {
			if cellOf[j] < 0 && hash[j] == hash[l] && slices.Equal(row, net.Interference(j)) {
				cellOf[j] = int32(len(lowest))
			}
		}
		lowest = append(lowest, graph.LinkID(l))
	}
	var flat []int32
	start := make([]int, len(lowest)+1)
	seenBy := make([]int32, len(lowest)) // cell c was listed for cell seenBy[c]-1
	for c, l := range lowest {
		for _, j := range net.Interference(l) {
			if cj := cellOf[j]; seenBy[cj] != int32(c)+1 {
				seenBy[cj] = int32(c) + 1
				flat = append(flat, cj)
			}
		}
		start[c+1] = len(flat)
	}
	rowCells = make([][]int32, len(lowest))
	for c := range rowCells {
		rowCells[c] = flat[start[c]:start[c+1]:start[c+1]]
	}
	return cellOf, rowCells
}

// SetRecorder attaches a flight recorder for tx-start, deliver and drop
// records. A nil recorder (the default) disables recording.
func (m *MAC) SetRecorder(r *obs.Recorder) { m.rec = r }

// Rand is the MAC's random stream — the continuation of the one New was
// handed — for everything else on the owning event loop to draw from.
func (m *MAC) Rand() *rand.Rand { return m.rng }

// QueueLen returns the backlog of link l in packets (including the packet
// currently on the air).
func (m *MAC) QueueLen(l graph.LinkID) int { return m.queues[l].len() }

// Stats returns a copy of link l's counters.
func (m *MAC) Stats(l graph.LinkID) LinkStats { return m.stats[l] }

// TotalStats folds every link's counters into one LinkStats — the
// sampling read of the observability layer.
func (m *MAC) TotalStats() LinkStats {
	var t LinkStats
	for l := range m.stats {
		st := &m.stats[l]
		t.DeliveredBits += st.DeliveredBits
		t.DeliveredPkts += st.DeliveredPkts
		t.DroppedPkts += st.DroppedPkts
		for r := range st.Dropped {
			t.Dropped[r] += st.Dropped[r]
		}
		t.BusySeconds += st.BusySeconds
	}
	return t
}

// TotalQueueLen sums the per-link backlogs — instantaneous queue
// occupancy across the MAC.
func (m *MAC) TotalQueueLen() int {
	n := 0
	for l := range m.queues {
		n += m.queues[l].len()
	}
	return n
}

// Busy reports whether link l is currently transmitting.
func (m *MAC) Busy(l graph.LinkID) bool { return m.transmitting[l] }

// QueueLimit returns the per-link FIFO capacity in packets.
func (m *MAC) QueueLimit() int { return m.opts.queueLimit() }

// LossProb returns link l's current channel error probability.
func (m *MAC) LossProb(l graph.LinkID) float64 { return m.lossProb[l] }

// SetLossProb sets link l's channel error probability, clamped to
// [0, 1] — the gray-failure hook (scenario set-loss events reach it via
// node.Emulation.SetLinkLoss). The RNG is only consulted for packets on
// links with positive loss, so setting (or leaving) zero never perturbs
// a trajectory.
func (m *MAC) SetLossProb(l graph.LinkID, p float64) {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	m.lossProb[l] = p
}

// CheckConsistency verifies the MAC's internal bookkeeping: queue
// lengths within the limit, a transmitting link has backlog, the
// contender flag set exactly on backlogged idle links, every link's cell
// count equal to the number of active transmitters in its interference
// set, and per-reason drop counters summing to the total. It is
// read-only and cheap enough for a periodic invariant checker.
func (m *MAC) CheckConsistency() error {
	for l := range m.queues {
		id := graph.LinkID(l)
		backlog := m.queues[l].len()
		if backlog > m.opts.queueLimit() {
			return fmt.Errorf("mac: link %d queue %d exceeds limit %d", l, backlog, m.opts.queueLimit())
		}
		if m.transmitting[l] && backlog == 0 {
			return fmt.Errorf("mac: link %d transmitting with empty queue", l)
		}
		if want := backlog > 0 && !m.transmitting[l]; m.contender[l] != want {
			return fmt.Errorf("mac: link %d contender flag %v with backlog %d, transmitting %v", l, m.contender[l], backlog, m.transmitting[l])
		}
		active := 0
		for _, i := range m.net.Interference(id) {
			if m.transmitting[i] {
				active++
			}
		}
		if c := m.cellOf[l]; int(m.cellBusy[c]) != active {
			return fmt.Errorf("mac: link %d cell %d busy=%d but %d active transmitters in its interference set", l, c, m.cellBusy[c], active)
		}
		st := &m.stats[l]
		sum := 0
		for _, c := range st.Dropped {
			sum += c
		}
		if sum != st.DroppedPkts {
			return fmt.Errorf("mac: link %d per-reason drops sum to %d, total says %d", l, sum, st.DroppedPkts)
		}
		if p := m.lossProb[l]; p < 0 || p > 1 {
			return fmt.Errorf("mac: link %d loss probability %g outside [0,1]", l, p)
		}
	}
	return nil
}

// Send enqueues a frame of the given size and payload on link l. It
// returns false (and invokes Drop) when the queue is full or the link is
// dead. The packet is built in place in the link's ring buffer — the
// caller never constructs one.
func (m *MAC) Send(l graph.LinkID, bits float64, payload interface{}) bool {
	pkt := Packet{Bits: bits, Payload: payload, Enqueued: m.engine.Now()}
	link := m.net.Link(l)
	if link.Capacity <= 0 {
		m.drop(l, pkt, DropDeadLink)
		return false
	}
	if m.queues[l].len() >= m.opts.queueLimit() {
		m.drop(l, pkt, DropQueueOverflow)
		return false
	}
	m.queues[l].push(pkt, m.opts.queueLimit())
	m.contender[l] = !m.transmitting[l]
	m.tryStart(l)
	return true
}

// LinkChanged notifies the MAC that link l's capacity was mutated
// mid-run (the scenario-engine hook). A link that died flushes its queue
// — the frames are gone with the medium, and holding them would leak
// their transport metadata and replay stale traffic on recovery — except
// for a frame already on the air, whose completion event is scheduled. A
// link that (re)gained capacity re-enters contention immediately; without
// the kick, queued frames would wait for the next Send to call tryStart.
func (m *MAC) LinkChanged(l graph.LinkID) {
	if m.net.Link(l).Capacity > 0 {
		m.tryStart(l)
		return
	}
	q := &m.queues[l]
	keep := 0
	if m.transmitting[l] {
		keep = 1 // in-flight frame: complete() pops it
	}
	for i := keep; i < q.len(); i++ {
		m.drop(l, *q.at(i), DropLinkDown)
	}
	q.truncate(keep)
	m.contender[l] = false // nothing is left behind the in-flight frame
}

func (m *MAC) drop(l graph.LinkID, pkt Packet, reason DropReason) {
	m.stats[l].DroppedPkts++
	m.stats[l].Dropped[reason]++
	if m.rec != nil {
		m.rec.Record(m.engine.Now(), obs.RecDrop, int32(l), int32(reason), pkt.Bits)
	}
	if m.Drop != nil {
		m.Drop(l, pkt, reason)
	}
}

// tryStart begins a transmission on l if it has backlog and its medium is
// idle.
func (m *MAC) tryStart(l graph.LinkID) {
	cell := m.cellOf[l]
	if !m.contender[l] || m.cellBusy[cell] > 0 {
		return
	}
	link := m.net.Link(l)
	if link.Capacity <= 0 {
		return
	}
	bits := m.queues[l].at(0).Bits
	m.transmitting[l] = true
	m.contender[l] = false
	for _, c := range m.rowCells[cell] {
		m.cellBusy[c]++
	}
	duration := bits / (link.Capacity * 1e6)
	m.stats[l].BusySeconds += duration
	if m.rec != nil {
		m.rec.Record(m.engine.Now(), obs.RecTxStart, int32(l), 0, bits)
	}
	m.engine.ScheduleFunc(duration, macComplete, &m.completion[l])
}

func (m *MAC) complete(l graph.LinkID) {
	m.transmitting[l] = false
	// Pop the frame that was on the air (LinkChanged keeps it at the
	// head even when the link died mid-flight).
	pkt := m.queues[l].pop()
	m.contender[l] = m.queues[l].len() > 0

	for _, c := range m.rowCells[m.cellOf[l]] {
		m.cellBusy[c]--
	}

	// Channel-error filtering happens at reception, as with real CSMA/CA
	// where the airtime is consumed regardless.
	lost := false
	if p := m.lossProb[l]; p > 0 && m.rng.Float64() < p {
		lost = true
	}
	if lost {
		m.drop(l, pkt, DropChannelLoss)
	} else {
		m.stats[l].DeliveredBits += pkt.Bits
		m.stats[l].DeliveredPkts++
		if m.rec != nil {
			m.rec.Record(m.engine.Now(), obs.RecDeliver, int32(l), 0, pkt.Bits)
		}
		if m.Deliver != nil {
			m.Deliver(l, pkt)
		}
	}

	// Hand the medium to the next contender(s): all links freed by this
	// completion, in uniformly random order (perfect sensing, no
	// back-off, no collisions). The whole row is shuffled — the draws are
	// part of the trajectory — but only contenders are offered the
	// medium: tryStart returns at its first test for every other link.
	picks := m.shuffledContenders(m.net.Interference(l))
	for k := len(picks) - 1; k >= 0; k-- {
		m.tryStart(picks[k])
	}
}

// shuffledContenders shuffles a copy of row exactly as
//
//	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
//
// does, consuming the same values of the stream, and returns the
// contenders of the shuffled row from its last position to its first.
// The shuffle is math/rand's Fisher–Yates from the top: step i draws
// j = int31n(i+1) — Lemire's multiply-shift over uint32(Int63()>>31),
// with its rejection loop — and swaps positions i and j. Rows are far
// shorter than 2³¹, so Shuffle's Int63n branch for longer inputs does
// not exist here. Later steps touch only positions below i, so position
// i is final after step i: its contender test is made there, and the
// swap need not write it back.
//
// Offering the medium in the reverse of the returned order is the
// shuffle-then-scan it replaces (reference_test.go keeps that form): no
// flag changes while the list is walked, since tryStart clears only the
// flag of the link it starts.
func (m *MAC) shuffledContenders(row []graph.LinkID) []graph.LinkID {
	src, contender := m.src, m.contender
	order := append(m.order[:0], row...)
	picks := m.picks[:0]
	for i := len(order) - 1; i > 0; i-- {
		n := uint32(i + 1)
		// uint32(Uint64()>>31) is uint32(Int63()>>31): the bit Int63
		// clears falls off the top.
		prod := uint64(uint32(src.Uint64()>>31)) * uint64(n)
		if low := uint32(prod); low < n {
			thresh := -n % n
			for low < thresh {
				prod = uint64(uint32(src.Uint64()>>31)) * uint64(n)
				low = uint32(prod)
			}
		}
		j := prod >> 32
		c := order[j]
		order[j] = order[i]
		if contender[c] {
			picks = append(picks, c)
		}
	}
	if len(order) > 0 && contender[order[0]] {
		picks = append(picks, order[0])
	}
	m.order, m.picks = order[:0], picks[:0]
	return picks
}
