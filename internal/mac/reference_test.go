package mac

// The per-link-blocked-count MAC that the contender-flag / cell-count
// kernels replaced, kept verbatim (renamed) as an executable
// specification: equivalence_test.go drives it and the live MAC from
// identical seeds and scripts and demands the same callback sequence, the
// same LinkStats and the same next RNG value. Same pattern as the
// reference_test.go oracles in routing, congestion and optimal. Below it,
// the shuffle-then-scan tail the fused kernel replaced.

import (
	"math/rand"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/sim"
)

type refCompleteArg struct {
	m *referenceMAC
	l graph.LinkID
}

func refMACComplete(arg any) {
	a := arg.(*refCompleteArg)
	a.m.complete(a.l)
}

// referenceMAC walks the finishing link's whole interference row three
// times per frame: blocked[] down, rng.Shuffle, tryStart on every entry
// (which walks the starter's row again for blocked[] up).
type referenceMAC struct {
	engine *sim.Engine
	net    *graph.Network
	rng    *rand.Rand
	opts   Options

	queues       []ring
	transmitting []bool
	// blocked[l] counts active transmitters in I_l; l may start only when
	// blocked[l] == 0.
	blocked  []int
	stats    []LinkStats
	lossProb []float64

	completion     []refCompleteArg
	shuffleScratch []graph.LinkID

	Deliver DeliverFunc
	Drop    DropFunc

	rec *obs.Recorder // always nil: keeps the bodies below verbatim
}

func newReference(engine *sim.Engine, net *graph.Network, rng *rand.Rand, opts Options) *referenceMAC {
	n := net.NumLinks()
	m := &referenceMAC{
		engine:       engine,
		net:          net,
		rng:          rng,
		opts:         opts,
		queues:       make([]ring, n),
		transmitting: make([]bool, n),
		blocked:      make([]int, n),
		stats:        make([]LinkStats, n),
		lossProb:     make([]float64, n),
		completion:   make([]refCompleteArg, n),
	}
	for l := range m.completion {
		m.completion[l] = refCompleteArg{m: m, l: graph.LinkID(l)}
	}
	return m
}

// Send enqueues a frame of the given size and payload on link l. It
// returns false (and invokes Drop) when the queue is full or the link is
// dead. The packet is built in place in the link's ring buffer — the
// caller never constructs one.
func (m *referenceMAC) Send(l graph.LinkID, bits float64, payload interface{}) bool {
	pkt := Packet{Bits: bits, Payload: payload}
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
func (m *referenceMAC) LinkChanged(l graph.LinkID) {
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
}

func (m *referenceMAC) drop(l graph.LinkID, pkt Packet, reason DropReason) {
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
func (m *referenceMAC) tryStart(l graph.LinkID) {
	if m.transmitting[l] || m.queues[l].len() == 0 || m.blocked[l] > 0 {
		return
	}
	link := m.net.Link(l)
	if link.Capacity <= 0 {
		return
	}
	bits := m.queues[l].at(0).Bits
	m.transmitting[l] = true
	for _, i := range m.net.Interference(l) {
		m.blocked[i]++
	}
	duration := bits / (link.Capacity * 1e6)
	m.stats[l].BusySeconds += duration
	if m.rec != nil {
		m.rec.Record(m.engine.Now(), obs.RecTxStart, int32(l), 0, bits)
	}
	m.engine.ScheduleFunc(duration, refMACComplete, &m.completion[l])
}

func (m *referenceMAC) complete(l graph.LinkID) {
	m.transmitting[l] = false
	// Pop the frame that was on the air (LinkChanged keeps it at the
	// head even when the link died mid-flight).
	pkt := m.queues[l].pop()

	for _, i := range m.net.Interference(l) {
		m.blocked[i]--
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
	// back-off, no collisions).
	cands := m.net.Interference(l)
	order := append(m.shuffleScratch[:0], cands...)
	m.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	for _, c := range order {
		m.tryStart(c)
	}
	m.shuffleScratch = order[:0]
}

// The live MAC's completion tail before the fused shuffle-and-pick kernel
// (shuffledContenders), kept as its oracle: copy the row, shuffle the
// copy in full, then scan it for contenders.

// shuffleLinks permutes order exactly as
//
//	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
//
// does, consuming the same values from rng: math/rand's Fisher-Yates
// from the top, each index drawn by the Lemire multiply-shift over
// uint32(Int63()>>31) with its rejection loop.
func shuffleLinks(rng *rand.Rand, order []graph.LinkID) {
	for i := len(order) - 1; i > 0; i-- {
		n := uint32(i + 1)
		prod := uint64(uint32(rng.Int63()>>31)) * uint64(n)
		if low := uint32(prod); low < n {
			thresh := -n % n
			for low < thresh {
				prod = uint64(uint32(rng.Int63()>>31)) * uint64(n)
				low = uint32(prod)
			}
		}
		j := int(prod >> 32)
		order[i], order[j] = order[j], order[i]
	}
}

// referencePicks is the order in which the two-pass tail offered the
// medium: the flagged entries of the fully shuffled row, first to last.
func referencePicks(rng *rand.Rand, row []graph.LinkID, contender []bool) []graph.LinkID {
	order := append([]graph.LinkID(nil), row...)
	shuffleLinks(rng, order)
	var picks []graph.LinkID
	for _, c := range order {
		if contender[c] {
			picks = append(picks, c)
		}
	}
	return picks
}
