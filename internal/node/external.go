package node

import (
	"repro/internal/graph"
)

// ExternalSource is a non-EMPoWER station transmitting on a link: it
// injects raw MAC frames at a fixed rate, oblivious to prices and
// acknowledgements. EMPoWER agents measure its airtime by carrier
// sensing (the §4.3 mechanism: "nodes can measure traffic from external
// nodes and add the corresponding airtimes in (7)") and converge to the
// optimal allocation under that external load without disturbing it.
type ExternalSource struct {
	bits float64 // per-packet size

	periodic interface{ Stop() }
}

// AddExternalSource starts a constant-rate external transmitter on the
// given link (payload 1500 B frames at rate Mbps). The source itself is
// the MAC payload — agents ignore payloads they don't recognize, exactly
// how EMPoWER nodes treat foreign traffic.
func (e *Emulation) AddExternalSource(l graph.LinkID, rate float64) *ExternalSource {
	s := &ExternalSource{bits: 1500 * 8}
	gap := s.bits / (rate * 1e6)
	d := e.doms[e.linkDom[l]]
	s.periodic = d.Engine.Every(gap, func() {
		d.MAC.Send(l, s.bits, s)
	})
	return s
}

// Stop halts the source.
func (s *ExternalSource) Stop() { s.periodic.Stop() }

// externalBusy tracks carrier-sensed airtime for one agent and
// technology. Busy time is attributed to the transmitting node (WiFi and
// PLC frame headers identify the transmitter); the slice of a node's
// busy time that exceeds what its price broadcast claims — or, for this
// agent itself, what it offered to the MAC — is external traffic.
type externalBusy struct {
	// lastBusy is the previous BusySeconds reading per sensed link,
	// dense by LinkID.
	lastBusy []float64
	// ewma smooths the measured external airtime.
	ewma float64
}

// senseSet returns the links of technology tech whose transmissions the
// agent can sense: everything interfering with one of its egress links of
// that technology. Precomputed per technology at agent construction (the
// interference sets are static).
func (a *Agent) senseSet(tech graph.Tech) []graph.LinkID {
	seen := map[graph.LinkID]bool{}
	var out []graph.LinkID
	for _, l := range a.em.Net.Out(a.id) {
		if a.em.Net.Link(l).Tech != tech {
			continue
		}
		for _, i := range a.em.Net.Interference(l) {
			if !seen[i] && a.em.Net.Link(i).Tech == tech {
				seen[i] = true
				out = append(out, i)
			}
		}
	}
	return out
}

// measureExternal returns the smoothed external airtime on a technology.
// Sensed busy time is grouped by transmitter; each transmitter's busy
// slice is compared against the EMPoWER airtime that transmitter claims
// (its overheard price broadcast, or this agent's own offered demand).
// Unclaimed busy time is external traffic and enters y_l per §4.3.
//
// The accumulation runs over dense per-node scratch in ascending node
// order: float addition is not associative, so map-order iteration would
// make runs diverge in the low bits and compound through the price
// feedback loop.
func (a *Agent) measureExternal(tech graph.Tech) float64 {
	eb := &a.extBusy[tech]
	interval := a.em.cfg.priceInterval()
	now := a.em.Engine.Now()

	// Busy airtime per transmitting node over the last interval.
	busy := a.busyScratch
	for i := range busy {
		busy[i] = 0
	}
	for _, l := range a.sense[tech] {
		cur := a.em.MAC.Stats(l).BusySeconds
		delta := cur - eb.lastBusy[l]
		eb.lastBusy[l] = cur
		if delta > 0 {
			busy[a.em.Net.Link(l).From] += delta / interval
		}
	}
	var external float64
	for ni := range busy {
		if busy[ni] == 0 {
			continue
		}
		n := graph.NodeID(ni)
		var claimed float64
		if n == a.id {
			claimed = a.ownAirtime(tech)
		} else if rep := &a.reports[tech][n]; rep.heardAt >= 0 && now-rep.heardAt <= reportStale {
			claimed = rep.airtime
		}
		if busy[ni] > claimed {
			external += busy[ni] - claimed
		}
	}
	const gain = 0.3
	eb.ewma += gain * (external - eb.ewma)
	// Suppress measurement noise below 2% airtime.
	if eb.ewma < 0.02 {
		return 0
	}
	return eb.ewma
}
