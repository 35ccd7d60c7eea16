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
// holds all come from per-domain free lists and return to them when
// consumed. The ownership rule is strict — whoever takes a pooled object
// off the MAC or the engine either hands it on or frees it, and nobody
// holds a pooled pointer across events after freeing it.
package node

import (
	"repro/internal/graph"
	"repro/internal/optimal"
)

// Config tunes the emulation.
type Config struct {
	// PriceInterval is the price-broadcast and γ-update period (default
	// 0.1 s).
	PriceInterval float64
	// Delta is the constraint margin δ (default 0; §6.3 uses 0.05, §6.4
	// uses 0.3 for TCP).
	Delta float64
	// DelayEqualize enables destination-side delay equalization across
	// routes (§6.4; default off).
	DelayEqualize bool
	// DisableCC turns congestion control off (the w/o-CC baselines):
	// sources keep their first hops backlogged and no shaping occurs.
	DisableCC bool
	// Estimation enables noisy link-capacity estimation (package
	// linkest) instead of oracle capacities for the price terms
	// (default true in testbed experiments; tests may disable it).
	Estimation bool
	// Recorder, when positive, attaches a flight recorder of that many
	// records (rounded up to a power of two) to every domain engine and
	// its MAC. Recording costs one ring-index write per event and is
	// purely observational: it draws no RNG and schedules nothing, so
	// the trajectory is identical with it on or off. Zero disables
	// recording entirely (the default; also the zero-alloc-guard path).
	Recorder int
}

// The §6.1 node-stack constants. Each MAC queue holds mac.Options'
// default 100 packets; the proximal gain is congestion.DefaultUtilityScale.
const (
	// ackInterval is the destination acknowledgement period: at most 10
	// acks per second, as in the paper.
	ackInterval float64 = 0.1
	// gammaAlpha is the dual step size of the per-link γ updates.
	gammaAlpha float64 = 0.1
	// flowAlphaBase is the base α of the per-flow rate updates, adapted
	// by the paper's heuristic (congestion.AlphaTuner).
	flowAlphaBase float64 = 0.02
	// packetBytes is the application payload per packet.
	packetBytes = 1500
	// reportStale expires neighbour price reports after this many
	// seconds.
	reportStale float64 = 0.5
	// initialRate floors each route's warm-start rate in Mbps.
	initialRate float64 = 0.5
)

func (c *Config) priceInterval() float64 {
	if c.PriceInterval <= 0 {
		return 0.1
	}
	return c.PriceInterval
}

// Emulation is the emulated network: one closed Domain per interference
// domain of the topology, and the coordinator state that dispatches every
// operation to the domain owning its link or node. Net is the caller's
// network, which every domain works on, so its link capacities are the
// live ground truth; Agents merges the per-domain agents (Agents[n] lives
// in node n's domain).
type Emulation struct {
	Net    *graph.Network
	Agents []*Agent

	doms    []*Domain
	nodeDom []int
	linkDom []int
	initCap []float64 // every link's capacity at construction, by LinkID
	windows uint64    // completed Run calls
	// released is set by Release; Run refuses to advance afterwards.
	released bool
}

// NewEmulation builds the emulated network, decomposed into its
// interference domains (optimal.InterferenceDomains; a connected topology
// is the one-domain instance). The decomposition merges links across
// interference and shared endpoints, which closes each domain under every
// interaction the emulation has — MAC contention, frame forwarding, price
// earshot, flow paths — so domains exchange no events at runtime. All
// domains share net; the one read that crosses domains, a foreign link's
// capacity in a domain's aggregate routing signal, comes from a snapshot
// taken here, so the order Run advances the domains in never changes a
// byte.
func NewEmulation(net *graph.Network, cfg Config, seed int64) *Emulation {
	dec := optimal.InterferenceDomains(net)
	e := &Emulation{
		Net:     net,
		Agents:  make([]*Agent, net.NumNodes()),
		doms:    make([]*Domain, dec.Num),
		nodeDom: dec.Node,
		linkDom: dec.Link,
		initCap: make([]float64, net.NumLinks()),
	}
	for l := range e.initCap {
		e.initCap[l] = net.Link(graph.LinkID(l)).Capacity
	}
	for d := range e.doms {
		e.doms[d] = newDomain(net, cfg, domainSeed(seed, d, dec.Num), dec.Node, d, e.initCap)
	}
	for n := range e.Agents {
		e.Agents[n] = e.doms[dec.Node[n]].Agents[n]
	}
	return e
}

// Release hands the run's per-packet memory back to the package pools:
// every sink's delivery log and reorder ring, and every flow's
// sent-packet logs, current and retired. Call it once every read of the
// run is done; it moves no value and no draw, only the time at which the
// buffers are freed. It is idempotent. Afterwards the rate readers
// (RateSeries, MeanRate, SentRateSeries, RouteRateSeries) and Run panic
// rather than read recycled memory; the counters (TotalBytes, Lost,
// Reroutes, ...) stay readable.
func (e *Emulation) Release() {
	if e.released {
		return
	}
	e.released = true
	for _, d := range e.doms {
		for _, a := range d.Agents {
			if a == nil {
				continue
			}
			for _, s := range a.sinks {
				if s != nil {
					s.release()
				}
			}
		}
		for _, f := range d.flows {
			f.release()
		}
	}
}

// InitCapacity returns link l's capacity when the emulation was built —
// the reference of scale-capacity events and the value a link that
// never failed recovers to.
func (e *Emulation) InitCapacity(l graph.LinkID) float64 { return e.initCap[l] }

// Agent returns node id's agent.
func (e *Emulation) Agent(id graph.NodeID) *Agent { return e.Agents[id] }

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
//
// The new value is written to Net, the one network every domain shares;
// only the owning domain reads it live.
func (e *Emulation) SetLinkCapacity(l graph.LinkID, c float64) {
	e.doms[e.linkDom[l]].setLinkCapacity(l, c)
}

// SetLinkLoss sets link l's channel error probability at the current
// virtual time — the gray-failure scenario hook (set-loss events). The
// link stays up: frames still consume airtime and a fraction p of them
// is dropped at reception. Like SetLinkCapacity, detection is honest —
// the estimator samples the effective capacity c·(1−p), so congestion
// control and routing see the degradation only through the noisy
// estimates, never through an oracle shortcut.
func (e *Emulation) SetLinkLoss(l graph.LinkID, p float64) {
	e.doms[e.linkDom[l]].MAC.SetLossProb(l, p)
}

// LinkLoss returns link l's current channel error probability.
func (e *Emulation) LinkLoss(l graph.LinkID) float64 {
	return e.doms[e.linkDom[l]].MAC.LossProb(l)
}

// CapacityEpoch counts link l's capacity changes since construction.
// Two equal readings bracket an interval with no capacity transition —
// what lets the invariant checker reason about a sampled window instead
// of just its endpoints.
func (e *Emulation) CapacityEpoch(l graph.LinkID) uint32 {
	return e.doms[e.linkDom[l]].capEpoch[l]
}

// LinkEstimate exposes the capacity estimate feeding the price terms
// (the invariant checker bounds controller rates against it), read from
// the owning domain's estimator.
func (e *Emulation) LinkEstimate(l graph.LinkID) float64 {
	return e.doms[e.linkDom[l]].linkEstimate(l)
}
