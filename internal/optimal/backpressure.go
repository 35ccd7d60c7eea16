package optimal

import (
	"repro/internal/congestion"
	"repro/internal/graph"
)

// Backpressure is a time-slotted simulator of the utility-optimal
// backpressure scheme (Neely et al.) the paper uses as its "optimal"
// reference: per-destination queues, max-weight link scheduling over the
// conflict graph, and utility-based flow control at the sources. The
// paper's point — reproduced by this implementation — is that although the
// scheme is throughput-optimal at steady state, good routes are used only
// after queues on bad routes fill up, so convergence takes thousands of
// time slots versus tens for EMPoWER.
type Backpressure struct {
	net   *graph.Network
	flows []FlowSpec
	cg    *ConflictGraph

	// V is the utility-vs-queue-backlog trade-off parameter; larger V
	// approaches the optimum more closely but grows queues and slows
	// convergence further. Default 2000.
	V float64
	// SlotSeconds is the scheduler granularity. Note the paper's footnote:
	// for the backpressure baseline a "time slot" is one invocation of the
	// centralized scheduler, which is much finer-grained than EMPoWER's
	// 100 ms acknowledgement slot (and correspondingly more expensive).
	// Default 0.01 s.
	SlotSeconds float64
	// ExactSchedLimit bounds the exact max-weight independent-set search
	// (default 24 weighted links; greedy beyond).
	ExactSchedLimit int

	// queues[n][d] is the backlog (Mb) at node n destined to node d.
	queues [][]float64
	// delivered[f] counts megabits that reached the destination.
	delivered []float64
}

// NewBackpressure creates a simulator for the given flows.
func NewBackpressure(net *graph.Network, flows []FlowSpec) *Backpressure {
	b := &Backpressure{
		net:             net,
		flows:           flows,
		cg:              NewConflictGraph(net),
		V:               2000,
		SlotSeconds:     0.01,
		ExactSchedLimit: 24,
		delivered:       make([]float64, len(flows)),
	}
	b.queues = make([][]float64, net.NumNodes())
	for i := range b.queues {
		b.queues[i] = make([]float64, net.NumNodes())
	}
	return b
}

// Step advances one slot: flow control, scheduling, transmission.
func (b *Backpressure) Step() {
	// 1. Flow control: each source admits x_f = argmax V·U_f(x) − x·Q_s(d)
	//    => x = U'^{-1}(Q/V), capped at the node's total egress capacity.
	for _, spec := range b.flows {
		q := b.queues[spec.Src][spec.Dst]
		x := congestion.ProportionalFairness{}.PrimeInv(q / b.V)
		var capOut float64
		for _, l := range b.net.Out(spec.Src) {
			capOut += b.net.Link(l).Capacity
		}
		if x > capOut {
			x = capOut
		}
		// The explicit rounding keeps both sums below unfused on every
		// GOARCH (Go fuses x*y + z on arm64 and friends otherwise).
		amount := float64(x * b.SlotSeconds)
		b.queues[spec.Src][spec.Dst] += amount
	}

	// 2. Max-weight scheduling: w_l = c_l · max_d (Q_from(d) − Q_to(d))+.
	n := b.net.NumLinks()
	weights := make([]float64, n)
	bestDst := make([]graph.NodeID, n)
	for l := 0; l < n; l++ {
		link := b.net.Link(graph.LinkID(l))
		if link.Capacity <= 0 {
			continue
		}
		var best float64
		var bd graph.NodeID = -1
		for d := 0; d < b.net.NumNodes(); d++ {
			diff := b.queues[link.From][d] - b.queues[link.To][d]
			if graph.NodeID(d) == link.To {
				// Delivered traffic leaves the system: receiver backlog 0.
				diff = b.queues[link.From][d]
			}
			if diff > best {
				best, bd = diff, graph.NodeID(d)
			}
		}
		if bd >= 0 {
			weights[l] = best * link.Capacity
			bestDst[l] = bd
		} else {
			bestDst[l] = -1
		}
	}
	sched := b.cg.MaxWeightIndependentSet(weights, b.ExactSchedLimit)

	// 3. Transmit on the scheduled links.
	type transfer struct {
		from, to graph.NodeID
		dst      graph.NodeID
		amount   float64
	}
	var moves []transfer
	for _, l := range sched {
		link := b.net.Link(graph.LinkID(l))
		d := bestDst[l]
		if d < 0 {
			continue
		}
		amount := link.Capacity * b.SlotSeconds
		if q := b.queues[link.From][d]; amount > q {
			amount = q
		}
		if amount <= 0 {
			continue
		}
		moves = append(moves, transfer{link.From, link.To, d, amount})
	}
	for _, m := range moves {
		b.queues[m.from][m.dst] -= m.amount
		if m.to == m.dst {
			for f, spec := range b.flows {
				if spec.Dst == m.dst {
					// Attribute deliveries to the (unique in our runs)
					// flow with this destination.
					b.delivered[f] += m.amount
					break
				}
			}
		} else {
			b.queues[m.to][m.dst] += m.amount
		}
	}
}

// Run advances n slots and returns the per-slot delivered throughput of
// flow f (Mbps averaged over a trailing window of `window` slots).
func (b *Backpressure) Run(n, f, window int) []float64 {
	if window <= 0 {
		window = 50
	}
	series := make([]float64, n)
	hist := make([]float64, 0, n+1)
	hist = append(hist, 0)
	for t := 0; t < n; t++ {
		b.Step()
		hist = append(hist, b.delivered[f])
		w := window
		if t+1 < w {
			w = t + 1
		}
		series[t] = (hist[t+1] - hist[t+1-w]) / (float64(w) * b.SlotSeconds)
	}
	return series
}

// SlotsToFractionOfOptimal returns the first slot at which the trailing
// throughput reaches frac·target, or n if never.
func SlotsToFractionOfOptimal(series []float64, target, frac float64) int {
	for t, v := range series {
		if v >= frac*target {
			return t
		}
	}
	return len(series)
}
