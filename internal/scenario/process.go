package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"repro/internal/graph"
	"repro/internal/stats"
)

// expandProcesses turns every stochastic process into concrete timeline
// events. Each process draws from its own RNG stream seeded by
// stats.SplitSeed(seed, index) — a pure function of (seed, process
// position), never of scheduling — so the realized timeline is
// bit-identical across runs and worker counts, and adding a process at
// the end never perturbs the ones before it.
//
// A timeline's size is O(duration ÷ mean), and validation bounds
// neither, so expansion stops once the expanders have drawn more than
// maxTimelineEvents events: a hostile duration, mean or interval fails
// the bind with an error instead of exhausting memory.
func expandProcesses(sc *Scenario, net *graph.Network, seed int64) ([]Event, error) {
	tl := timeline{net: net, sources: egressSources(net)}
	for i, p := range sc.Processes {
		rng := stats.NewRand(stats.SplitSeed(seed, i))
		switch p.Kind {
		case ProcFlap:
			fail, recover := LinkFail, LinkRecover
			switch {
			case p.Node != "":
				fail, recover = NodeLeave, NodeJoin
			case p.Group != "":
				fail, recover = GroupFail, GroupRecover
			}
			expandAlternating(&tl, p, sc.Duration, rng,
				Event{Kind: fail, Link: p.Link, Node: p.Node, Group: p.Group},
				Event{Kind: recover, Link: p.Link, Node: p.Node, Group: p.Group})
		case ProcGrayLoss:
			expandAlternating(&tl, p, sc.Duration, rng,
				Event{Kind: SetLoss, Link: p.Link, Loss: p.Loss},
				Event{Kind: SetLoss, Link: p.Link})
		case ProcDrift:
			expandDrift(&tl, p, sc.Duration, rng)
		case ProcPoissonFlows:
			expandPoisson(&tl, p, i, sc.Duration, rng)
		case ProcFlashCrowd:
			expandFlashCrowd(&tl, p, i, sc.Duration, rng)
		}
		if tl.over() {
			return nil, fmt.Errorf("scenario %q: process %d (%s) expands past the budget of %d timeline events over %g s; lengthen its means or intervals, or shorten the duration",
				sc.Name, i, p.Kind, maxTimelineEvents, sc.Duration)
		}
	}
	return tl.events, nil
}

// maxTimelineEvents bounds the events one replication's processes may
// realize (the shipped scenarios realize at most a few dozen).
const maxTimelineEvents = 1 << 16

// timeline is what the expanders realize: the events, and the number of
// events they drew — emitted, or dropped as a flash-crowd flow past the
// end — which maxTimelineEvents bounds; and the network the arrival
// processes draw their random pairs on.
type timeline struct {
	events []Event
	drawn  int

	net     *graph.Network
	sources []graph.NodeID // the nodes with egress links
}

// draw charges one event to the budget and reports whether it fits.
func (tl *timeline) draw() bool {
	tl.drawn++
	return !tl.over()
}

func (tl *timeline) over() bool { return tl.drawn > maxTimelineEvents }

// expandAlternating is the one loop of the on/off processes: the on
// event, an exponential holding time of mean DownMean, the off event, one
// of mean UpMean, and again, from FirstAt (or an exponential draw into
// the off phase). A flap passes fail/recover (leave/join for a node
// target, group-fail/group-recover for a group); a gray-loss passes
// set-loss at Loss and set-loss 0.
func expandAlternating(tl *timeline, p Process, duration float64, rng *rand.Rand, on, off Event) {
	t := p.FirstAt
	if t <= 0 {
		t = rng.ExpFloat64() * p.UpMean
	}
	for t < duration && tl.draw() {
		on.At = t
		tl.events = append(tl.events, on)
		t += rng.ExpFloat64() * p.DownMean
		if t >= duration || !tl.draw() {
			break
		}
		off.At = t
		tl.events = append(tl.events, off)
		t += rng.ExpFloat64() * p.UpMean
	}
}

// expandDrift emits a multiplicative lognormal random walk as
// scale-capacity events. Factors are cumulative relative to the
// bind-time capacity (clamped to [floor, ceil] of it), so the realized
// trajectory never depends on what other events did to the link in
// between.
func expandDrift(tl *timeline, p Process, duration float64, rng *rand.Rand) {
	floor, ceil := p.Floor, p.Ceil
	if floor <= 0 {
		floor = 0.1
	}
	if ceil <= 0 {
		ceil = 1.5
	}
	t := p.FirstAt
	if t <= 0 {
		t = p.Interval
	}
	factor := 1.0
	for ; t < duration && tl.draw(); t += p.Interval {
		factor *= math.Exp(rng.NormFloat64() * p.Std)
		if factor < floor {
			factor = floor
		}
		if factor > ceil {
			factor = ceil
		}
		tl.events = append(tl.events, Event{At: t, Kind: ScaleCapacity, Link: p.Link, Factor: factor})
	}
}

// expandPoisson emits arrivals at Poisson times after FirstAt.
func expandPoisson(tl *timeline, p Process, index int, duration float64, rng *rand.Rand) {
	if p.Src == "" && len(tl.sources) == 0 {
		return
	}
	t := p.FirstAt
	for n := 0; ; n++ {
		t += rng.ExpFloat64() / p.Rate
		if t >= duration || !tl.draw() {
			return
		}
		tl.arrive(p, fmt.Sprintf(arrivalPrefix+"%d-%d", index, n), t, rng)
	}
}

// expandFlashCrowd emits bursts of near-simultaneous arrivals: Count
// flows per burst, each offset uniformly within the Spread window —
// synchronized demand the Poisson process's independent arrivals never
// produce (everyone starting a stream when the match kicks off). Burst
// times follow expandPoisson's arrival structure when Rate is positive;
// Rate 0 is a single scripted burst at FirstAt.
func expandFlashCrowd(tl *timeline, p Process, index int, duration float64, rng *rand.Rand) {
	if p.Src == "" && len(tl.sources) == 0 {
		return
	}
	spread := p.Spread
	if spread <= 0 {
		spread = 1
	}
	burst := func(b int, at float64) {
		for k := 0; k < p.Count && tl.draw(); k++ {
			if t := at + rng.Float64()*spread; t < duration {
				tl.arrive(p, fmt.Sprintf(crowdPrefix+"%d-%d-%d", index, b, k), t, rng)
			}
		}
	}
	if p.Rate <= 0 {
		if p.FirstAt < duration {
			burst(0, p.FirstAt)
		}
		return
	}
	t := p.FirstAt
	for b := 0; ; b++ {
		t += rng.ExpFloat64() / p.Rate
		if t >= duration || tl.over() {
			return
		}
		burst(b, t)
	}
}

// arrive is the one builder of a process-generated flow: it emits the
// flow-start event of the flow named name at t, between the process's
// fixed pair or a drawPair one, carrying the process's file size or a
// departure an exponential holding time later. The draw order is
// drawPair's, then the holding time's. Whether a route exists is decided
// at the event time, on the network as it then is.
func (tl *timeline) arrive(p Process, name string, t float64, rng *rand.Rand) {
	f := &FlowSpec{Name: name, Src: p.Src, Dst: p.Dst, Start: t}
	if p.Src == "" {
		drawPair(f, tl.sources, tl.net, rng)
	}
	if p.FileBytes > 0 {
		f.Kind, f.FileBytes = "file", p.FileBytes
	} else {
		f.Stop = t + rng.ExpFloat64()*p.HoldMean
	}
	tl.events = append(tl.events, Event{At: t, Kind: FlowStart, Flow: f})
}

// egressSources lists the nodes random flow pairs may start from (those
// with at least one egress link).
func egressSources(net *graph.Network) []graph.NodeID {
	var sources []graph.NodeID
	for i := 0; i < net.NumNodes(); i++ {
		if len(net.Out(graph.NodeID(i))) > 0 {
			sources = append(sources, graph.NodeID(i))
		}
	}
	return sources
}

// drawPair fills a random (src, dst) pair: the source uniform among
// nodes with egress links, the destination among the remaining nodes,
// mirroring topology.Instance.RandomFlow.
func drawPair(spec *FlowSpec, sources []graph.NodeID, net *graph.Network, rng *rand.Rand) {
	src := sources[rng.Intn(len(sources))]
	dst := graph.NodeID(rng.Intn(net.NumNodes() - 1))
	if dst >= src {
		dst++
	}
	spec.Src = strconv.Itoa(int(src))
	spec.Dst = strconv.Itoa(int(dst))
}
