// Package scenario is the declarative dynamic-network engine of the
// reproduction: a deterministic, composable timeline of network dynamics
// — link failure and recovery, capacity drift, node churn, and stochastic
// flow arrival/departure processes — driven into a running packet
// emulation (internal/node) through its scenario hooks.
//
// The paper's central claim is that EMPoWER's traffic-driven estimation
// and distributed congestion controller adapt to *changing* hybrid
// networks (§6.1 reports failover within hundreds of milliseconds), yet
// its evaluation scripts each dynamic case by hand. A Scenario
// systematizes that workload class: it is data (JSON-loadable, see Load)
// or code (the builder methods), and binding it to an emulation expands
// every stochastic process into a concrete event timeline using seeds
// split with stats.SplitSeed — so a (scenario, seed) pair fully
// determines a trajectory, replications stay bit-identical at any worker
// count, and the runner can fan sweeps out across cores.
//
// Dynamics remain honest: scenario events mutate ground truth (link
// capacities, node presence, offered load) through
// node.Emulation.SetLinkCapacity and friends; the agents still have to
// *detect* the change through traffic-driven capacity estimation, exactly
// as on the paper's testbed. There is no oracle side channel from the
// scenario engine into the congestion controller or the route manager.
package scenario

import (
	"fmt"
	"strings"

	"repro/internal/graph"
)

// Scenario is a declarative dynamic-workload description: an optional
// topology, the initial flows, an explicit event timeline, and stochastic
// processes expanded at bind time.
type Scenario struct {
	Name string `json:"name"`
	// Duration is the emulated length in seconds; Bind schedules nothing
	// past it and Runtime.Run advances the engine exactly this far.
	Duration float64 `json:"duration"`
	// Topology, when present, makes the scenario self-contained: the CLI
	// and the experiment sweeps materialize the network from it (per-run
	// channel realizations for generated kinds). A nil Topology means the
	// caller supplies the network.
	Topology *TopologySpec `json:"topology,omitempty"`
	// Flows are the scripted flows (arrival processes add more).
	Flows []FlowSpec `json:"flows,omitempty"`
	// Events is the explicit timeline.
	Events []Event `json:"events,omitempty"`
	// Processes are stochastic event generators (flapping links, capacity
	// drift, Poisson flow arrivals), expanded deterministically at Bind.
	Processes []Process `json:"processes,omitempty"`
	// Groups name sets of links that fail and recover atomically —
	// correlated failures sharing a physical cause, like every PLC link
	// on one mains phase dying with the appliance that shorts it.
	// Group-fail/group-recover events and group-targeted flap processes
	// reference them by name.
	Groups []GroupSpec `json:"groups,omitempty"`
}

// GroupSpec names a set of links for correlated failure events.
type GroupSpec struct {
	Name  string    `json:"name"`
	Links []LinkRef `json:"links"`
}

// EventKind enumerates the timeline mutations.
type EventKind string

// Event kinds.
const (
	// LinkFail sets the referenced link's capacity to zero (both
	// directions unless the reference is one-way), remembering the
	// previous capacity for LinkRecover.
	LinkFail EventKind = "link-fail"
	// LinkRecover restores the capacity saved by the last LinkFail (or
	// the bind-time capacity when the link never failed).
	LinkRecover EventKind = "link-recover"
	// SetCapacity sets the referenced link's capacity to Event.Capacity
	// (Mbps) — e.g. a modulation downgrade.
	SetCapacity EventKind = "set-capacity"
	// ScaleCapacity sets the capacity to Event.Factor times the bind-time
	// capacity (drift processes emit these, so the walk is relative to
	// the realized topology, never path-dependent).
	ScaleCapacity EventKind = "scale-capacity"
	// NodeLeave fails every link touching Event.Node (the station powers
	// off / roams away).
	NodeLeave EventKind = "node-leave"
	// NodeJoin restores exactly the links the matching NodeLeave killed.
	NodeJoin EventKind = "node-join"
	// FlowStart starts Event.Flow at the event time; routes are computed
	// then, on the network as it is.
	FlowStart EventKind = "flow-start"
	// FlowStop stops the flow named Event.FlowName.
	FlowStop EventKind = "flow-stop"
	// SetLoss sets the referenced link's channel error probability to
	// Event.Loss — a gray failure: the link stays up and keeps consuming
	// airtime, but a fraction of its frames is corrupted at reception.
	// Loss 0 restores a clean channel.
	SetLoss EventKind = "set-loss"
	// GroupFail fails every link of the named group atomically (one
	// event, one shared cause — a PLC phase outage takes all its links
	// in the same instant).
	GroupFail EventKind = "group-fail"
	// GroupRecover restores the named group's links, like LinkRecover
	// does for a single reference.
	GroupRecover EventKind = "group-recover"
)

// LinkRef names a link by its endpoints and technology. Nodes are
// referenced by graph node name, with a bare integer accepted as a
// 0-based node index (generated topologies name their nodes "n1".."nN"
// or "node1".."node22", so names are always available). A LinkRef covers
// both directions of the connection unless OneWay is set — a dying
// medium (the noisy appliance of §6.1) takes both with it.
type LinkRef struct {
	From   string `json:"from"`
	To     string `json:"to"`
	Tech   string `json:"tech"`
	OneWay bool   `json:"one_way,omitempty"`
}

func (r LinkRef) String() string {
	arrow := "<->"
	if r.OneWay {
		arrow = "->"
	}
	return fmt.Sprintf("%s%s%s/%s", r.From, arrow, r.To, r.Tech)
}

// FlowSpec scripts one flow of the scenario.
type FlowSpec struct {
	// Name identifies the flow for FlowStop events and measurements.
	// Bind rejects duplicate names; expanded arrival processes generate
	// unique names ("arrival-<process>-<n>").
	Name string `json:"name"`
	Src  string `json:"src"`
	Dst  string `json:"dst"`
	// Start and Stop are absolute virtual times; Stop 0 means the flow
	// runs to the end of the scenario.
	Start float64 `json:"start"`
	Stop  float64 `json:"stop,omitempty"`
	// Kind is "saturated" (default) or "file".
	Kind string `json:"kind,omitempty"`
	// FileBytes is the transfer size for "file" flows.
	FileBytes int64 `json:"file_bytes,omitempty"`
	// MaxRoutes caps the number of routes the flow uses (0: no cap
	// beyond the binding Options).
	MaxRoutes int `json:"max_routes,omitempty"`
}

// Process kinds.
const (
	// ProcFlap alternates the referenced link (or node) between down and
	// up with exponential holding times.
	ProcFlap = "flap"
	// ProcDrift random-walks the referenced link's capacity around its
	// bind-time value (a noisy appliance degrading PLC, a fading WiFi
	// channel).
	ProcDrift = "drift"
	// ProcPoissonFlows adds flows with Poisson arrivals and exponential
	// holding times between a fixed or random pair.
	ProcPoissonFlows = "poisson-flows"
	// ProcGrayLoss alternates the referenced link between a lossy phase
	// (channel error probability Loss) and a clean phase, with
	// exponential holding times — the flap process's gray sibling: the
	// link never goes down, it just starts corrupting frames.
	ProcGrayLoss = "gray-loss"
	// ProcFlashCrowd adds bursts of simultaneous flow arrivals: at each
	// burst time, Count flows start within a short Spread window — the
	// load spike a Poisson process never produces.
	ProcFlashCrowd = "flash-crowd"
)

// Process is a stochastic event generator. Expansion happens at Bind
// with a per-process RNG stream seeded by stats.SplitSeed(seed, index),
// so the realized timeline depends only on (scenario, seed).
type Process struct {
	Kind string `json:"kind"`
	// Link targets ProcFlap / ProcDrift / ProcGrayLoss at a link; Node
	// targets ProcFlap at a whole node (churn); Group targets ProcFlap
	// at a named link group (correlated flapping).
	Link  *LinkRef `json:"link,omitempty"`
	Node  string   `json:"node,omitempty"`
	Group string   `json:"group,omitempty"`

	// FirstAt is the time of the first transition (flap: first failure;
	// drift: first step; arrivals: start of the arrival window).
	FirstAt float64 `json:"first_at,omitempty"`
	// DownMean and UpMean are the mean down/up holding times in seconds
	// for ProcFlap (exponential).
	DownMean float64 `json:"down_mean,omitempty"`
	UpMean   float64 `json:"up_mean,omitempty"`

	// Interval is the drift step period; Std the per-step lognormal
	// standard deviation; Floor and Ceil clamp the cumulative factor
	// (defaults 0.1 and 1.5 of the bind-time capacity).
	Interval float64 `json:"interval,omitempty"`
	Std      float64 `json:"std,omitempty"`
	Floor    float64 `json:"floor,omitempty"`
	Ceil     float64 `json:"ceil,omitempty"`

	// Rate is the arrival rate in flows per second; HoldMean the mean
	// exponential flow lifetime. Src/Dst empty means each arrival draws
	// a random pair (source among nodes with egress links).
	Rate     float64 `json:"rate,omitempty"`
	HoldMean float64 `json:"hold_mean,omitempty"`
	Src      string  `json:"src,omitempty"`
	Dst      string  `json:"dst,omitempty"`
	// FileBytes > 0 makes arrivals file transfers of that size instead
	// of holding-time-bounded saturated flows.
	FileBytes int64 `json:"file_bytes,omitempty"`

	// Loss is ProcGrayLoss's channel error probability during the lossy
	// phase (0 < Loss <= 1).
	Loss float64 `json:"loss,omitempty"`
	// Count is the number of flows per ProcFlashCrowd burst; Spread the
	// window (seconds, default 1) the burst's arrivals scatter over. A
	// positive Rate draws recurring burst times with exponential gaps of
	// mean 1/Rate after FirstAt; Rate 0 fires a single burst at FirstAt.
	Count  int     `json:"count,omitempty"`
	Spread float64 `json:"spread,omitempty"`
}

// Event is one timed mutation of the running emulation.
type Event struct {
	At       float64   `json:"at"`
	Kind     EventKind `json:"kind"`
	Link     *LinkRef  `json:"link,omitempty"`
	Node     string    `json:"node,omitempty"`
	Capacity float64   `json:"capacity,omitempty"`
	Factor   float64   `json:"factor,omitempty"`
	Flow     *FlowSpec `json:"flow,omitempty"`
	FlowName string    `json:"flow_name,omitempty"`
	// Loss is the channel error probability for SetLoss events.
	Loss float64 `json:"loss,omitempty"`
	// Group names the link group for GroupFail/GroupRecover events.
	Group string `json:"group,omitempty"`
}

// New starts a scenario of the given name and duration (builder API).
func New(name string, duration float64) *Scenario {
	return &Scenario{Name: name, Duration: duration}
}

// Link is a convenience constructor for a bidirectional link reference.
func Link(from, to string, tech graph.Tech) LinkRef {
	return LinkRef{From: from, To: to, Tech: tech.String()}
}

// AddFlow schedules a flow.
func (s *Scenario) AddFlow(f FlowSpec) *Scenario {
	s.Flows = append(s.Flows, f)
	return s
}

// FailLink schedules a link failure at time t.
func (s *Scenario) FailLink(t float64, ref LinkRef) *Scenario {
	r := ref
	s.Events = append(s.Events, Event{At: t, Kind: LinkFail, Link: &r})
	return s
}

// RecoverLink schedules a link recovery at time t.
func (s *Scenario) RecoverLink(t float64, ref LinkRef) *Scenario {
	r := ref
	s.Events = append(s.Events, Event{At: t, Kind: LinkRecover, Link: &r})
	return s
}

// SetLinkCapacity schedules a capacity change at time t (Mbps).
func (s *Scenario) SetLinkCapacity(t float64, ref LinkRef, capacity float64) *Scenario {
	r := ref
	s.Events = append(s.Events, Event{At: t, Kind: SetCapacity, Link: &r, Capacity: capacity})
	return s
}

// SetLinkLoss schedules a gray failure at time t: the link's channel
// error probability becomes p (0 restores a clean channel).
func (s *Scenario) SetLinkLoss(t float64, ref LinkRef, p float64) *Scenario {
	r := ref
	s.Events = append(s.Events, Event{At: t, Kind: SetLoss, Link: &r, Loss: p})
	return s
}

// Group declares a named link group for correlated failure events.
func (s *Scenario) Group(name string, links ...LinkRef) *Scenario {
	s.Groups = append(s.Groups, GroupSpec{Name: name, Links: links})
	return s
}

// FailGroup schedules the atomic failure of a named link group at time t.
func (s *Scenario) FailGroup(t float64, name string) *Scenario {
	s.Events = append(s.Events, Event{At: t, Kind: GroupFail, Group: name})
	return s
}

// RecoverGroup schedules the named group's recovery at time t.
func (s *Scenario) RecoverGroup(t float64, name string) *Scenario {
	s.Events = append(s.Events, Event{At: t, Kind: GroupRecover, Group: name})
	return s
}

// NodeLeave schedules a node departure at time t.
func (s *Scenario) NodeLeave(t float64, node string) *Scenario {
	s.Events = append(s.Events, Event{At: t, Kind: NodeLeave, Node: node})
	return s
}

// NodeJoin schedules the node's return at time t.
func (s *Scenario) NodeJoin(t float64, node string) *Scenario {
	s.Events = append(s.Events, Event{At: t, Kind: NodeJoin, Node: node})
	return s
}

// Flap adds a link-flapping process: first failure at firstAt, then
// exponential down/up holding times with the given means.
func (s *Scenario) Flap(ref LinkRef, firstAt, downMean, upMean float64) *Scenario {
	r := ref
	s.Processes = append(s.Processes, Process{
		Kind: ProcFlap, Link: &r, FirstAt: firstAt, DownMean: downMean, UpMean: upMean,
	})
	return s
}

// GrayLoss adds a gray-failure process on a link: lossy phases at
// channel error probability p alternating with clean phases, first
// lossy phase at firstAt, exponential holding times.
func (s *Scenario) GrayLoss(ref LinkRef, p, firstAt, downMean, upMean float64) *Scenario {
	r := ref
	s.Processes = append(s.Processes, Process{
		Kind: ProcGrayLoss, Link: &r, Loss: p, FirstAt: firstAt, DownMean: downMean, UpMean: upMean,
	})
	return s
}

// FlashCrowd adds a flow-burst process: bursts of count flows (each
// scattered over spread seconds, living an exponential holdMean) at
// exponential burst gaps of mean 1/rate after firstAt; rate 0 fires a
// single burst at firstAt. Empty src/dst draws a random pair per flow.
func (s *Scenario) FlashCrowd(firstAt, rate float64, count int, spread, holdMean float64, src, dst string) *Scenario {
	s.Processes = append(s.Processes, Process{
		Kind: ProcFlashCrowd, FirstAt: firstAt, Rate: rate, Count: count,
		Spread: spread, HoldMean: holdMean, Src: src, Dst: dst,
	})
	return s
}

// Drift adds a capacity-drift process on a link: every interval seconds
// the capacity moves one lognormal random-walk step (std per step),
// clamped to [floor, ceil] times the bind-time capacity.
func (s *Scenario) Drift(ref LinkRef, interval, std, floor, ceil float64) *Scenario {
	r := ref
	s.Processes = append(s.Processes, Process{
		Kind: ProcDrift, Link: &r, Interval: interval, Std: std, Floor: floor, Ceil: ceil,
	})
	return s
}

// PoissonFlows adds a flow arrival process: arrivals at `rate` per
// second, each flow living an exponential time of mean holdMean. Empty
// src/dst draws a random pair per arrival.
func (s *Scenario) PoissonFlows(rate, holdMean float64, src, dst string) *Scenario {
	s.Processes = append(s.Processes, Process{
		Kind: ProcPoissonFlows, Rate: rate, HoldMean: holdMean, Src: src, Dst: dst,
	})
	return s
}

// Validate checks the scenario's static structure (reference resolution
// happens at Bind, against the concrete network).
func (s *Scenario) Validate() error {
	if s.Duration <= 0 {
		return fmt.Errorf("scenario %q: duration must be positive, got %g", s.Name, s.Duration)
	}
	groups := map[string]bool{}
	for i, g := range s.Groups {
		if g.Name == "" {
			return fmt.Errorf("scenario %q: group %d has no name", s.Name, i)
		}
		if groups[g.Name] {
			return fmt.Errorf("scenario %q: duplicate group name %q", s.Name, g.Name)
		}
		if len(g.Links) == 0 {
			return fmt.Errorf("scenario %q: group %q has no links", s.Name, g.Name)
		}
		groups[g.Name] = true
	}
	names := map[string]bool{}
	checkFlow := func(f FlowSpec, what string) error {
		if f.Name == "" {
			return fmt.Errorf("scenario %q: %s has no name", s.Name, what)
		}
		if names[f.Name] {
			return fmt.Errorf("scenario %q: duplicate flow name %q", s.Name, f.Name)
		}
		names[f.Name] = true
		if f.Src == "" || f.Dst == "" {
			return fmt.Errorf("scenario %q: flow %q needs src and dst", s.Name, f.Name)
		}
		if f.Kind != "" && f.Kind != "saturated" && f.Kind != "file" {
			return fmt.Errorf("scenario %q: flow %q has unknown kind %q", s.Name, f.Name, f.Kind)
		}
		if f.Kind == "file" && f.FileBytes <= 0 {
			return fmt.Errorf("scenario %q: file flow %q needs file_bytes", s.Name, f.Name)
		}
		return nil
	}
	for i, f := range s.Flows {
		if err := checkFlow(f, fmt.Sprintf("flow %d", i)); err != nil {
			return err
		}
	}
	for i, ev := range s.Events {
		if ev.At < 0 {
			return fmt.Errorf("scenario %q: event %d at negative time %g", s.Name, i, ev.At)
		}
		switch ev.Kind {
		case LinkFail, LinkRecover, SetCapacity, ScaleCapacity:
			if ev.Link == nil {
				return fmt.Errorf("scenario %q: %s event %d needs a link", s.Name, ev.Kind, i)
			}
		case SetLoss:
			if ev.Link == nil {
				return fmt.Errorf("scenario %q: set-loss event %d needs a link", s.Name, i)
			}
			if ev.Loss < 0 || ev.Loss > 1 {
				return fmt.Errorf("scenario %q: set-loss event %d needs loss in [0,1], got %g", s.Name, i, ev.Loss)
			}
		case GroupFail, GroupRecover:
			if ev.Group == "" {
				return fmt.Errorf("scenario %q: %s event %d needs a group", s.Name, ev.Kind, i)
			}
			if !groups[ev.Group] {
				return fmt.Errorf("scenario %q: %s event %d references unknown group %q", s.Name, ev.Kind, i, ev.Group)
			}
		case NodeLeave, NodeJoin:
			if ev.Node == "" {
				return fmt.Errorf("scenario %q: %s event %d needs a node", s.Name, ev.Kind, i)
			}
		case FlowStart:
			if ev.Flow == nil {
				return fmt.Errorf("scenario %q: flow-start event %d needs a flow", s.Name, i)
			}
			if err := checkFlow(*ev.Flow, fmt.Sprintf("flow-start event %d's flow", i)); err != nil {
				return err
			}
		case FlowStop:
			if ev.FlowName == "" {
				return fmt.Errorf("scenario %q: flow-stop event %d needs a flow name", s.Name, i)
			}
		default:
			return fmt.Errorf("scenario %q: event %d has unknown kind %q", s.Name, i, ev.Kind)
		}
	}
	for i, p := range s.Processes {
		switch p.Kind {
		case ProcFlap:
			targets := 0
			if p.Link != nil {
				targets++
			}
			if p.Node != "" {
				targets++
			}
			if p.Group != "" {
				targets++
				if !groups[p.Group] {
					return fmt.Errorf("scenario %q: flap process %d references unknown group %q", s.Name, i, p.Group)
				}
			}
			if targets != 1 {
				return fmt.Errorf("scenario %q: flap process %d needs exactly one of link, node or group", s.Name, i)
			}
			if p.DownMean <= 0 || p.UpMean <= 0 {
				return fmt.Errorf("scenario %q: flap process %d needs positive down_mean and up_mean", s.Name, i)
			}
		case ProcGrayLoss:
			if p.Link == nil {
				return fmt.Errorf("scenario %q: gray-loss process %d needs a link", s.Name, i)
			}
			if p.Loss <= 0 || p.Loss > 1 {
				return fmt.Errorf("scenario %q: gray-loss process %d needs loss in (0,1], got %g", s.Name, i, p.Loss)
			}
			if p.DownMean <= 0 || p.UpMean <= 0 {
				return fmt.Errorf("scenario %q: gray-loss process %d needs positive down_mean and up_mean", s.Name, i)
			}
		case ProcFlashCrowd:
			if p.Count <= 0 {
				return fmt.Errorf("scenario %q: flash-crowd process %d needs a positive count", s.Name, i)
			}
			if p.Rate < 0 || p.Spread < 0 {
				return fmt.Errorf("scenario %q: flash-crowd process %d needs non-negative rate and spread", s.Name, i)
			}
			if p.HoldMean <= 0 && p.FileBytes <= 0 {
				return fmt.Errorf("scenario %q: flash-crowd process %d needs hold_mean or file_bytes", s.Name, i)
			}
			if (p.Src == "") != (p.Dst == "") {
				return fmt.Errorf("scenario %q: flash-crowd process %d needs both src and dst, or neither", s.Name, i)
			}
		case ProcDrift:
			if p.Link == nil {
				return fmt.Errorf("scenario %q: drift process %d needs a link", s.Name, i)
			}
			if p.Interval <= 0 || p.Std <= 0 {
				return fmt.Errorf("scenario %q: drift process %d needs positive interval and std", s.Name, i)
			}
		case ProcPoissonFlows:
			if p.Rate <= 0 {
				return fmt.Errorf("scenario %q: poisson-flows process %d needs a positive rate", s.Name, i)
			}
			if p.HoldMean <= 0 && p.FileBytes <= 0 {
				return fmt.Errorf("scenario %q: poisson-flows process %d needs hold_mean or file_bytes", s.Name, i)
			}
			if (p.Src == "") != (p.Dst == "") {
				return fmt.Errorf("scenario %q: poisson-flows process %d needs both src and dst, or neither", s.Name, i)
			}
		default:
			return fmt.Errorf("scenario %q: process %d has unknown kind %q", s.Name, i, p.Kind)
		}
	}
	if s.Topology != nil {
		if err := s.Topology.validate(); err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
	}
	return nil
}

// ParseTech maps a technology name to its graph.Tech value,
// case-insensitively ("PLC", "wifi", "WiFi2", ...).
func ParseTech(name string) (graph.Tech, error) {
	switch strings.ToLower(name) {
	case "plc":
		return graph.TechPLC, nil
	case "wifi", "wifi1":
		return graph.TechWiFi, nil
	case "wifi2":
		return graph.TechWiFi2, nil
	default:
		return 0, fmt.Errorf("scenario: unknown technology %q", name)
	}
}
