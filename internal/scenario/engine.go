package scenario

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/mac"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/routing"
)

// RouteFn selects the routes of a starting flow — the hook scheme sweeps
// use (core.RoutesFor curried over a scheme). The default is the §3.2
// multipath procedure.
type RouteFn func(net *graph.Network, src, dst graph.NodeID) []graph.Path

// Options tunes the binding of a scenario to an emulation.
type Options struct {
	// Routes selects routes for starting flows (default: the §3.2
	// multipath combination with the default routing configuration).
	Routes RouteFn
	// ManageRoutes attaches a route manager (§3.2 maintenance) with fast
	// failover to every flow the scenario starts.
	ManageRoutes bool
	// Strict makes Bind fail on event references that don't resolve
	// against the network. The default is lenient — unresolvable events
	// are dropped and counted in Runtime.Unresolved — because scheme
	// sweeps legitimately run scenarios on views that lack some links
	// (a PLC flap has nothing to kill on a WiFi-only view).
	Strict bool
	// Invariants attaches a runtime invariant checker to every domain
	// engine: flow conservation at relays, dead links delivering
	// nothing, controller rates within estimated capacity, monotone
	// virtual time, per-reason drop accounting. Violations accumulate
	// in Runtime.Violations once Finish runs.
	Invariants bool
}

func (o Options) routes() RouteFn {
	if o.Routes != nil {
		return o.Routes
	}
	return func(net *graph.Network, src, dst graph.NodeID) []graph.Path {
		return routing.Multipath(net, src, dst, routing.DefaultConfig()).Paths
	}
}

// FlowRecord is the runtime state of one scenario flow.
type FlowRecord struct {
	Spec      FlowSpec
	Flow      *node.Flow
	Mgr       *node.RouteManager
	Src, Dst  graph.NodeID
	StartedAt float64
	StoppedAt float64 // 0 while running
}

// Failure is one recorded failure episode affecting one flow: a
// link-fail (or node-leave, or set-capacity-to-zero) event whose links
// were on the flow's routes at the time. RecoveredAt is the end of the
// measurement window — when the link came back, or the scenario
// duration if it never did.
type Failure struct {
	Flow        string
	Links       []graph.LinkID
	At          float64
	RecoveredAt float64
}

// Transition is one applied ground-truth mutation (for traces and logs).
type Transition struct {
	At       float64
	Kind     EventKind
	Link     graph.LinkID // -1 for node/flow events
	Capacity float64
	Loss     float64 // set-loss events only: the new channel error rate
}

// Runtime is a scenario bound to a running emulation.
//
// The runtime mirrors the emulation's domain decomposition: all state an
// event handler mutates — flow records, failure windows, transitions,
// departed-node links — lives in per-domain substates, because on a
// multi-domain emulation each domain runs to the barrier in turn, so the
// handlers of different domains do not fire in virtual-time order. The
// exported observation fields (Transitions, Failures, SkippedFlows) are
// merged deterministically from the domains by Finish.
type Runtime struct {
	Scenario *Scenario
	Em       *node.Emulation

	opts Options
	doms []*rtDomain
	// flowDom maps every flow name known at bind time to its owning
	// domain (the source node's domain). Read-only during the run.
	flowDom map[string]int

	// base and saved are indexed by LinkID and shared across domains:
	// every handler only touches its own domain's links, so the element
	// writes are disjoint.
	base  []float64 // capacities at bind time
	saved []float64 // capacity before the last fail

	// Unresolved lists events dropped at bind time because a reference
	// didn't resolve (lenient mode). The remaining observation fields are
	// rebuilt by Finish (which Run calls): Transitions and Failures merge
	// the per-domain records in time order (ties in domain order),
	// SkippedFlows lists flows that found no routes.
	Unresolved   []string
	SkippedFlows []string
	Transitions  []Transition
	Failures     []*Failure

	// checker is the invariant checker (nil unless Options.Invariants).
	checker *invariant.Checker
}

// rtDomain is the per-domain slice of the runtime: the state the owning
// domain's event handlers mutate, plus the emulation domain whose engine
// the domain's timeline rides on.
type rtDomain struct {
	rt  *Runtime
	dom *node.Domain

	flows map[string]*FlowRecord
	order []string // flow names in creation order (deterministic iteration)
	left  map[graph.NodeID][]graph.LinkID

	skipped     []string
	transitions []Transition
	failures    []*Failure
}

// boundEvent is an event with its references resolved at bind time.
type boundEvent struct {
	Event
	links []graph.LinkID
	src   graph.NodeID
	dst   graph.NodeID
	node  graph.NodeID
}

// Bind expands the scenario's processes with the given seed, resolves
// every reference against the emulation's network, and schedules the
// whole timeline on the emulation's engines — each event on the engine
// of the domain that owns its link, node or flow source. The emulation
// must be at virtual time 0. Run the result with Runtime.Run (or advance
// the emulation manually and call Finish at the end).
func Bind(em *node.Emulation, sc *Scenario, seed int64, opts Options) (*Runtime, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	rt := &Runtime{
		Scenario: sc,
		Em:       em,
		opts:     opts,
		flowDom:  map[string]int{},
		base:     make([]float64, em.Net.NumLinks()),
		saved:    make([]float64, em.Net.NumLinks()),
	}
	for l := 0; l < em.Net.NumLinks(); l++ {
		rt.base[l] = em.Net.Link(graph.LinkID(l)).Capacity
		rt.saved[l] = rt.base[l]
	}
	rt.doms = make([]*rtDomain, em.NumDomains())
	for i := range rt.doms {
		rt.doms[i] = &rtDomain{
			rt:    rt,
			dom:   em.Domain(i),
			flows: map[string]*FlowRecord{},
			left:  map[graph.NodeID][]graph.LinkID{},
		}
	}

	for i := range sc.Flows {
		spec := sc.Flows[i]
		src, err := rt.bindFlowSpec(&spec)
		if err != nil {
			if opts.Strict {
				return nil, err
			}
			rt.Unresolved = append(rt.Unresolved, err.Error())
			continue
		}
		d := rt.domainOfNode(src)
		rt.flowDom[spec.Name] = d.index()
		d.dom.Engine.At(spec.Start, func() { d.startFlow(spec) })
	}

	events := append([]Event(nil), sc.Events...)
	events = append(events, expandProcesses(sc, em.Net, seed)...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	// Timeline events ride the engine's closure-free scheduling: the
	// bound events live in one slice allocated here, and each timer
	// carries a pointer into it instead of a captured closure.
	bound := make([]timelineEvent, 0, len(events))
	for _, ev := range events {
		if ev.At > sc.Duration {
			continue
		}
		be, err := rt.bindEvent(ev)
		if err != nil {
			if opts.Strict {
				return nil, err
			}
			rt.Unresolved = append(rt.Unresolved, err.Error())
			continue
		}
		// A group event may span interference domains. Each domain's
		// handlers run on its own engine, so split the group
		// into per-domain slices, each applied at the event time on its
		// owning engine — atomic within a domain, simultaneous in
		// virtual time across them.
		if be.Kind == GroupFail || be.Kind == GroupRecover {
			for di := 0; di < rt.Em.NumDomains(); di++ {
				var part []graph.LinkID
				for _, l := range be.links {
					if rt.Em.LinkDomain(l) == di {
						part = append(part, l)
					}
				}
				if len(part) > 0 {
					sub := be
					sub.links = part
					bound = append(bound, timelineEvent{d: rt.doms[di], be: sub})
				}
			}
			continue
		}
		bound = append(bound, timelineEvent{d: rt.eventDomain(be), be: be})
	}
	for i := range bound {
		bound[i].d.dom.Engine.AtFunc(bound[i].be.At, applyTimelineEvent, &bound[i])
	}
	if opts.Invariants {
		rt.checker = invariant.Attach(em, invariant.Config{Flows: rt.domainFlows})
	}
	return rt, nil
}

// domainFlows feeds the invariant checker the flows a domain owns, in
// creation order. The checker calls it from the owning domain's engine,
// which is also what mutates d.flows, so the read needs no
// synchronization.
func (rt *Runtime) domainFlows(dom int) []invariant.FlowInfo {
	d := rt.doms[dom]
	out := make([]invariant.FlowInfo, 0, len(d.order))
	for _, name := range d.order {
		rec := d.flows[name]
		if rec.StoppedAt > 0 {
			continue
		}
		out = append(out, invariant.FlowInfo{
			Name: name, Flow: rec.Flow, Src: rec.Src, Dst: rec.Dst,
		})
	}
	return out
}

func (d *rtDomain) index() int {
	for i, dd := range d.rt.doms {
		if dd == d {
			return i
		}
	}
	return 0
}

func (rt *Runtime) domainOfNode(n graph.NodeID) *rtDomain {
	return rt.doms[rt.Em.NodeDomain(n)]
}

// eventDomain routes a bound event to the domain owning its subject:
// link events by the link, node events by the node, flow starts by the
// source, flow stops by the flow's bind-time domain (unknown names fall
// to domain 0, where the stop is a no-op, exactly as an unknown name was
// before).
func (rt *Runtime) eventDomain(be boundEvent) *rtDomain {
	switch be.Kind {
	case LinkFail, LinkRecover, SetCapacity, ScaleCapacity, SetLoss, GroupFail, GroupRecover:
		return rt.doms[rt.Em.LinkDomain(be.links[0])]
	case NodeLeave, NodeJoin:
		return rt.domainOfNode(be.node)
	case FlowStart:
		return rt.domainOfNode(be.src)
	case FlowStop:
		return rt.doms[rt.flowDom[be.FlowName]]
	}
	return rt.doms[0]
}

// timelineEvent pairs a bound event with its owning domain for the
// closure-free timeline scheduling.
type timelineEvent struct {
	d  *rtDomain
	be boundEvent
}

func applyTimelineEvent(arg any) {
	ev := arg.(*timelineEvent)
	ev.d.apply(ev.be)
}

// Run advances the emulation to the scenario's duration and closes the
// measurement windows.
func (rt *Runtime) Run() {
	rt.Em.Run(rt.Scenario.Duration)
	rt.Finish()
}

// Finish closes open failure windows at the current virtual time and
// merges the per-domain observations into the exported fields. Run calls
// it; callers driving the emulation themselves call it once at the end.
// It is idempotent (the merge rebuilds from the domain records).
func (rt *Runtime) Finish() {
	for _, d := range rt.doms {
		now := d.dom.Engine.Now()
		for _, f := range d.failures {
			if f.RecoveredAt == 0 {
				f.RecoveredAt = now
			}
		}
	}
	if rt.checker != nil {
		rt.checker.Final()
	}
	rt.merge()
}

// Violations returns the invariant violations collected during the run
// (nil without Options.Invariants). Valid after Finish.
func (rt *Runtime) Violations() []invariant.Violation {
	if rt.checker == nil {
		return nil
	}
	return rt.checker.Violations()
}

// DropsByReason aggregates the per-reason MAC drop counters across all
// links, keyed by reason name. Every reason appears, zero or not, so
// reports have a stable shape.
func (rt *Runtime) DropsByReason() map[string]int {
	out := make(map[string]int, int(mac.NumDropReasons))
	for r := mac.DropReason(0); r < mac.NumDropReasons; r++ {
		out[r.String()] = 0
	}
	for l := 0; l < rt.Em.Net.NumLinks(); l++ {
		id := graph.LinkID(l)
		st := rt.Em.Domain(rt.Em.LinkDomain(id)).MAC.Stats(id)
		for r := mac.DropReason(0); r < mac.NumDropReasons; r++ {
			out[r.String()] += st.Dropped[r]
		}
	}
	return out
}

// merge rebuilds the exported observation fields from the per-domain
// records: concatenated in domain order, then stably sorted by time.
// Within a domain the records are already time-ordered (virtual time is
// monotone), so for a single domain the merge is the identity; across
// domains the (time, domain) order is a pure function of the scenario
// and seed — never of the worker count.
func (rt *Runtime) merge() {
	rt.Transitions = rt.Transitions[:0]
	rt.Failures = rt.Failures[:0]
	rt.SkippedFlows = rt.SkippedFlows[:0]
	for _, d := range rt.doms {
		rt.Transitions = append(rt.Transitions, d.transitions...)
		rt.Failures = append(rt.Failures, d.failures...)
		rt.SkippedFlows = append(rt.SkippedFlows, d.skipped...)
	}
	sort.SliceStable(rt.Transitions, func(i, j int) bool { return rt.Transitions[i].At < rt.Transitions[j].At })
	sort.SliceStable(rt.Failures, func(i, j int) bool { return rt.Failures[i].At < rt.Failures[j].At })
}

// Flow returns the runtime record of a named flow (nil if it never
// started).
func (rt *Runtime) Flow(name string) *FlowRecord {
	for _, d := range rt.doms {
		if rec := d.flows[name]; rec != nil {
			return rec
		}
	}
	return nil
}

// FlowNames lists the started flows in creation order (across domains:
// by start time, ties in domain order).
func (rt *Runtime) FlowNames() []string {
	var names []string
	for _, d := range rt.doms {
		names = append(names, d.order...)
	}
	starts := map[string]float64{}
	for _, d := range rt.doms {
		for name, rec := range d.flows {
			starts[name] = rec.StartedAt
		}
	}
	sort.SliceStable(names, func(i, j int) bool { return starts[names[i]] < starts[names[j]] })
	return names
}

// bindEvent resolves an event's references.
func (rt *Runtime) bindEvent(ev Event) (boundEvent, error) {
	be := boundEvent{Event: ev, node: -1}
	var err error
	switch ev.Kind {
	case LinkFail, LinkRecover, SetCapacity, ScaleCapacity, SetLoss:
		be.links, err = resolveLink(rt.Em.Net, *ev.Link)
	case GroupFail, GroupRecover:
		be.links, err = rt.resolveGroup(ev.Group)
	case NodeLeave, NodeJoin:
		be.node, err = resolveNode(rt.Em.Net, ev.Node)
	case FlowStart:
		spec := *ev.Flow
		be.src, err = rt.bindFlowSpec(&spec)
		be.Flow = &spec
		if err == nil {
			rt.flowDom[spec.Name] = rt.Em.NodeDomain(be.src)
		}
	case FlowStop:
		// Resolution happens at apply time (the flow may not exist yet).
	}
	return be, err
}

// bindFlowSpec resolves a flow's endpoints (mutating the spec is safe:
// every caller works on its own copy) and returns the source node, which
// decides the owning domain.
func (rt *Runtime) bindFlowSpec(spec *FlowSpec) (graph.NodeID, error) {
	src, err := resolveNode(rt.Em.Net, spec.Src)
	if err != nil {
		return 0, fmt.Errorf("scenario: flow %q: %w", spec.Name, err)
	}
	if _, err := resolveNode(rt.Em.Net, spec.Dst); err != nil {
		return 0, fmt.Errorf("scenario: flow %q: %w", spec.Name, err)
	}
	return src, nil
}

// apply executes one event at its scheduled virtual time, on the owning
// domain's engine.
func (d *rtDomain) apply(be boundEvent) {
	if rec := d.dom.Engine.Recorder(); rec != nil {
		subject := int32(-1)
		if len(be.links) > 0 {
			subject = int32(be.links[0])
		} else if be.Kind == NodeLeave || be.Kind == NodeJoin {
			subject = int32(be.node)
		}
		rec.Record(d.dom.Engine.Now(), obs.RecScenarioEvent, EventKindOrdinal(be.Kind), subject, 0)
	}
	switch be.Kind {
	case LinkFail:
		d.fail(be.links)
	case LinkRecover:
		d.recoverLinks(be.links)
	case GroupFail:
		d.fail(be.links)
	case GroupRecover:
		d.recoverLinks(be.links)
	case SetLoss:
		d.setLoss(be.links, be.Loss)
	case SetCapacity:
		d.setCapacities(be.Kind, be.links, be.Capacity)
	case ScaleCapacity:
		for _, l := range be.links {
			// Drift rides on a live link: a link that failed (flap,
			// node-leave) stays dead until its own recovery event —
			// a drift step must not resurrect it, nor close its
			// failure window as a spurious recovery.
			if d.dom.Net.Link(l).Capacity <= 0 {
				continue
			}
			d.setCapacity(be.Kind, l, d.rt.base[l]*be.Factor)
		}
	case NodeLeave:
		links := d.nodeLinks(be.node)
		d.left[be.node] = links
		d.fail(links)
	case NodeJoin:
		d.recoverLinks(d.left[be.node])
		delete(d.left, be.node)
	case FlowStart:
		d.startFlow(*be.Flow)
	case FlowStop:
		d.stopFlow(be.FlowName)
	}
}

// setLinkCapacity mutates a domain-owned link's ground truth through the
// top-level emulation, which dispatches into the owning domain's network
// clone and mirrors the value into the shared top-level network (an
// element-disjoint write: no other domain touches this link).
func (d *rtDomain) setLinkCapacity(l graph.LinkID, c float64) {
	d.rt.Em.SetLinkCapacity(l, c)
}

// fail kills links (saving their capacities) and opens failure windows
// for the flows whose current routes traverse them.
func (d *rtDomain) fail(links []graph.LinkID) {
	now := d.dom.Engine.Now()
	var killed []graph.LinkID
	for _, l := range links {
		if c := d.dom.Net.Link(l).Capacity; c > 0 {
			d.rt.saved[l] = c
			d.setLinkCapacity(l, 0)
			d.transitions = append(d.transitions, Transition{At: now, Kind: LinkFail, Link: l})
			killed = append(killed, l)
		}
	}
	d.openFailures(killed, now)
}

// recoverLinks restores dead links to their pre-failure capacity and
// closes the matching failure windows.
func (d *rtDomain) recoverLinks(links []graph.LinkID) {
	now := d.dom.Engine.Now()
	for _, l := range links {
		if d.dom.Net.Link(l).Capacity <= 0 {
			c := d.rt.saved[l]
			if c <= 0 {
				c = d.rt.base[l]
			}
			d.setLinkCapacity(l, c)
			d.transitions = append(d.transitions, Transition{At: now, Kind: LinkRecover, Link: l, Capacity: c})
		}
	}
	d.closeFailures(links, now)
}

func (d *rtDomain) setCapacities(kind EventKind, links []graph.LinkID, c float64) {
	for _, l := range links {
		d.setCapacity(kind, l, c)
	}
}

// setCapacity applies an arbitrary capacity change, treating a
// transition through zero as a failure/recovery for the measurement
// windows.
func (d *rtDomain) setCapacity(kind EventKind, l graph.LinkID, c float64) {
	now := d.dom.Engine.Now()
	was := d.dom.Net.Link(l).Capacity
	if was == c {
		return
	}
	if c <= 0 && was > 0 {
		d.rt.saved[l] = was
	}
	d.setLinkCapacity(l, c)
	d.transitions = append(d.transitions, Transition{At: now, Kind: kind, Link: l, Capacity: c})
	if c <= 0 && was > 0 {
		d.openFailures([]graph.LinkID{l}, now)
	} else if c > 0 && was <= 0 {
		d.closeFailures([]graph.LinkID{l}, now)
	}
}

// setLoss applies a gray-failure phase: the links stay up (capacity
// unchanged, so no failure windows open) but every packet is lost with
// the given probability. Estimation sees the loss through the effective
// capacity it samples, so detection happens through the same noisy
// channel the paper's schemes rely on — no oracle side-channel.
func (d *rtDomain) setLoss(links []graph.LinkID, p float64) {
	now := d.dom.Engine.Now()
	for _, l := range links {
		if d.rt.Em.LinkLoss(l) == p {
			continue
		}
		d.rt.Em.SetLinkLoss(l, p)
		d.transitions = append(d.transitions, Transition{At: now, Kind: SetLoss, Link: l, Loss: p})
	}
}

// resolveGroup maps a correlated failure group's name to the concrete
// links of its members. In lenient mode members that don't resolve on
// this network are skipped (mirroring single-link events on partial
// views); a group with no resolvable member at all is an error either
// way.
func (rt *Runtime) resolveGroup(name string) ([]graph.LinkID, error) {
	for _, g := range rt.Scenario.Groups {
		if g.Name != name {
			continue
		}
		var links []graph.LinkID
		var firstErr error
		for _, ref := range g.Links {
			ls, err := resolveLink(rt.Em.Net, ref)
			if err != nil {
				if rt.opts.Strict {
					return nil, fmt.Errorf("scenario: group %q: %w", name, err)
				}
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			links = append(links, ls...)
		}
		if len(links) == 0 {
			if firstErr != nil {
				return nil, fmt.Errorf("scenario: group %q: %w", name, firstErr)
			}
			return nil, fmt.Errorf("scenario: group %q resolved no links", name)
		}
		return links, nil
	}
	return nil, fmt.Errorf("scenario: no group %q", name)
}

// nodeLinks returns the node's live links (both directions).
func (d *rtDomain) nodeLinks(n graph.NodeID) []graph.LinkID {
	var out []graph.LinkID
	for _, l := range d.dom.Net.Out(n) {
		if d.dom.Net.Link(l).Capacity > 0 {
			out = append(out, l)
		}
	}
	for _, l := range d.dom.Net.In(n) {
		if d.dom.Net.Link(l).Capacity > 0 {
			out = append(out, l)
		}
	}
	return out
}

// openFailures records a failure window for every running flow of this
// domain whose current routes use one of the killed links (a killed link
// can only be routed by its own domain's flows). A flow with an open
// window is not re-registered: overlapping failures measure as one
// episode.
func (d *rtDomain) openFailures(killed []graph.LinkID, now float64) {
	if len(killed) == 0 {
		return
	}
	open := map[string]bool{}
	for _, f := range d.failures {
		if f.RecoveredAt == 0 {
			open[f.Flow] = true
		}
	}
	for _, name := range d.order {
		rec := d.flows[name]
		if rec.StoppedAt > 0 || open[name] {
			continue
		}
		var hit []graph.LinkID
		for _, p := range rec.Flow.Routes() {
			for _, l := range p {
				for _, k := range killed {
					if l == k {
						hit = append(hit, k)
					}
				}
			}
		}
		if len(hit) > 0 {
			d.failures = append(d.failures, &Failure{Flow: name, Links: hit, At: now})
		}
	}
}

// closeFailures ends the windows of failures involving a recovered link.
func (d *rtDomain) closeFailures(links []graph.LinkID, now float64) {
	for _, f := range d.failures {
		if f.RecoveredAt != 0 {
			continue
		}
		for _, fl := range f.Links {
			for _, l := range links {
				if fl == l {
					f.RecoveredAt = now
					break
				}
			}
		}
	}
}

// startFlow computes routes and starts a flow at the current virtual
// time. Routes are computed on the domain's network as it now is (failed
// links have zero capacity and are avoided); a flow with no routes is
// recorded in SkippedFlows, as a blocked arrival would be.
func (d *rtDomain) startFlow(spec FlowSpec) {
	now := d.dom.Engine.Now()
	if d.flows[spec.Name] != nil {
		// Validate catches duplicates among scripted flows; this guards
		// the remaining hole (a scripted name colliding with a generated
		// arrival name) so measurements never double-count a record.
		d.skipped = append(d.skipped, spec.Name)
		return
	}
	src, err1 := resolveNode(d.dom.Net, spec.Src)
	dst, err2 := resolveNode(d.dom.Net, spec.Dst)
	if err1 != nil || err2 != nil {
		d.skipped = append(d.skipped, spec.Name)
		return
	}
	routes := d.rt.opts.routes()(d.dom.Net, src, dst)
	if max := spec.MaxRoutes; max > 0 && len(routes) > max {
		routes = routes[:max]
	}
	if len(routes) == 0 {
		d.skipped = append(d.skipped, spec.Name)
		return
	}
	kind := node.TrafficSaturated
	if spec.Kind == "file" {
		kind = node.TrafficFile
	}
	f, err := d.rt.Em.AddFlow(node.FlowSpec{
		Src: src, Dst: dst, Routes: routes, Kind: kind, FileBytes: spec.FileBytes,
	}, now)
	if err != nil {
		d.skipped = append(d.skipped, spec.Name)
		return
	}
	rec := &FlowRecord{Spec: spec, Flow: f, Src: src, Dst: dst, StartedAt: now}
	if d.rt.opts.ManageRoutes {
		rec.Mgr = d.rt.Em.ManageRoutes(f)
		// Reroutes re-run the same selection the flow started with, so
		// scheme semantics survive maintenance (a single-path scheme's
		// manager recomputes a single path).
		rec.Mgr.Select = node.SelectFn(d.rt.opts.routes())
		rec.Mgr.EnableFastFailover()
	}
	d.flows[spec.Name] = rec
	d.order = append(d.order, spec.Name)
	if spec.Stop > now {
		name := spec.Name
		d.dom.Engine.At(spec.Stop, func() { d.stopFlow(name) })
	}
}

// stopFlow halts a running flow (and its route manager).
func (d *rtDomain) stopFlow(name string) {
	rec := d.flows[name]
	if rec == nil || rec.StoppedAt > 0 {
		return
	}
	rec.StoppedAt = d.dom.Engine.Now()
	rec.Flow.Stop()
	if rec.Mgr != nil {
		rec.Mgr.Stop()
	}
}

// Reroutes sums the route swaps across all managed flows.
func (rt *Runtime) Reroutes() int {
	n := 0
	for _, d := range rt.doms {
		for _, name := range d.order {
			if rec := d.flows[name]; rec.Mgr != nil {
				n += rec.Mgr.Reroutes
			}
		}
	}
	return n
}

// sink returns a flow's destination sink, nil while the flow has
// delivered nothing. It only peeks: creating the sink would schedule its
// ack tick and perturb a run that continues after the query.
func (rt *Runtime) sink(rec *FlowRecord) *node.Sink {
	return rt.Em.Agent(rec.Dst).PeekSink(rec.Src, rec.Flow.ID)
}

// meanRate is the flow's delivered goodput (Mbps) over [from, to]; zero
// for a flow without a sink.
func (rt *Runtime) meanRate(rec *FlowRecord, from, to float64) float64 {
	if s := rt.sink(rec); s != nil {
		return s.MeanRate(from, to)
	}
	return 0
}

// FlowGoodput returns the delivered goodput (Mbps) of a named flow over
// [from, to].
func (rt *Runtime) FlowGoodput(name string, from, to float64) float64 {
	rec := rt.Flow(name)
	if rec == nil {
		return 0
	}
	return rt.meanRate(rec, from, to)
}

// AggregateGoodput returns the total delivered goodput of all scenario
// flows, in Mbps averaged over the scenario duration.
func (rt *Runtime) AggregateGoodput() float64 {
	var bits float64
	for _, d := range rt.doms {
		for _, name := range d.order {
			if s := rt.sink(d.flows[name]); s != nil {
				bits += float64(s.TotalBytes) * 8
			}
		}
	}
	if rt.Scenario.Duration <= 0 {
		return 0
	}
	return bits / rt.Scenario.Duration / 1e6
}

// FailoverLatencies measures, for every recorded failure episode, the
// time from the failure until the affected flow's delivered goodput
// recovered: the first full `bin`-second window inside the episode whose
// goodput reaches frac of the episode's own steady level (measured over
// the episode's second half). Episodes whose steady level never exceeds
// 5 % of the pre-failure goodput did not fail over at all — a
// single-path scheme that lost its only route — and are counted in
// `censored` instead of producing a latency, as are episodes that only
// recover when the link itself returns. Flows that were not delivering
// before the failure are skipped entirely.
//
// This is the §6.1 measurement: EMPoWER's detection (estimation timeout)
// plus rerouting shows up as a sub-second latency; a scheme without an
// alternative route shows up censored.
func (rt *Runtime) FailoverLatencies(bin, frac float64) (latencies []float64, censored int) {
	if bin <= 0 {
		bin = 0.2
	}
	if frac <= 0 {
		frac = 0.8
	}
	for _, f := range rt.Failures {
		rec := rt.Flow(f.Flow)
		if rec == nil || f.RecoveredAt <= f.At {
			continue
		}
		sink := rt.sink(rec)
		if sink == nil {
			continue // the flow never delivered; nothing to fail over
		}
		preFrom := f.At - 5
		if preFrom < rec.StartedAt {
			preFrom = rec.StartedAt
		}
		pre := sink.MeanRate(preFrom, f.At)
		if pre <= 0.5 {
			continue // the flow wasn't delivering; nothing to fail over
		}
		mid := f.At + (f.RecoveredAt-f.At)/2
		steady := sink.MeanRate(mid, f.RecoveredAt)
		if steady < 0.05*pre {
			censored++ // degraded for the whole episode (no alternative)
			continue
		}
		target := frac * steady
		ts, rates := sink.RateSeries(bin)
		lat := math.Inf(1)
		for i, t := range ts {
			if t-bin/2 < f.At {
				continue // bin overlaps the pre-failure regime
			}
			if t+bin/2 > f.RecoveredAt {
				break
			}
			if rates[i] >= target {
				lat = t + bin/2 - f.At
				break
			}
		}
		if math.IsInf(lat, 1) {
			censored++
			continue
		}
		latencies = append(latencies, lat)
	}
	return latencies, censored
}

// DegradedGoodput returns, per failure episode, the affected flow's mean
// goodput inside the episode window — the quantity that stays near zero
// for schemes that cannot fail over (§6.1's contrast case).
func (rt *Runtime) DegradedGoodput() []float64 {
	var out []float64
	for _, f := range rt.Failures {
		rec := rt.Flow(f.Flow)
		if rec == nil || f.RecoveredAt <= f.At {
			continue
		}
		out = append(out, rt.meanRate(rec, f.At, f.RecoveredAt))
	}
	return out
}

// resolveNode maps a node reference — a graph node name, or a bare
// integer taken as a 0-based node index — to its NodeID.
func resolveNode(net *graph.Network, ref string) (graph.NodeID, error) {
	for i := range net.Nodes {
		if net.Nodes[i].Name == ref {
			return graph.NodeID(i), nil
		}
	}
	if k, err := strconv.Atoi(ref); err == nil && k >= 0 && k < net.NumNodes() {
		return graph.NodeID(k), nil
	}
	return 0, fmt.Errorf("scenario: no node %q in the network", ref)
}

// resolveLink maps a LinkRef to concrete link IDs (both directions
// unless one-way), ignoring current capacities so dead links resolve
// too.
func resolveLink(net *graph.Network, ref LinkRef) ([]graph.LinkID, error) {
	from, err := resolveNode(net, ref.From)
	if err != nil {
		return nil, err
	}
	to, err := resolveNode(net, ref.To)
	if err != nil {
		return nil, err
	}
	tech, err := ParseTech(ref.Tech)
	if err != nil {
		return nil, err
	}
	find := func(a, b graph.NodeID) (graph.LinkID, bool) {
		for _, l := range net.Out(a) {
			link := net.Link(l)
			if link.To == b && link.Tech == tech {
				return l, true
			}
		}
		return 0, false
	}
	var out []graph.LinkID
	fwd, ok := find(from, to)
	if ok {
		out = append(out, fwd)
	}
	if !ref.OneWay {
		if rev, ok := find(to, from); ok {
			out = append(out, rev)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("scenario: no %s link %s->%s in the network", ref.Tech, ref.From, ref.To)
	}
	return out, nil
}
