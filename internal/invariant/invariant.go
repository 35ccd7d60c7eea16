// Package invariant checks runtime invariants of a running emulation:
// properties that hold for every correct trajectory regardless of
// scenario, seed, or shard count. The checker rides the emulation's own
// engines — one periodic tick per interference domain, on the domain's
// worker goroutine — so it observes exactly the state the handlers see,
// with no synchronization and no perturbation of the trajectory beyond
// its own timer (which never reorders the existing timeline: timer
// sequence numbers are assigned at scheduling time, and the checker
// only reads).
//
// Checked per tick, per domain:
//
//   - virtual time is monotone;
//   - the MAC's internal bookkeeping is consistent (backlog within the
//     queue limit, blocked counters matching the interference sets, the
//     per-reason drop counters summing to the total);
//   - per-link delivery and drop counters never decrease;
//   - a dead link delivers nothing beyond the one frame already on the
//     air when it died (witnessed by the capacity-change epoch, so a
//     link that failed and recovered between two ticks is never
//     falsely accused);
//   - relay conservation: every data packet entering an agent is
//     consumed locally, forwarded, or dropped with a recorded reason;
//   - every agent's cached price sums equal a fresh recompute, bit for
//     bit (node.Agent.CheckConsistency);
//   - a sink never delivers more packets than its flow injected;
//   - a congestion-controlled flow's rate stays within a slack bound of
//     its routes' estimated capacity (multi-strike, ack-fresh flows
//     only, so estimate transients don't false-positive).
package invariant

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/mac"
	"repro/internal/node"
)

// Violation is one observed invariant breach.
type Violation struct {
	At     float64 `json:"at"`
	Domain int     `json:"domain"`
	Check  string  `json:"check"`
	Detail string  `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("t=%.3f dom=%d %s: %s", v.At, v.Domain, v.Check, v.Detail)
}

// FlowInfo is what the checker needs to know about one running flow.
type FlowInfo struct {
	Name     string
	Flow     *node.Flow
	Src, Dst graph.NodeID
}

// Config tunes the checker.
type Config struct {
	// Interval is the tick period in seconds (0: 0.5).
	Interval float64
	// Limit caps the violations recorded per domain (0: 64); past it
	// the domain stops recording (the run is already broken).
	Limit int
	// Flows lists the running flows a domain owns, in creation order.
	// The checker calls it on the domain's worker goroutine at every
	// tick; it may be nil (flow-level checks are then skipped).
	Flows func(domain int) []FlowInfo
}

func (c Config) interval() float64 {
	if c.Interval <= 0 {
		return 0.5
	}
	return c.Interval
}

func (c Config) limit() int {
	if c.Limit <= 0 {
		return 64
	}
	return c.Limit
}

// rateSlack and rateFloor bound the rate-vs-capacity check: a flow may
// transiently overshoot its routes' estimated bottlenecks while
// estimates converge, so the bound is rateSlack times the estimated
// route capacity plus a rateFloor absolute allowance, and a violation
// needs rateStrikes consecutive over-bound ticks.
const (
	rateSlack   = 1.5
	rateFloor   = 1.0 // Mbps
	rateStrikes = 3
	// ackFresh is the maximum age of a flow's last ack for the rate
	// check to apply: a flow whose acks stopped (failure in progress)
	// holds a stale rate the controller can no longer correct.
	ackFresh = 1.0
)

// Checker observes an emulation. Attach it once, run the emulation,
// then call Final; Violations returns everything found.
type Checker struct {
	em    *node.Emulation
	cfg   Config
	doms  []*domChecker
	final []Violation
	done  bool
}

// linkSnap is the previous tick's view of one owned link.
type linkSnap struct {
	delivered int
	dropped   int
	epoch     uint32
	dead      bool
	busy      bool // a frame was on the air (it may legally complete)
}

// domChecker is the per-domain checker state, touched only by the
// owning domain's goroutine until Final.
type domChecker struct {
	c   *Checker
	d   int
	dom *node.Domain
	eng engineNow
	mac macView
	// priceCache checks an agent's price-sum cache
	// ((*node.Agent).CheckConsistency; a test may break it).
	priceCache func(*node.Agent) error

	links   []graph.LinkID
	nodes   []graph.NodeID
	prev    []linkSnap // indexed like links
	lastNow float64
	strikes map[string]int // consecutive over-bound ticks per flow

	violations []Violation
}

// engineNow and macView narrow the engine and the MAC to what the
// checker reads.
type engineNow interface{ Now() float64 }

type macView interface {
	CheckConsistency() error
	Stats(graph.LinkID) mac.LinkStats
	Busy(graph.LinkID) bool
}

// Attach builds a checker over the emulation and registers its periodic
// tick on every domain engine. The emulation must not have run yet.
func Attach(em *node.Emulation, cfg Config) *Checker {
	c := &Checker{em: em, cfg: cfg}
	c.doms = make([]*domChecker, em.NumDomains())
	for d := range c.doms {
		dc := &domChecker{
			c:          c,
			d:          d,
			dom:        em.Domain(d),
			strikes:    map[string]int{},
			priceCache: (*node.Agent).CheckConsistency,
		}
		dc.eng, dc.mac = dc.dom.Engine, dc.dom.MAC
		for l := 0; l < em.Net.NumLinks(); l++ {
			if em.LinkDomain(graph.LinkID(l)) == d {
				dc.links = append(dc.links, graph.LinkID(l))
			}
		}
		for n := 0; n < em.Net.NumNodes(); n++ {
			if em.NodeDomain(graph.NodeID(n)) == d {
				dc.nodes = append(dc.nodes, graph.NodeID(n))
			}
		}
		dc.prev = make([]linkSnap, len(dc.links))
		dc.snapshot()
		c.doms[d] = dc
		dc.dom.Engine.Every(cfg.interval(), dc.tick)
	}
	return c
}

// Final runs one last tick per domain (end-state checks) and merges the
// per-domain records. Call it only once all engines have stopped; it is
// idempotent.
func (c *Checker) Final() []Violation {
	if !c.done {
		c.done = true
		for _, dc := range c.doms {
			dc.tick()
		}
		for _, dc := range c.doms {
			c.final = append(c.final, dc.violations...)
		}
		sort.SliceStable(c.final, func(i, j int) bool {
			if c.final[i].At != c.final[j].At {
				return c.final[i].At < c.final[j].At
			}
			return c.final[i].Domain < c.final[j].Domain
		})
	}
	return c.final
}

// Violations returns the merged violations (after Final).
func (c *Checker) Violations() []Violation { return c.final }

func (dc *domChecker) violate(check, format string, args ...interface{}) {
	if len(dc.violations) >= dc.c.cfg.limit() {
		return
	}
	dc.violations = append(dc.violations, Violation{
		At:     dc.eng.Now(),
		Domain: dc.d,
		Check:  check,
		Detail: fmt.Sprintf(format, args...),
	})
}

// tick runs every check once, then snapshots the link state for the
// next tick's monotonicity and dead-link comparisons.
func (dc *domChecker) tick() {
	now := dc.eng.Now()
	if now < dc.lastNow {
		dc.violate("monotone-time", "virtual time went backwards: %.6f after %.6f", now, dc.lastNow)
	}
	dc.lastNow = now
	if err := dc.mac.CheckConsistency(); err != nil {
		dc.violate("mac-consistency", "%v", err)
	}
	dc.checkLinks()
	dc.checkAgents()
	dc.checkFlows(now)
	dc.snapshot()
}

func (dc *domChecker) checkLinks() {
	for i, l := range dc.links {
		st := dc.mac.Stats(l)
		prev := dc.prev[i]
		if st.DeliveredPkts < prev.delivered || st.DroppedPkts < prev.dropped {
			dc.violate("counter-monotone",
				"link %d: delivered %d->%d dropped %d->%d",
				l, prev.delivered, st.DeliveredPkts, prev.dropped, st.DroppedPkts)
		}
		// A dead link delivers nothing. The capacity epoch brackets the
		// interval: equal readings mean no fail/recover transition
		// happened between the ticks, so a link dead at both ends was
		// dead throughout — any delivery in between is a violation,
		// except the single frame that was already on the air when the
		// link died (the MAC lets it complete; see mac.LinkChanged).
		allow := 0
		if prev.busy {
			allow = 1
		}
		if prev.dead && prev.epoch == dc.c.em.CapacityEpoch(l) &&
			st.DeliveredPkts > prev.delivered+allow {
			dc.violate("dead-link-delivery",
				"link %d delivered %d packets while dead",
				l, st.DeliveredPkts-prev.delivered)
		}
	}
}

// checkAgents verifies relay flow conservation — every data packet an
// agent received is accounted for exactly once — and the agents' cached
// price sums.
func (dc *domChecker) checkAgents() {
	for _, n := range dc.nodes {
		a := dc.dom.Agents[n]
		if a == nil {
			continue
		}
		if out := a.Consumed + a.Forwarded + a.RouteDrops; a.DataIn != out {
			dc.violate("flow-conservation",
				"node %d: %d data packets in, %d accounted (%d consumed + %d forwarded + %d route-dropped)",
				n, a.DataIn, out, a.Consumed, a.Forwarded, a.RouteDrops)
		}
		if err := dc.priceCache(a); err != nil {
			dc.violate("price-cache", "%v", err)
		}
	}
}

func (dc *domChecker) checkFlows(now float64) {
	if dc.c.cfg.Flows == nil {
		return
	}
	for _, fi := range dc.c.cfg.Flows(dc.d) {
		f := fi.Flow
		// Sink conservation holds whether or not the flow still runs.
		if s := dc.c.em.Agent(fi.Dst).PeekSink(fi.Src, f.ID); s != nil {
			if s.TotalPackets > f.InjectedPackets() {
				dc.violate("sink-conservation",
					"flow %s: sink delivered %d packets of %d injected",
					fi.Name, s.TotalPackets, f.InjectedPackets())
			}
		}
		if !f.Active() || !f.CC() {
			delete(dc.strikes, fi.Name)
			continue
		}
		// Rate within estimated capacity: only meaningful while the ack
		// loop is live — without acks the controller cannot move the
		// rate, and the estimates underneath may be collapsing.
		if last := f.LastAckAt(); last < 0 || now-last > ackFresh {
			delete(dc.strikes, fi.Name)
			continue
		}
		var bound float64
		for _, p := range f.Routes() {
			cap := -1.0
			for _, l := range p {
				if c := dc.c.em.LinkEstimate(l); cap < 0 || c < cap {
					cap = c
				}
			}
			if cap > 0 {
				bound += cap
			}
		}
		if f.TotalRate() > rateSlack*bound+rateFloor {
			dc.strikes[fi.Name]++
			if dc.strikes[fi.Name] >= rateStrikes {
				dc.violate("rate-bound",
					"flow %s: rate %.2f Mbps above %.2f (%.1fx estimated capacity %.2f + %.1f) for %d ticks",
					fi.Name, f.TotalRate(), rateSlack*bound+rateFloor, rateSlack, bound, rateFloor, dc.strikes[fi.Name])
				dc.strikes[fi.Name] = 0
			}
		} else {
			delete(dc.strikes, fi.Name)
		}
	}
}

func (dc *domChecker) snapshot() {
	for i, l := range dc.links {
		st := dc.mac.Stats(l)
		dc.prev[i] = linkSnap{
			delivered: st.DeliveredPkts,
			dropped:   st.DroppedPkts,
			epoch:     dc.c.em.CapacityEpoch(l),
			dead:      dc.dom.Net.Link(l).Capacity <= 0,
			busy:      dc.mac.Busy(l),
		}
	}
}
