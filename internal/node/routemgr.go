package node

import (
	"errors"
	"math"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/routing"
)

// ErrNoRoutes is returned by AddFlow and a reroute for an empty route set.
var ErrNoRoutes = errors.New("node: flow needs at least one route")

// RouteManager implements the route-maintenance policy of §3.2: "the
// routes need to be recomputed only when there is a link failure or a
// large capacity variation, which occurs infrequently". It periodically
// rebuilds the source's view of the network from the capacity estimates
// (on the real system these are disseminated link-state style; here the
// estimates live at each agent) and recomputes the multipath combination;
// when a route died or the achievable total moved by more than
// rerouteThreshold, the flow's routes are swapped live.
type RouteManager struct {
	em   *Domain
	flow *Flow

	// Select overrides the route-selection procedure run on a reroute
	// (default: the §3.2 multipath combination under the paper's
	// routing parameters, routing.DefaultConfig). Scheme sweeps use this
	// so a single-path scheme's manager recomputes a single path, not a
	// combination.
	Select SelectFn

	// Reroutes counts route swaps (for tests and logs).
	Reroutes int

	lastTotal float64
	// seqBuf is scratch for the periodic sequential-rate evaluations, so
	// the 2 s maintenance rounds stay allocation-free.
	seqBuf []float64
	// lastNetTotal tracks the network-wide estimated capacity sum: the
	// cheap signal for "a large capacity variation occurred" somewhere
	// else than on the current routes — most importantly, a previously
	// failed link coming back, which the current routes' total cannot
	// see.
	lastNetTotal float64
	periodic     interface{ Stop() }
	fast         interface{ Stop() }
}

// SelectFn chooses a flow's route set on a network view.
type SelectFn func(view *graph.Network, src, dst graph.NodeID) []graph.Path

// The route-maintenance constants.
const (
	// rerouteThreshold is the relative change of the combination total
	// that triggers a reroute.
	rerouteThreshold float64 = 0.3
	// checkInterval is the maintenance period in seconds (route checks
	// are cheap relative to their ~minutes-scale trigger frequency).
	checkInterval float64 = 2
	// failCheckInterval is the period of the fast dead-route check.
	failCheckInterval float64 = 0.25
)

// ManageRoutes starts periodic route maintenance for a flow, on the
// engine of the domain that owns it.
func (e *Emulation) ManageRoutes(f *Flow) *RouteManager {
	d := f.em
	m := &RouteManager{em: d, flow: f}
	view := d.estimatedNetwork()
	m.lastTotal = m.currentTotal(view)
	m.lastNetTotal = netCapacityTotal(view)
	m.periodic = d.Engine.Every(checkInterval, m.check)
	return m
}

// EnableFastFailover adds a lightweight dead-route check every
// failCheckInterval seconds on top of the periodic maintenance:
// the full §3.2 recomputation stays infrequent, but a route whose
// capacity estimate collapsed to zero — the estimator's failure signal —
// triggers an immediate reroute, so failover latency is governed by the
// estimation timeout (§6.1's hundreds of milliseconds) rather than the
// maintenance interval. Scenario engines enable this on the flows they
// manage.
func (m *RouteManager) EnableFastFailover() {
	if m.fast != nil {
		m.fast.Stop()
	}
	m.fast = m.em.Engine.Every(failCheckInterval, m.failCheck)
}

// Stop ends maintenance.
func (m *RouteManager) Stop() {
	m.periodic.Stop()
	if m.fast != nil {
		m.fast.Stop()
	}
}

// failCheck is the fast path: recompute only when some current route is
// dead on the estimated view.
func (m *RouteManager) failCheck() {
	if !m.flow.active {
		return
	}
	view := m.em.estimatedNetwork()
	for _, p := range m.flow.routes {
		if routing.RatePath(view, p) <= 0 {
			m.em.failovers++
			m.checkWith(view)
			return
		}
	}
}

// estimatedNetwork is the view a source inside the domain routes on: its
// own links by estimate, foreign links (which no route of the domain can
// use) at their construction-time capacity.
func (e *Domain) estimatedNetwork() *graph.Network {
	return estimatedView(e.Net, e.linkEstimate)
}

func estimatedView(net *graph.Network, estimate func(graph.LinkID) float64) *graph.Network {
	view := net.Clone()
	for l := 0; l < view.NumLinks(); l++ {
		view.Link(graph.LinkID(l)).Capacity = estimate(graph.LinkID(l))
	}
	return view
}

// currentTotal evaluates the flow's current routes on a network view:
// the combination total of loading each route in sequence on the
// residual graph (the §3.2 accounting).
func (m *RouteManager) currentTotal(view *graph.Network) float64 {
	var total float64
	m.seqBuf = routing.AppendSequentialRates(view, m.flow.routes, m.seqBuf[:0])
	for _, r := range m.seqBuf {
		if r > 0 {
			total += r
		}
	}
	return total
}

// check runs one maintenance round.
func (m *RouteManager) check() {
	if !m.flow.active {
		return
	}
	m.checkWith(m.em.estimatedNetwork())
}

// checkWith runs one maintenance round on a prepared network view.
func (m *RouteManager) checkWith(view *graph.Network) {
	cur := m.currentTotal(view)
	netTotal := netCapacityTotal(view)
	dead := false
	for _, p := range m.flow.routes {
		if routing.RatePath(view, p) <= 0 {
			dead = true
			break
		}
	}
	if !dead && m.lastTotal > 0 {
		relRoutes := math.Abs(cur-m.lastTotal) / m.lastTotal
		relNet := 0.0
		if m.lastNetTotal > 0 {
			relNet = math.Abs(netTotal-m.lastNetTotal) / m.lastNetTotal
		}
		// The paper's policy: recompute only on failure or large capacity
		// variation. The variation is watched both on the current routes
		// and network-wide — a recovered link elsewhere (e.g. the medium
		// that failed a minute ago coming back) moves only the latter.
		if relRoutes < rerouteThreshold && relNet < rerouteThreshold/2 {
			return
		}
	}
	paths := m.selectRoutes(view)
	if len(paths) == 0 {
		return // nothing better known; keep limping
	}
	total := 0.0
	m.seqBuf = routing.AppendSequentialRates(view, paths, m.seqBuf[:0])
	for _, r := range m.seqBuf {
		if r > 0 {
			total += r
		}
	}
	if !dead && total <= cur*(1+rerouteThreshold/2) {
		// A variation occurred but the recomputed routes are not
		// materially better; avoid churning.
		m.lastTotal = cur
		m.lastNetTotal = netTotal
		return
	}
	if err := m.flow.installRoutes(view, paths); err != nil {
		return
	}
	m.Reroutes++
	m.em.reroutes++
	if rec := m.em.Engine.Recorder(); rec != nil {
		rec.Record(m.em.Engine.Now(), obs.RecReroute, int32(m.flow.ID), int32(len(paths)), 0)
	}
	m.lastTotal = total
	m.lastNetTotal = netTotal
}

// selectRoutes runs the configured route selection on a view.
func (m *RouteManager) selectRoutes(view *graph.Network) []graph.Path {
	if m.Select != nil {
		return m.Select(view, m.flow.Src, m.flow.Dst)
	}
	return routing.Multipath(view, m.flow.Src, m.flow.Dst, routing.DefaultConfig()).Paths
}

// netCapacityTotal sums the view's link capacities — the cheap O(L)
// signal for network-wide capacity variation.
func netCapacityTotal(view *graph.Network) float64 {
	var s float64
	for l := 0; l < view.NumLinks(); l++ {
		s += view.Link(graph.LinkID(l)).Capacity
	}
	return s
}
