package congestion

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
)

// Route is a preselected path available to a flow. The congestion
// controller decides the rate x_r injected on each route; routing (package
// routing) decides which routes exist, keeping the two concerns separate as
// in the paper (Figure 2).
type Route struct {
	Links graph.Path
	// Flow is the index of the flow (source-destination pair) this route
	// belongs to. Several routes may share a flow.
	Flow int
}

// Options configures a Controller. Every flow's utility is the paper's
// proportional fairness log(1+x); the §4.2 single-path update runs when
// every flow 0..max has exactly one route, the §4.3 proximal update
// otherwise.
type Options struct {
	// Alpha is the fixed step size α. The paper's implementation starts at
	// 0.02 and adapts it (see AlphaTuner); the simulations use a fixed
	// value. Defaults to 0.02.
	Alpha float64
	// Delta is the constraint margin δ ∈ [0,1] of constraint (3);
	// airtime demand in each interference domain is kept below 1−δ.
	Delta float64
	// InitialRates seeds the per-route rates x_r[0] (nil = start from
	// zero). EMPoWER sources start near the routing procedure's assumed
	// loading R(P), which is what makes convergence a matter of tens of
	// slots rather than a cold-start ramp.
	InitialRates []float64
}

// DefaultUtilityScale is the gain S applied to the (U'_f − q_r) term of the
// proximal multipath update, here and in the packet-level emulation's
// per-ack updates. It leaves the fixed point unchanged (U'_f = q_r on
// active routes) but moves the rates at a practical Mbps-per-slot speed:
// with rates denominated in Mbps the marginal utility of log(1+x) near
// 20 Mbps is ~0.05, and an unscaled update would crawl at α·U' per slot.
// 50 yields convergence in tens-to-hundreds of 100 ms slots as the paper
// reports. The single-path update does not use it.
const DefaultUtilityScale = 50

// ProximalUpdate is one route's §4.3 proximal step with gain scale and
// step size alpha, given the route's rate x, its auxiliary variable xbar,
// its flow's marginal utility and its price q. It returns the next rate,
// (1−α)x + α·max(0, x̄ + S(U′−q)), before any cap, and the next
// auxiliary variable, (1−α)x̄ + αx. Every product is rounded on its own
// (the float64 conversions), so no target fuses a multiply-add and the
// bits are the same on every architecture.
func ProximalUpdate(x, xbar, scale, alpha, marginal, q float64) (nx, nxbar float64) {
	inner := xbar + float64(scale*(marginal-q))
	if inner < 0 {
		inner = 0
	}
	return float64((1-alpha)*x) + float64(alpha*inner), float64((1-alpha)*xbar) + float64(alpha*x)
}

// Controller is the discrete-time congestion controller. Each Step invokes
// one time slot t → t+1 (100 ms in the paper's implementation): it updates
// the dual variables γ_l (congestion prices per link), the route prices
// q_r, and the route rates x_r.
//
// The state is laid out structure-of-arrays: dense rate/price/offered
// vectors indexed by route, flow and link slots, with the route→link,
// flow→route and link→interference memberships flattened to CSR index
// arrays. The duals live on interference cells, not links: eqs. (7)-(8)
// make γ_l depend on l only through which loaded links lie in I_l, so all
// links seeing the same set of sources (links on a route) share one γ, bit
// for bit. One Step touches the routes' hops, each cell's source list and
// each distinct interference row of a used link — nothing that scales with
// the size of the network — with no per-flow objects, no maps, no
// interface calls and no allocation. Trajectories
// are bit-identical to the per-flow reference implementation retained in
// reference_test.go.
//
// Capacities are latched from the network at New/Reset: a controller run
// assumes the network is not mutated between Steps (true for every
// analytic evaluation; the packet-level emulation runs its own per-ack
// updates, not this controller).
type Controller struct {
	net    *graph.Network
	routes []Route
	opts   Options

	flows  int
	single bool

	// Flow-slot arrays. flowOff/flowIdx is the flow→routes CSR: flow f's
	// route slots are flowIdx[flowOff[f]:flowOff[f+1]], in route order.
	flowOff []int32
	flowIdx []int32
	fprime  []float64 // per-flow marginal utility (scratch)

	// Route-slot arrays. linkOff/linkIdx is the route→links CSR: route
	// r's link slots are linkIdx[linkOff[r]:linkOff[r+1]], in path order.
	flowOf   []int32
	routeCap []float64 // bottleneck capacity of route r (rate cap)
	linkOff  []int32
	linkIdx  []int32
	x        []float64 // per-route rates
	xbar     []float64 // proximal auxiliary variables
	q        []float64 // per-route prices
	newX     []float64 // next-slot rates (scratch for the proximal update)

	// Link-slot arrays. intOff/intIdx is the link→interference CSR
	// mirroring Network.Interference (rebuilt only when the network
	// changes); capv/dl latch the capacities and airtime costs at Reset.
	intOff  []int32
	intIdx  []int32
	capv    []float64
	dl      []float64 // d_l = 1/c_l (+Inf on dead links)
	offered []float64 // per-link own traffic Σ_{r∋l} x_r (scratch, kept on used links only)
	airtime []float64 // per-link own airtime offered_l/c_l: written on used links, 0 elsewhere
	used    []int32   // links appearing on at least one route, ascending
	isSrc   []bool    // link is a source: appears on at least one route

	// Interference cells. Invariant: two links share a cell iff the same
	// sources lie in their interference domains, so they have had the same
	// y and γ in every slot since Reset. Cell 0 holds the links
	// with no source in range (γ ≡ 0) and may be empty; every other cell
	// is non-empty. srcOff/srcIdx is the cell→sources CSR, ascending by
	// LinkID like the reference's domain sums.
	cellOf    []int32   // link → cell
	ncell     int       // cells in use
	gamma     []float64 // per-cell dual variables
	srcOff    []int32
	srcIdx    []int32
	cellRep   []int32 // one member link per cell (scratch for rebuilding srcIdx)
	cellSize  []int32 // members per cell
	cellHit   []int32 // refine scratch: members inside the splitting row; 0 between calls
	cellChild []int32 // refine scratch: the cell split off this one; 0 between calls

	// Distinct interference rows of the used links: used links whose rows
	// are identical share one price sum. rowOff/rowCell lists each distinct
	// row's cell ids in ascending link order — the operand order of the
	// reference's Σ_{i∈I_l} γ_i — and distOff/distCell each row's distinct
	// cells. rowSum caches each row's sum at the current γ: rebuildCells
	// fills it, and Step re-sums only the rows with a cell whose γ moved.
	rowOf    []int32 // used link → row slot (by LinkID; valid on used links)
	rowRep   []int32 // row slot → a used link with that row
	rowOff   []int32
	rowCell  []int32
	distOff  []int32
	distCell []int32
	rowSum   []float64 // per-row Σ γ, a pure function of γ
	moved    []bool    // per cell: γ changed bits in the last slot (cell 0 never moves)

	anchor   []float64 // RunAppend's snapshot of x ‖ x̄ ‖ γ; meaningless between calls
	replayed int       // slots RunAppend replayed instead of stepping, since Reset
}

// New creates a controller for the given network and preselected routes.
func New(net *graph.Network, routes []Route, opts Options) (*Controller, error) {
	c := &Controller{}
	if err := c.Reset(net, routes, opts); err != nil {
		return nil, err
	}
	return c, nil
}

// Reset re-initializes the controller for a new problem — network, routes
// and options — reusing every backing array (grow-only), so a pooled
// controller makes repeated evaluations allocation-free. It is the only
// way to change a controller's state, and it is exactly equivalent to New:
// state (rates, duals, prices, slot counter) is cleared, capacities are
// re-latched, and the CSR index arrays and interference cells are rebuilt
// (the interference CSR is reused when net is the same network as the
// previous Reset — topology is immutable after Build). The cost is
// O(links + Σ_used |I_u|), plus the comparisons that tell apart used links
// of one cell whose rows differ.
func (c *Controller) Reset(net *graph.Network, routes []Route, opts Options) error {
	if opts.Alpha == 0 {
		opts.Alpha = 0.02
	}
	if opts.Alpha < 0 || opts.Alpha > 1 {
		return fmt.Errorf("congestion: alpha %v out of (0,1]", opts.Alpha)
	}
	if opts.Delta < 0 || opts.Delta >= 1 {
		return fmt.Errorf("congestion: delta %v out of [0,1)", opts.Delta)
	}
	maxFlow := -1
	totalLinks := 0
	for i, r := range routes {
		if len(r.Links) == 0 {
			return fmt.Errorf("congestion: route %d is empty", i)
		}
		if r.Flow < 0 {
			return fmt.Errorf("congestion: route %d has negative flow", i)
		}
		if r.Flow > maxFlow {
			maxFlow = r.Flow
		}
		totalLinks += len(r.Links)
	}

	sameNet := c.net == net && net != nil
	c.net, c.routes, c.opts = net, routes, opts
	c.flows = maxFlow + 1
	c.replayed = 0
	nr, nl := len(routes), net.NumLinks()

	// Link-slot arrays: latch capacities and airtime costs; rebuild the
	// interference CSR only when the network changed.
	c.capv = growF(c.capv, nl)
	c.dl = growF(c.dl, nl)
	for l := 0; l < nl; l++ {
		cl := net.Links[l].Capacity
		c.capv[l] = cl
		if cl > 0 {
			c.dl[l] = 1 / cl
		} else {
			c.dl[l] = math.Inf(1)
		}
	}
	if !sameNet {
		c.intOff = growI(c.intOff, nl+1)
		total := 0
		for l := 0; l < nl; l++ {
			c.intOff[l] = int32(total)
			total += len(net.Interference(graph.LinkID(l)))
		}
		c.intOff[nl] = int32(total)
		c.intIdx = growI(c.intIdx, total)
		pos := 0
		for l := 0; l < nl; l++ {
			for _, il := range net.Interference(graph.LinkID(l)) {
				c.intIdx[pos] = int32(il)
				pos++
			}
		}
	}

	// Route-slot arrays and the route→links CSR (path order preserved).
	c.flowOf = growI(c.flowOf, nr)
	c.routeCap = growF(c.routeCap, nr)
	c.linkOff = growI(c.linkOff, nr+1)
	c.linkIdx = growI(c.linkIdx, totalLinks)
	c.x = growF(c.x, nr)
	c.xbar = growF(c.xbar, nr)
	c.q = growF(c.q, nr)
	c.newX = growF(c.newX, nr)
	c.isSrc = growB(c.isSrc, nl)
	for l := range c.isSrc {
		c.isSrc[l] = false
	}
	c.used = c.used[:0]
	pos := 0
	for i, r := range routes {
		c.flowOf[i] = int32(r.Flow)
		c.linkOff[i] = int32(pos)
		cap := math.Inf(1)
		for _, l := range r.Links {
			c.linkIdx[pos] = int32(l)
			pos++
			if !c.isSrc[l] {
				c.isSrc[l] = true
				c.used = append(c.used, int32(l))
			}
			if cl := c.capv[l]; cl < cap {
				cap = cl
			}
		}
		c.routeCap[i] = cap
		c.x[i] = 0
		c.xbar[i] = 0
		c.q[i] = 0
		c.newX[i] = 0
	}
	c.linkOff[nr] = int32(pos)
	// Ascending, so that refining by the used links in order is
	// deterministic and rows are deduplicated against lower LinkIDs.
	for i := 1; i < len(c.used); i++ {
		for j := i; j > 0 && c.used[j] < c.used[j-1]; j-- {
			c.used[j], c.used[j-1] = c.used[j-1], c.used[j]
		}
	}
	if opts.InitialRates != nil {
		for i := 0; i < nr; i++ {
			if i < len(opts.InitialRates) && opts.InitialRates[i] > 0 {
				c.x[i] = opts.InitialRates[i]
				c.xbar[i] = opts.InitialRates[i]
			}
		}
	}

	// Flow-slot arrays and the flow→routes CSR: count, prefix-sum, fill
	// in route order (matching the append order of the reference).
	c.flowOff = growI(c.flowOff, c.flows+1)
	for f := 0; f <= c.flows; f++ {
		c.flowOff[f] = 0
	}
	for i := 0; i < nr; i++ {
		c.flowOff[c.flowOf[i]+1]++
	}
	for f := 0; f < c.flows; f++ {
		c.flowOff[f+1] += c.flowOff[f]
	}
	c.flowIdx = growI(c.flowIdx, nr)
	c.fprime = growF(c.fprime, c.flows)
	fillFlowCSR(c.flowIdx, c.flowOff, c.flowOf[:nr], c.flows)

	c.single = true
	for f := 0; f < c.flows; f++ {
		if c.flowOff[f+1]-c.flowOff[f] != 1 {
			c.single = false
		}
	}

	c.offered = growF(c.offered, nl)
	c.airtime = growF(c.airtime, nl)
	c.cellOf = growI(c.cellOf, nl)
	for l := 0; l < nl; l++ {
		c.airtime[l] = 0
		c.cellOf[l] = 0
	}

	// Cells: every link starts in cell 0; each used link's row splits off
	// the links that see it. At most nl non-empty cells plus cell 0.
	c.gamma = growF(c.gamma, nl+1)
	c.moved = growB(c.moved, nl+1)
	c.moved[0] = false
	c.cellRep = growI(c.cellRep, nl+1)
	c.cellSize = growI(c.cellSize, nl+1)
	c.cellHit = growI(c.cellHit, nl+1)
	c.cellChild = growI(c.cellChild, nl+1)
	c.ncell = 1
	c.gamma[0], c.cellSize[0], c.cellHit[0], c.cellChild[0] = 0, int32(nl), 0, 0
	for _, u := range c.used {
		c.refine(u)
	}

	// Distinct rows: identical rows imply identical cells, so only
	// representatives in the same cell are ever compared element-wise.
	c.rowOf = growI(c.rowOf, nl)
	c.rowRep = c.rowRep[:0]
	for _, u := range c.used {
		j := 0
		for ; j < len(c.rowRep); j++ {
			if v := c.rowRep[j]; c.cellOf[v] == c.cellOf[u] && slices.Equal(c.row(v), c.row(u)) {
				break
			}
		}
		if j == len(c.rowRep) {
			c.rowRep = append(c.rowRep, u)
		}
		c.rowOf[u] = int32(j)
	}
	c.rowSum = growF(c.rowSum, len(c.rowRep))
	c.rebuildCells()
	return nil
}

// row returns I_l from the interference CSR.
func (c *Controller) row(l int32) []int32 { return c.intIdx[c.intOff[l]:c.intOff[l+1]] }

// refine makes link s a source: every cell is split into its members
// inside I_s (interference is symmetric, so these are the links that have
// s in their domain) and the rest. A cell lying wholly inside I_s stays as
// it is, except cell 0, which always gives its members up so that it keeps
// meaning "no source". The new cell inherits its parent's γ (0 at Reset,
// the only caller), and cells never merge.
func (c *Controller) refine(s int32) {
	row := c.row(s)
	for _, l := range row {
		c.cellHit[c.cellOf[l]]++
	}
	for _, l := range row {
		p := c.cellOf[l]
		if p != 0 && c.cellHit[p] == c.cellSize[p] {
			continue
		}
		ch := c.cellChild[p]
		if ch == 0 {
			ch = int32(c.ncell)
			c.ncell++
			c.gamma[ch], c.cellSize[ch], c.cellHit[ch], c.cellChild[ch] = c.gamma[p], 0, 0, 0
			c.cellChild[p] = ch
		}
		c.cellOf[l] = ch
		c.cellSize[ch]++
		// Decrementing both keeps the whole-cell test above stable while
		// the cell drains, and leaves cellHit[p] at 0 when it is done.
		c.cellSize[p]--
		c.cellHit[p]--
		if c.cellHit[p] == 0 {
			c.cellChild[p] = 0
		}
	}
	for _, l := range row {
		c.cellHit[c.cellOf[l]] = 0 // wholly covered cells still hold their count
	}
}

// rebuildCells recomputes what Step reads from the cells once Reset has
// refined them: each cell's ascending source list, each distinct row's
// cell-id sequence and distinct cells, and each row's price sum at the
// current γ.
func (c *Controller) rebuildCells() {
	for l := len(c.cellOf) - 1; l >= 0; l-- {
		c.cellRep[c.cellOf[l]] = int32(l)
	}
	c.srcOff = growI(c.srcOff, c.ncell+1)
	c.srcIdx = c.srcIdx[:0]
	c.srcOff[0], c.srcOff[1] = 0, 0 // cell 0 has no sources
	for k := 1; k < c.ncell; k++ {
		// Every member sees the same sources; read them off one member's
		// row.
		for _, s := range c.row(c.cellRep[k]) {
			if c.isSrc[s] {
				c.srcIdx = append(c.srcIdx, s)
			}
		}
		c.srcOff[k+1] = int32(len(c.srcIdx))
	}
	c.rowOff = growI(c.rowOff, len(c.rowRep)+1)
	c.rowCell = c.rowCell[:0]
	for j, u := range c.rowRep {
		c.rowOff[j] = int32(len(c.rowCell))
		for _, l := range c.row(u) {
			c.rowCell = append(c.rowCell, c.cellOf[l])
		}
	}
	c.rowOff[len(c.rowRep)] = int32(len(c.rowCell))
	// Each row's distinct cells, marked in cellHit (refine's scratch, 0
	// between calls) and unmarked again once the row is listed.
	c.distOff = growI(c.distOff, len(c.rowRep)+1)
	c.distCell = c.distCell[:0]
	for j := range c.rowRep {
		c.distOff[j] = int32(len(c.distCell))
		for _, k := range c.rowCell[c.rowOff[j]:c.rowOff[j+1]] {
			if c.cellHit[k] == 0 {
				c.cellHit[k] = 1
				c.distCell = append(c.distCell, k)
			}
		}
		for _, k := range c.distCell[c.distOff[j]:] {
			c.cellHit[k] = 0
		}
		c.rowSum[j] = c.sumRow(j)
	}
	c.distOff[len(c.rowRep)] = int32(len(c.distCell))
}

// sumRow returns Σ_{i∈I_l} γ_i for row slot j: the row's cell ids in link
// order, the same operands in the same order as the reference's gather.
func (c *Controller) sumRow(j int) float64 {
	var s float64
	for _, k := range c.rowCell[c.rowOff[j]:c.rowOff[j+1]] {
		s += c.gamma[k]
	}
	return s
}

// fillFlowCSR places each route index into its flow's slot range, walking
// routes in ascending order so each flow's list stays route-ordered. off is
// used as a cursor and restored afterwards.
func fillFlowCSR(idx, off, flowOf []int32, flows int) {
	for i := range flowOf {
		f := flowOf[i]
		idx[off[f]] = int32(i)
		off[f]++
	}
	// Restore the prefix sums: off[f] now holds off[f+1]'s old value.
	for f := flows; f > 0; f-- {
		off[f] = off[f-1]
	}
	off[0] = 0
}

// NumFlows returns the number of flows.
func (c *Controller) NumFlows() int { return c.flows }

// Rates returns the current per-route rate vector x (Mbps). The returned
// slice is owned by the controller; copy it to retain it across steps.
func (c *Controller) Rates() []float64 { return c.x[:len(c.routes)] }

// FlowRate returns x_f = Σ_{r∈f} x_r for flow f.
func (c *Controller) FlowRate(f int) float64 {
	var s float64
	for _, r := range c.flowIdx[c.flowOff[f]:c.flowOff[f+1]] {
		s += c.x[r]
	}
	return s
}

// Step advances the controller by one time slot — offered load on the used
// links, one γ update per interference cell, one price sum per distinct
// used row whose cells moved, rate update — allocation-free, and
// independent of how many links the network has.
func (c *Controller) Step() {
	alpha := c.opts.Alpha
	limit := 1 - c.opts.Delta
	nr := len(c.routes)

	// offered_l = Σ_{r∋l} x_r (eq. 7 inner sum), latched as airtime
	// offered_l/c_l once per used link. No other link carries traffic.
	offered, airtime := c.offered, c.airtime
	for _, l := range c.used {
		offered[l] = 0
	}
	for r := 0; r < nr; r++ {
		xr := c.x[r]
		for _, l := range c.linkIdx[c.linkOff[r]:c.linkOff[r+1]] {
			offered[l] += xr
		}
	}
	for _, l := range c.used {
		if offered[l] > 0 && c.capv[l] > 0 {
			airtime[l] = offered[l] / c.capv[l]
		} else {
			airtime[l] = 0
		}
	}

	// y[t] = Σ_{l'∈I_l} d_{l'}·offered_{l'} (eq. 7) and
	// γ[t+1] = [γ[t] + α(y − (1−δ))]+ (eq. 8), once per cell: the sum runs
	// over the cell's sources in ascending LinkID order, which is the
	// reference's ascending-domain sum with its zero terms — exact no-ops
	// on a non-negative sum — left out. Cell 0 has y = 0 < 1−δ, so its γ
	// stays 0 and it is skipped.
	for k := 1; k < c.ncell; k++ {
		var y float64
		for _, s := range c.srcIdx[c.srcOff[k]:c.srcOff[k+1]] {
			y += airtime[s]
		}
		g := c.gamma[k] + float64(alpha*(y-limit))
		if g < 0 {
			g = 0
		}
		c.moved[k] = math.Float64bits(g) != math.Float64bits(c.gamma[k])
		c.gamma[k] = g
	}

	// q_r[t] = Σ_{l∈r} d_l Σ_{i∈I_l} γ_i (eq. 9). The inner sum walks the
	// row's cell ids in link order (same operands, same order as the
	// reference), once per distinct row; routes and links sharing a row
	// reuse it. A row none of whose cells moved keeps its cached sum: the
	// same γ bits in the same order give the same sum.
	for j := range c.rowSum {
		for _, k := range c.distCell[c.distOff[j]:c.distOff[j+1]] {
			if c.moved[k] {
				c.rowSum[j] = c.sumRow(j)
				break
			}
		}
	}
	for r := 0; r < nr; r++ {
		var qr float64
		for _, l := range c.linkIdx[c.linkOff[r]:c.linkOff[r+1]] {
			if c.capv[l] <= 0 {
				qr = math.Inf(1)
				break
			}
			qr += float64(c.dl[l] * c.rowSum[c.rowOf[l]])
		}
		c.q[r] = qr
	}

	if c.single {
		// x_r[t+1] = U'^{-1}(q_r[t])  (eq. 10), damped: the pure best
		// response switches discontinuously between the rate cap and 0
		// around q = U'(0) and saw-tooths with a fixed dual step, so the
		// implementation relaxes toward it (same fixed point).
		// U'^{-1}(q) = 1/q − 1 for log(1+x), +Inf at q ≤ 0.
		const beta = 0.3
		for r := 0; r < nr; r++ {
			q := c.q[r]
			var inv float64
			if q <= 0 {
				inv = math.Inf(1)
			} else {
				inv = 1/q - 1
				if inv < 0 {
					inv = 0
				}
			}
			x := c.capRate(r, inv)
			c.x[r] = float64((1-beta)*c.x[r]) + float64(beta*x)
		}
	} else {
		// Proximal multipath update (§4.3). The term U'_f − q_r is scaled
		// by S (DefaultUtilityScale): this is the proximal controller for
		// the equivalently-maximized objective Σ S·U_f − S/2 Σ (x−x̄)²
		// expressed in normalized prices q/S, and it moves the rates at a
		// practical Mbps-per-slot speed. The fixed point U'_f(x_f) = q_r
		// for active routes is unchanged. The flow rates and marginal
		// utilities are computed once per slot (x does not change inside
		// the loop; newX is scratch).
		for f := 0; f < c.flows; f++ {
			var s float64
			for _, r := range c.flowIdx[c.flowOff[f]:c.flowOff[f+1]] {
				s += c.x[r]
			}
			if s < 0 {
				s = 0
			}
			c.fprime[f] = 1 / (1 + s)
		}
		for r := 0; r < nr; r++ {
			nx, nxbar := ProximalUpdate(c.x[r], c.xbar[r], DefaultUtilityScale, alpha, c.fprime[c.flowOf[r]], c.q[r])
			c.newX[r] = c.capRate(r, nx)
			c.xbar[r] = nxbar
		}
		copy(c.x[:nr], c.newX[:nr])
	}
}

func (c *Controller) capRate(i int, x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > c.routeCap[i] {
		return c.routeCap[i]
	}
	return x
}

// anchorEvery is how often RunAppend re-takes its anchor snapshot. A
// recurrence is seen one period after the first anchor taken on the cycle,
// so a short interval finds early fixed points sooner and a long one admits
// longer cycles (the period must not exceed it). 64 is where the share of a
// Figure-4 sweep's slots that are replayed instead of stepped peaks
// (DESIGN.md, "SoA batch controller").
const anchorEvery = 64

// RunAppend advances n slots and appends the per-flow total rates after
// each slot to dst — n·NumFlows values, slot-major — returning the
// extended slice. With a preallocated dst this is the allocation-free
// batch form of Run; Evaluate's pooled sweep path uses it.
//
// It does not step a trajectory that has become periodic. Step is a
// deterministic function of (x, x̄, γ): everything else it reads is latched
// by Reset, which cannot run inside this call, its scratch arrays are
// written before they are read, and the row sums it keeps are a pure
// function of γ. So when the state after a slot equals, bit for bit, the
// anchor snapshot taken p slots earlier, every later slot repeats the one p
// before it: the rest of the horizon is filled by copying the last p slots
// of dst cyclically, whole periods only, which leaves the controller in
// exactly the state stepping would have, and the fewer than p slots that
// remain are stepped. Bits, not ==, so ±0 and NaN payloads count as
// different. The anchor does not outlive the call.
func (c *Controller) RunAppend(n int, dst []float64) []float64 {
	if n <= 0 {
		return dst
	}
	c.takeAnchor()
	anchorAt := 0
	for t := 1; t <= n; t++ {
		c.Step()
		dst = c.appendFlowRates(dst)
		if c.atAnchor() {
			p := t - anchorAt
			skip := (n - t) / p * p
			dst = appendCyclic(dst, p*c.flows, skip*c.flows)
			c.replayed += skip
			for t += skip; t < n; t++ {
				c.Step()
				dst = c.appendFlowRates(dst)
			}
			return dst
		}
		if t%anchorEvery == 0 {
			c.takeAnchor()
			anchorAt = t
		}
	}
	return dst
}

func (c *Controller) appendFlowRates(dst []float64) []float64 {
	for f := 0; f < c.flows; f++ {
		dst = append(dst, c.FlowRate(f))
	}
	return dst
}

// takeAnchor snapshots the state Step depends on: x ‖ x̄ ‖ γ.
func (c *Controller) takeAnchor() {
	nr := len(c.routes)
	a := append(c.anchor[:0], c.x[:nr]...)
	a = append(a, c.xbar[:nr]...)
	c.anchor = append(a, c.gamma[:c.ncell]...)
}

// atAnchor reports whether the live state equals the anchor bit for bit.
// The first mismatch returns, so off a recurrence it costs about one compare.
func (c *Controller) atAnchor() bool {
	nr := len(c.routes)
	return sameBits(c.x[:nr], c.anchor) &&
		sameBits(c.xbar[:nr], c.anchor[nr:]) &&
		sameBits(c.gamma[:c.ncell], c.anchor[2*nr:])
}

// sameBits reports whether b starts with the bit patterns of a.
func sameBits(a, b []float64) bool {
	b = b[:len(a)]
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// appendCyclic extends dst by n values that continue its last period values
// periodically.
func appendCyclic(dst []float64, period, n int) []float64 {
	if n == 0 {
		return dst
	}
	start := len(dst) - period
	dst = slices.Grow(dst, n)[:len(dst)+n]
	// Each pass copies the periodic prefix onto what follows it, doubling it.
	for have := period; have < period+n; {
		have += copy(dst[start+have:], dst[start:start+have])
	}
	return dst
}

// Run advances n slots and returns the trajectory of per-flow total rates:
// out[t][f] is flow f's rate after slot t (empty for n ≤ 0). The rows share
// one backing array, so a whole trajectory costs two allocations instead of
// n+1. Like RunAppend, under which it runs, it replays a periodic trajectory
// instead of stepping it.
func (c *Controller) Run(n int) [][]float64 {
	if n <= 0 {
		return [][]float64{}
	}
	out := make([][]float64, n)
	flat := c.RunAppend(n, make([]float64, 0, n*c.flows))
	for t := 0; t < n; t++ {
		out[t] = flat[t*c.flows : (t+1)*c.flows : (t+1)*c.flows]
	}
	return out
}

// SlotsToSteady returns the first slot index after which every value of
// series stays within tol (relative) of the final value — the paper's
// steady-state criterion ("throughput within 1% of the final throughput").
// It returns len(series) if the series never settles.
func SlotsToSteady(series []float64, tol float64) int {
	if len(series) == 0 {
		return 0
	}
	final := series[len(series)-1]
	band := tol * math.Abs(final)
	if band == 0 {
		band = tol
	}
	// One backward scan: the answer is one past the last value outside the
	// band (a NaN compares as inside).
	for u := len(series) - 1; u >= 0; u-- {
		if math.Abs(series[u]-final) > band {
			return u + 1
		}
	}
	return 0
}

// growF resizes a float64 scratch slice to n, reusing capacity.
func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// growI resizes an int32 index slice to n, reusing capacity.
func growI(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// growB resizes a bool scratch slice to n, reusing capacity.
func growB(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}
