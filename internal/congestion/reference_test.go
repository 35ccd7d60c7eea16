package congestion

// The pre-SoA scalar controller, kept verbatim (renamed) as an executable
// specification: equivalence_test.go asserts the batch controller produces
// exact-== trajectories against it. Mirrors the reference_test.go pattern
// PR 2 established for the routing workspace rewrite.

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// referenceRunAppend is RunAppend's loop as it was before it replayed
// periodic trajectories, verbatim: every slot is stepped. It drives the
// batch controller itself, so it is the oracle for the replay alone.
func referenceRunAppend(c *Controller, n int, dst []float64) []float64 {
	for t := 0; t < n; t++ {
		c.Step()
		for f := 0; f < c.flows; f++ {
			dst = append(dst, c.FlowRate(f))
		}
	}
	return dst
}

// refController is the per-flow/per-route scalar implementation the SoA
// batch core replaced, reduced to what the controller still does: the
// proportional-fairness utility, the 1−δ budget and the capped rates.
type refController struct {
	net    *graph.Network
	routes []Route
	opts   Options

	flows      int
	flowOf     []int   // route -> flow
	flowRoutes [][]int // flow -> route indices

	linkRoutes [][]int
	routeCap   []float64

	single bool

	x     []float64
	xbar  []float64
	gamma []float64
	load  []float64
	y     []float64
	q     []float64
	newX  []float64
	frate []float64

	t int
}

func newRef(net *graph.Network, routes []Route, opts Options) (*refController, error) {
	if opts.Alpha == 0 {
		opts.Alpha = 0.02
	}
	if opts.Alpha < 0 || opts.Alpha > 1 {
		return nil, fmt.Errorf("congestion: alpha %v out of (0,1]", opts.Alpha)
	}
	if opts.Delta < 0 || opts.Delta >= 1 {
		return nil, fmt.Errorf("congestion: delta %v out of [0,1)", opts.Delta)
	}
	c := &refController{net: net, routes: routes, opts: opts}
	maxFlow := -1
	for i, r := range routes {
		if len(r.Links) == 0 {
			return nil, fmt.Errorf("congestion: route %d is empty", i)
		}
		if r.Flow < 0 {
			return nil, fmt.Errorf("congestion: route %d has negative flow", i)
		}
		if r.Flow > maxFlow {
			maxFlow = r.Flow
		}
	}
	c.flows = maxFlow + 1
	c.flowOf = make([]int, len(routes))
	c.flowRoutes = make([][]int, c.flows)
	c.routeCap = make([]float64, len(routes))
	c.linkRoutes = make([][]int, net.NumLinks())
	for i, r := range routes {
		c.flowOf[i] = r.Flow
		c.flowRoutes[r.Flow] = append(c.flowRoutes[r.Flow], i)
		cap := math.Inf(1)
		for _, l := range r.Links {
			c.linkRoutes[l] = append(c.linkRoutes[l], i)
			if cl := net.Link(l).Capacity; cl < cap {
				cap = cl
			}
		}
		c.routeCap[i] = cap
	}
	c.single = true
	for f := 0; f < c.flows; f++ {
		if len(c.flowRoutes[f]) != 1 {
			c.single = false
		}
	}
	c.x = make([]float64, len(routes))
	c.xbar = make([]float64, len(routes))
	if opts.InitialRates != nil {
		for i := range c.x {
			if i < len(opts.InitialRates) && opts.InitialRates[i] > 0 {
				c.x[i] = opts.InitialRates[i]
				c.xbar[i] = opts.InitialRates[i]
			}
		}
	}
	c.gamma = make([]float64, net.NumLinks())
	c.load = make([]float64, net.NumLinks())
	c.y = make([]float64, net.NumLinks())
	c.q = make([]float64, len(routes))
	c.newX = make([]float64, len(routes))
	c.frate = make([]float64, c.flows)
	return c, nil
}

func (c *refController) FlowRate(f int) float64 {
	var s float64
	for _, r := range c.flowRoutes[f] {
		s += c.x[r]
	}
	return s
}

func (c *refController) Step() {
	alpha := c.opts.Alpha
	limit := 1 - c.opts.Delta

	for l := range c.load {
		c.load[l] = 0
	}
	for i, r := range c.routes {
		for _, l := range r.Links {
			c.load[l] += c.x[i]
		}
	}

	for l := 0; l < c.net.NumLinks(); l++ {
		var yOwn float64
		for _, lp := range c.net.Interference(graph.LinkID(l)) {
			link := c.net.Link(lp)
			if link.Capacity > 0 && c.load[lp] > 0 {
				yOwn += c.load[lp] / link.Capacity
			}
		}
		c.y[l] = yOwn
		g := c.gamma[l] + float64(alpha*(yOwn-limit))
		if g < 0 {
			g = 0
		}
		c.gamma[l] = g
	}

	for i, r := range c.routes {
		var q float64
		for _, l := range r.Links {
			link := c.net.Link(l)
			if link.Capacity <= 0 {
				q = math.Inf(1)
				break
			}
			var gsum float64
			for _, il := range c.net.Interference(l) {
				gsum += c.gamma[il]
			}
			q += float64(link.D() * gsum)
		}
		c.q[i] = q
	}

	if c.single {
		const beta = 0.3
		for i := range c.routes {
			x := c.capRate(i, ProportionalFairness{}.PrimeInv(c.q[i]))
			c.x[i] = float64((1-beta)*c.x[i]) + float64(beta*x)
		}
	} else {
		const scale = 50
		for f := 0; f < c.flows; f++ {
			c.frate[f] = c.FlowRate(f)
		}
		for i := range c.routes {
			f := c.flowOf[i]
			inner := c.xbar[i] + float64(scale*(ProportionalFairness{}.Prime(c.frate[f])-c.q[i]))
			if inner < 0 {
				inner = 0
			}
			nx := float64((1-alpha)*c.x[i]) + float64(alpha*inner)
			c.newX[i] = c.capRate(i, nx)
		}
		for i := range c.xbar {
			c.xbar[i] = float64((1-alpha)*c.xbar[i]) + float64(alpha*c.x[i])
		}
		copy(c.x, c.newX)
	}
	c.t++
}

func (c *refController) capRate(i int, x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > c.routeCap[i] {
		return c.routeCap[i]
	}
	if math.IsInf(x, 1) {
		return c.routeCap[i]
	}
	return x
}

func (c *refController) Run(n int) [][]float64 {
	out := make([][]float64, n)
	if n <= 0 {
		return out
	}
	flat := make([]float64, n*c.flows)
	for t := 0; t < n; t++ {
		c.Step()
		row := flat[t*c.flows : (t+1)*c.flows : (t+1)*c.flows]
		for f := range row {
			row[f] = c.FlowRate(f)
		}
		out[t] = row
	}
	return out
}
