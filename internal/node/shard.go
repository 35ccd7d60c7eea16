package node

import (
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/stats"
)

// domainSeedBase offsets the per-domain RNG seed splits away from the
// seed domains the experiment runners already use (runner tasks use the
// plain index, scenario expansion 1_000_000+run, topology generation
// 2_000_000+run).
const domainSeedBase = 3_000_000

// domainSeed is domain d's RNG seed. Both sides are pinned trajectories
// (bench/golden.json, experiments/pins_test.go): a connected topology has
// always drawn from the caller's seed, a decomposed one from per-domain
// splits. Nothing else depends on the domain count.
func domainSeed(seed int64, d, num int) int64 {
	if num == 1 {
		return seed
	}
	return stats.SplitSeed(seed, domainSeedBase+d)
}

// Run advances every domain to absolute virtual time t (seconds), one
// after another in domain order, and closes the window with a barrier
// record in each domain's flight recorder. A domain reads live only the
// state it owns (see NewEmulation), so the order never affects the
// trajectory.
func (e *Emulation) Run(t float64) {
	if e.released {
		panic("node: Emulation.Run after Release")
	}
	for _, d := range e.doms {
		d.Engine.Run(t)
		if rec := d.Engine.Recorder(); rec != nil {
			rec.Record(d.Engine.Now(), obs.RecWindowBarrier, 0, 0, 0)
		}
	}
	e.windows++
}

// Now returns the virtual time every domain reached at the last Run.
func (e *Emulation) Now() float64 { return e.doms[0].Engine.Now() }

// NumDomains returns the number of interference domains.
func (e *Emulation) NumDomains() int { return len(e.doms) }

// Domain returns domain d.
func (e *Emulation) Domain(d int) *Domain { return e.doms[d] }

// NodeDomain returns the domain owning node n.
func (e *Emulation) NodeDomain(n graph.NodeID) int { return e.nodeDom[n] }

// LinkDomain returns the domain owning link l.
func (e *Emulation) LinkDomain(l graph.LinkID) int { return e.linkDom[l] }
