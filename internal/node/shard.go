package node

import (
	"sync"

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

// Run advances every domain to absolute virtual time t (seconds), domain
// i on worker i mod Workers. Domains share no state during a run, so the
// assignment never affects the trajectory; one worker runs them in order
// without spawning a goroutine.
func (e *Emulation) Run(t float64) {
	if e.workers == 1 {
		for _, d := range e.doms {
			d.Engine.Run(t)
		}
	} else {
		var wg sync.WaitGroup
		for w := 0; w < e.workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(e.doms); i += e.workers {
					e.doms[i].Engine.Run(t)
				}
			}(w)
		}
		wg.Wait()
	}
	e.windows++
	// Barrier records are written after the join, so each domain's ring
	// still has a single writer.
	for _, d := range e.doms {
		if rec := d.Engine.Recorder(); rec != nil {
			rec.Record(d.Engine.Now(), obs.RecWindowBarrier, 0, 0, 0)
		}
	}
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

// Workers returns the number of goroutines a Run uses.
func (e *Emulation) Workers() int { return e.workers }
