package routing

import (
	"math"

	"repro/internal/graph"
)

// RatePath returns R(P), the maximum end-to-end rate achievable on path P
// alone (§3.2): R(P) = ( max_{l∈P} Σ_{l'∈ I_l ∩ P} d_{l'} )^{-1}. It is
// the largest rate simultaneously supported by every link of the path under
// intra-path interference (Lemma 1 applied per interference domain).
func RatePath(net *graph.Network, p graph.Path) float64 {
	ws := getWS(net)
	ws.fillCap()
	r := ws.ratePath(ws.capRoot, p)
	putWS(ws)
	return r
}

// ratePath computes R(P) under a capacity overlay. Path membership is an
// epoch-stamped scratch set, so the call allocates nothing.
func (ws *workspace) ratePath(capv []float64, p graph.Path) float64 {
	if len(p) == 0 {
		return 0
	}
	ws.pathEpoch++
	ep := ws.pathEpoch
	for _, id := range p {
		ws.inPathMark[id] = ep
	}
	worst := 0.0
	for _, id := range p {
		var sum float64
		for _, i := range ws.net.Interference(id) {
			if ws.inPathMark[i] == ep {
				c := capv[i]
				if c <= 0 {
					return 0
				}
				sum += 1 / c
			}
		}
		if sum > worst {
			worst = sum
		}
	}
	if worst == 0 {
		return 0
	}
	return 1 / worst
}

// update applies update(P,G) to a capacity overlay in place, given
// r = R(P) > 0 computed on the same overlay. It scatters rather than
// gathers: each distinct path link p, in ascending LinkID order, adds its
// load r·d_p once to consumed[i] of every i ∈ I_p, and only then are the
// affected capacities rewritten, so every d_p is the pre-update one. Build
// makes interference rows symmetric (p ∈ I_i ⟺ i ∈ I_p) and ascending, so
// each affected link i receives exactly the terms of
// Σ_{l'∈ I_i ∩ P} R(P)·d_{l'} in the ascending order the gather over I_i
// adds them — the same sum, bit for bit, for O(Σ_p |I_p|) work instead of
// O(|affected|·|I|).
func (ws *workspace) update(capv []float64, p graph.Path, r float64) {
	sorted := append(ws.sortedPath[:0], p...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	ws.affEpoch++
	aep := ws.affEpoch
	aff := ws.affList[:0]
	for k, id := range sorted {
		if k > 0 && id == sorted[k-1] {
			continue // a repeated link is one member of I_i ∩ P
		}
		d := math.Inf(1)
		if c := capv[id]; c > 0 {
			d = 1 / c
		}
		t := float64(r * d) // rounded: the sum must not fuse it into an FMA
		for _, i := range ws.net.Interference(id) {
			if ws.affMark[i] != aep {
				ws.affMark[i] = aep
				aff = append(aff, i)
				ws.consumed[i] = 0
			}
			ws.consumed[i] += t
		}
	}
	for _, id := range aff {
		// r(l,P) = 1 − Σ_{l'∈ I_l ∩ P} R(P)·d_{l'}.
		frac := 1 - ws.consumed[id]
		if frac < 0 {
			frac = 0
		}
		nc := capv[id] * frac
		if nc < capacityEpsilon {
			nc = 0
		}
		capv[id] = nc
	}
	ws.sortedPath = sorted[:0]
	ws.affList = aff[:0]
}

// AppendSequentialRates appends R(P_i) for each path to dst and returns
// the extended slice: R(P_i) when the paths are loaded in order, each at
// its full residual rate — the §3.2 exploration-tree accounting that
// sources use to seed the congestion controller. It is equivalent to
// chaining R(P) and update(P,G) per path but runs on one reusable
// capacity overlay instead of cloning the network per step.
func AppendSequentialRates(net *graph.Network, paths []graph.Path, dst []float64) []float64 {
	if len(paths) == 0 {
		return dst
	}
	ws := getWS(net)
	ws.fillCap()
	for _, p := range paths {
		r := ws.ratePath(ws.capRoot, p)
		dst = append(dst, r)
		if r > 0 {
			ws.update(ws.capRoot, p, r)
		}
	}
	putWS(ws)
	return dst
}

// capacityEpsilon (Mbps) flushes numerical residue to zero so the
// exploration tree terminates cleanly.
const capacityEpsilon = 1e-9

// Combination is the result of the multipath procedure: a set of paths to
// be employed simultaneously, the rate R(P) at which each was assumed
// loaded during exploration, and the resulting total achievable capacity
// C_B = Σ R(P).
type Combination struct {
	Paths []graph.Path
	Rates []float64
	Total float64
}

// Multipath runs the full multipath-routing procedure of §3.2: it builds
// the exploration tree whose root is net, where each edge is a path
// returned by n-shortest and each child vertex the multigraph updated by
// update(P,G), and returns the path set on the root-to-leaf branch maximizing
// total capacity. The zero Combination is returned when dst is unreachable.
func Multipath(net *graph.Network, src, dst graph.NodeID, cfg Config) Combination {
	ws := getWS(net)
	ws.prepareSearch()
	var best Combination
	ws.explore(ws.capRoot, src, dst, cfg, 0, &best)
	best.Paths = copyPaths(best.Paths) // winner escapes the workspace arena
	putWS(ws)
	return best
}

// explore recurses over the exploration tree. Each child vertex is a
// capacity overlay drawn from the workspace free list — copy the parent's
// capacities, apply update(P,G) in place — rather than a Network clone.
// The branch from the root to the current vertex lives on the workspace
// branch stacks instead of per-vertex Combination copies; only an improving
// leaf copies the stacks into best.
func (ws *workspace) explore(capv []float64, src, dst graph.NodeID, cfg Config, total float64, best *Combination) {
	paths := ws.nShortest(capv, src, dst, cfg)
	// Keep only paths with strictly positive achievable rate.
	leaf := true
	for _, p := range paths {
		r := ws.ratePath(capv, p)
		if r <= capacityEpsilon {
			continue
		}
		leaf = false
		child := ws.getOverlay()
		copy(child, capv)
		ws.update(child, p, r)
		ws.branchPaths = append(ws.branchPaths, p)
		ws.branchRates = append(ws.branchRates, r)
		ws.explore(child, src, dst, cfg, total+r, best)
		ws.branchPaths = ws.branchPaths[:len(ws.branchPaths)-1]
		ws.branchRates = ws.branchRates[:len(ws.branchRates)-1]
		ws.putOverlay(child)
	}
	ws.putPathSlice(paths)
	if leaf {
		ws.captureBest(total, best)
	}
}

// captureBest copies the current branch stacks into best when the branch's
// total beats the best so far. The path headers still point into the
// workspace arena; Multipath deep-copies the winner before returning. The
// strict > keeps the reference implementation's tie-breaking: among equal
// totals the branch visited first wins.
func (ws *workspace) captureBest(total float64, best *Combination) {
	if total <= best.Total {
		return
	}
	best.Paths = append(best.Paths[:0], ws.branchPaths...)
	best.Rates = append(best.Rates[:0], ws.branchRates...)
	best.Total = total
}

// TwoBestPaths implements the naive MP-2bp baseline of §5.1: the two best
// paths from the n-shortest procedure (2-shortest), without the
// combination-aware tree search.
func TwoBestPaths(net *graph.Network, src, dst graph.NodeID, cfg Config) []graph.Path {
	c := cfg
	c.N = 2
	return NShortest(net, src, dst, c)
}
