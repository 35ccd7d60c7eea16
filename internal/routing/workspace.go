package routing

import (
	"math"
	"sync"

	"repro/internal/graph"
)

// workspace holds every piece of scratch state the routing procedures need,
// sized to one network and reused across calls through a sync.Pool. All
// set-shaped scratch (visited, banned, in-path membership, …) is
// epoch-stamped: a slot belongs to the current operation iff its mark equals
// the operation's epoch, so reuse needs no clearing — acquiring a fresh set
// is a single counter increment. Slices are grown, never shrunk; stale marks
// from a larger previous network can never equal a fresh epoch because
// epochs only move forward.
//
// A workspace is not safe for concurrent use; the pool hands each goroutine
// its own. Exported entry points acquire and release one per call, internal
// routines thread the caller's through.
type workspace struct {
	net *graph.Network

	// Virtual-interface search state (dijkstra). States are dense integers
	// idx = node*stride + tech + 1, where tech = -1 (noTech) for the search
	// source; stride = maxTech + 2.
	stride      int
	searchEpoch uint64
	distMark    []uint64
	visMark     []uint64
	dist        []float64
	prevLink    []int32
	prevState   []int32
	hops        []int32
	heap        []heapState

	// Banned link/node sets for Yen spur searches (by LinkID / NodeID).
	banEpoch    uint64
	banLinkMark []uint64
	banNodeMark []uint64

	// Link-membership set for R(P) / R(l,P) (by LinkID).
	pathEpoch  uint64
	inPathMark []uint64

	// update(P,G) scratch: the path's links in ascending order, the
	// affected-link set (the union of the interference domains of the
	// path's links) and each affected link's consumed airtime share.
	sortedPath []graph.LinkID
	affEpoch   uint64
	affMark    []uint64
	affList    []graph.LinkID
	consumed   []float64

	// Node marks for loop removal and path validation (by NodeID).
	nodeEpoch uint64
	nodeMark  []uint64
	nodeIdx   []int32

	// Reusable path and node-sequence buffers.
	pathBuf  []graph.LinkID // dijkstra reconstruction target
	totalBuf []graph.LinkID // Yen root+spur assembly
	nodesBuf []graph.NodeID // node sequence of the deviation path

	// Yen candidate heap and de-duplication keys.
	cands    []candEntry
	seenKeys map[pathKey]struct{}

	// Per-view capacity overlay and precomputed per-node w_ns. capRoot is
	// the root vertex's capacities (copied from the network once per call);
	// the exploration tree's children draw further overlays from the free
	// list instead of cloning the network.
	capRoot  []float64
	wns      []float64
	overlays [][]float64

	// Path-key packing: paths of up to maxPackLen links pack injectively
	// into a uint64 (positional code with digits id+1 in base numLinks+1);
	// longer paths fall back to a string key.
	packBase   uint64
	maxPackLen int

	// Link arena for the paths built during one search (Yen's accepted
	// and candidate paths, the exploration tree's branches). Chunks are
	// never reallocated, so arena paths stay valid until the next
	// prepareSearch; results that outlive the call (Multipath/NShortest
	// returns) are deep-copied out on exit.
	chunks [][]graph.LinkID
	chunkI int

	// Free list of path-slice headers (nShortest accepted lists).
	pathSlices [][]graph.Path

	// Exploration-tree branch stack: the root-to-vertex paths and rates,
	// replacing the per-vertex Combination copies.
	branchPaths []graph.Path
	branchRates []float64
}

// heapState is a dijkstra frontier entry. The heap is a manual binary heap
// with exactly container/heap's sift rules and a less of strict dist
// comparison, so pop order — including the order among equal distances —
// is identical to the reference map-based implementation.
type heapState struct {
	dist  float64
	state int32
}

// candEntry is a Yen candidate. seq is the generation number; ordering by
// (weight, seq) reproduces the reference implementation's repeated
// stable-sort selection: among equal-weight minima, the earliest-generated
// candidate wins.
type candEntry struct {
	weight float64
	seq    int
	path   graph.Path
}

// pathKey is a comparable de-duplication key for a path: the packed uint64
// code when the path fits, a string fallback otherwise. The two variants
// cannot collide (fallback keys carry a non-empty string).
type pathKey struct {
	packed uint64
	long   string
}

var wsPool = sync.Pool{New: func() any { return &workspace{} }}

// getWS acquires a workspace sized for net's links and nodes. Search state
// (dijkstra arrays, key packing, capacity overlay) is sized separately by
// prepareSearch, so rate-only operations skip it.
func getWS(net *graph.Network) *workspace {
	ws := wsPool.Get().(*workspace)
	ws.net = net
	nl, nn := net.NumLinks(), net.NumNodes()
	ws.banLinkMark = growU64(ws.banLinkMark, nl)
	ws.inPathMark = growU64(ws.inPathMark, nl)
	ws.consumed = growF64(ws.consumed, nl)
	ws.affMark = growU64(ws.affMark, nl)
	ws.banNodeMark = growU64(ws.banNodeMark, nn)
	ws.nodeMark = growU64(ws.nodeMark, nn)
	ws.nodeIdx = growI32(ws.nodeIdx, nn)
	return ws
}

func putWS(ws *workspace) {
	ws.net = nil
	wsPool.Put(ws)
}

// prepareSearch sizes the dijkstra state for the virtual interface graph,
// fills the root capacity overlay, and derives the key-packing parameters.
func (ws *workspace) prepareSearch() {
	net := ws.net
	maxTech := -1
	for i := range net.Links {
		if t := int(net.Links[i].Tech); t > maxTech {
			maxTech = t
		}
	}
	ws.stride = maxTech + 2
	n := net.NumNodes() * ws.stride
	ws.distMark = growU64(ws.distMark, n)
	ws.visMark = growU64(ws.visMark, n)
	ws.dist = growF64(ws.dist, n)
	ws.prevLink = growI32(ws.prevLink, n)
	ws.prevState = growI32(ws.prevState, n)
	ws.hops = growI32(ws.hops, n)
	ws.wns = growF64(ws.wns, net.NumNodes())
	ws.fillCap()

	ws.packBase = uint64(net.NumLinks()) + 1
	ws.maxPackLen = 0
	if ws.packBase >= 2 {
		prod := uint64(1)
		for ws.maxPackLen < 64 && prod <= math.MaxUint64/ws.packBase {
			prod *= ws.packBase
			ws.maxPackLen++
		}
	}

	ws.arenaReset()
	ws.branchPaths = ws.branchPaths[:0]
	ws.branchRates = ws.branchRates[:0]
}

// arenaChunkLinks is the size of one arena chunk. Paths longer than this
// (impossible under realistic hop limits) fall back to a plain allocation.
const arenaChunkLinks = 1024

// arenaReset recycles every arena chunk for a new top-level search. Paths
// handed out before the reset must not be referenced afterwards; the public
// entry points guarantee that by deep-copying escaping results.
func (ws *workspace) arenaReset() {
	for i := range ws.chunks {
		ws.chunks[i] = ws.chunks[i][:0]
	}
	ws.chunkI = 0
}

// arenaAlloc carves a path of length n out of the arena. Chunks are never
// reallocated, so the returned slice stays valid until the next arenaReset.
func (ws *workspace) arenaAlloc(n int) graph.Path {
	if n > arenaChunkLinks {
		return make(graph.Path, n)
	}
	for {
		if ws.chunkI == len(ws.chunks) {
			ws.chunks = append(ws.chunks, make([]graph.LinkID, 0, arenaChunkLinks))
		}
		c := ws.chunks[ws.chunkI]
		if len(c)+n <= cap(c) {
			p := c[len(c) : len(c)+n : len(c)+n]
			ws.chunks[ws.chunkI] = c[:len(c)+n]
			return p
		}
		ws.chunkI++
	}
}

// getPathSlice returns an empty path-header slice from the free list;
// putPathSlice gives one back once its paths are consumed. nShortest takes
// one per call (including empty-result returns) and every caller returns
// it, so the free list never grows past the exploration depth.
func (ws *workspace) getPathSlice() []graph.Path {
	if k := len(ws.pathSlices); k > 0 {
		s := ws.pathSlices[k-1]
		ws.pathSlices[k-1] = nil
		ws.pathSlices = ws.pathSlices[:k-1]
		return s[:0]
	}
	return nil
}

func (ws *workspace) putPathSlice(s []graph.Path) {
	ws.pathSlices = append(ws.pathSlices, s[:0])
}

// copyPaths deep-copies arena-backed paths into fresh storage — one flat
// backing array plus the header slice — so results can outlive the
// workspace that built them. Empty input yields nil.
func copyPaths(src []graph.Path) []graph.Path {
	if len(src) == 0 {
		return nil
	}
	n := 0
	for _, p := range src {
		n += len(p)
	}
	flat := make([]graph.LinkID, n)
	out := make([]graph.Path, len(src))
	pos := 0
	for i, p := range src {
		end := pos + len(p)
		out[i] = flat[pos:end:end]
		copy(out[i], p)
		pos = end
	}
	return out
}

// fillCap copies the network's current capacities into the root overlay.
func (ws *workspace) fillCap() {
	ws.capRoot = growF64(ws.capRoot, ws.net.NumLinks())
	for i := range ws.net.Links {
		ws.capRoot[i] = ws.net.Links[i].Capacity
	}
}

// computeWns fills ws.wns with w_ns(u) for every node under the given
// capacity overlay: the minimum d_l over u's live egress links, 0 when u
// has none (same values, same comparison order as the wns function).
func (ws *workspace) computeWns(capv []float64) {
	net := ws.net
	for u := range net.Nodes {
		best := math.Inf(1)
		for _, id := range net.Out(graph.NodeID(u)) {
			if c := capv[id]; c > 0 {
				if d := 1 / c; d < best {
					best = d
				}
			}
		}
		if math.IsInf(best, 1) {
			best = 0
		}
		ws.wns[u] = best
	}
}

// key returns the de-duplication key of a path.
func (ws *workspace) key(p []graph.LinkID) pathKey {
	if len(p) <= ws.maxPackLen {
		var k uint64
		for i := len(p) - 1; i >= 0; i-- {
			k = k*ws.packBase + uint64(p[i]) + 1
		}
		return pathKey{packed: k}
	}
	b := make([]byte, 0, len(p)*4)
	for _, id := range p {
		b = append(b, byte(id>>24), byte(id>>16), byte(id>>8), byte(id))
	}
	return pathKey{packed: ^uint64(0), long: string(b)}
}

// getOverlay returns a capacity overlay of the network's link count from
// the free list (or a fresh one); putOverlay returns it after the child
// vertex's subtree is explored.
func (ws *workspace) getOverlay() []float64 {
	n := ws.net.NumLinks()
	if k := len(ws.overlays); k > 0 {
		o := ws.overlays[k-1]
		ws.overlays = ws.overlays[:k-1]
		if cap(o) >= n {
			return o[:n]
		}
	}
	return make([]float64, n)
}

func (ws *workspace) putOverlay(o []float64) {
	ws.overlays = append(ws.overlays, o)
}

// pathNodes writes the node sequence of p into the reusable buffer. ok is
// false when the links do not chain (mirrors Network.PathNodes failing).
func (ws *workspace) pathNodes(p graph.Path) (nodes []graph.NodeID, ok bool) {
	if len(p) == 0 {
		return nil, false
	}
	nodes = ws.nodesBuf[:0]
	cur := ws.net.Link(p[0]).From
	nodes = append(nodes, cur)
	for _, id := range p {
		l := ws.net.Link(id)
		if l.From != cur {
			ws.nodesBuf = nodes
			return nil, false
		}
		cur = l.To
		nodes = append(nodes, cur)
	}
	ws.nodesBuf = nodes
	return nodes, true
}

// validPath reports whether p is a connected loop-free path from src to
// dst — the allocation-free equivalent of Network.ValidatePath == nil.
func (ws *workspace) validPath(p graph.Path, src, dst graph.NodeID) bool {
	if len(p) == 0 {
		return false
	}
	net := ws.net
	if net.Link(p[0]).From != src {
		return false
	}
	ws.nodeEpoch++
	ep := ws.nodeEpoch
	cur := src
	ws.nodeMark[cur] = ep
	for _, id := range p {
		l := net.Link(id)
		if l.From != cur {
			return false
		}
		cur = l.To
		if ws.nodeMark[cur] == ep {
			return false
		}
		ws.nodeMark[cur] = ep
	}
	return cur == dst
}

// removeNodeLoops shortcuts node revisits in a walk, in place, with the
// same cut-first-revisit-and-restart policy as the reference
// implementation. With the EMPoWER weights a cut never increases the path
// weight: removing a loop at node u drops at least one egress link of u
// (weight ≥ w_ns(u)) while adding at most w_ns(u) of channel-switching
// cost.
func (ws *workspace) removeNodeLoops(p []graph.LinkID) []graph.LinkID {
	net := ws.net
	for {
		if len(p) == 0 {
			return p
		}
		ws.nodeEpoch++
		ep := ws.nodeEpoch
		from := net.Link(p[0]).From
		ws.nodeMark[from] = ep
		ws.nodeIdx[from] = 0
		loop := false
		for i, id := range p {
			to := net.Link(id).To
			if ws.nodeMark[to] == ep {
				// Links j..i form a loop returning to node `to`; cut them.
				j := int(ws.nodeIdx[to])
				p = p[:j+copy(p[j:], p[i+1:])]
				loop = true
				break
			}
			ws.nodeMark[to] = ep
			ws.nodeIdx[to] = int32(i + 1)
		}
		if !loop {
			return p
		}
	}
}

func growU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func growF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// --- manual binary heaps -------------------------------------------------

// heapPushState appends e and sifts up, exactly as container/heap.Push.
func heapPushState(h []heapState, e heapState) []heapState {
	h = append(h, e)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	return h
}

// heapPopState removes and returns the minimum, exactly as
// container/heap.Pop (swap root with last, sift down, truncate).
func heapPopState(h []heapState) ([]heapState, heapState) {
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].dist < h[j1].dist {
			j = j2
		}
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	e := h[n]
	return h[:n], e
}

func candLess(a, b candEntry) bool {
	if a.weight != b.weight {
		return a.weight < b.weight
	}
	return a.seq < b.seq
}

func heapPushCand(h []candEntry, e candEntry) []candEntry {
	h = append(h, e)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !candLess(h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	return h
}

func heapPopCand(h []candEntry) ([]candEntry, candEntry) {
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && candLess(h[j2], h[j1]) {
			j = j2
		}
		if !candLess(h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	e := h[n]
	h[n] = candEntry{} // release the path for GC
	return h[:n], e
}
