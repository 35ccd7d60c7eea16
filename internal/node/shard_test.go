package node

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/graph"
)

// clusterNet builds k disjoint diamond clusters (a→{b,c}→d, duplex WiFi)
// spaced far beyond the sensing radius, so the network decomposes into k
// interference domains. It returns the network and, per cluster, the
// flow endpoints with two disjoint routes.
type clusterFlow struct {
	src, dst graph.NodeID
	routes   []graph.Path
}

func clusterNet(k int) (*graph.Network, []clusterFlow) {
	b := graph.NewBuilder(graph.RangeBased{SenseRadius: map[graph.Tech]float64{graph.TechWiFi: 50}})
	type quad struct{ a, bb, c, d graph.NodeID }
	quads := make([]quad, k)
	type linkPair struct{ ab, bd, ac, cd graph.LinkID }
	pairs := make([]linkPair, k)
	for i := 0; i < k; i++ {
		ox := float64(i) * 1000
		q := quad{
			a:  b.AddNode(fmt.Sprintf("a%d", i), ox, 0, graph.TechWiFi),
			bb: b.AddNode(fmt.Sprintf("b%d", i), ox+10, 10, graph.TechWiFi),
			c:  b.AddNode(fmt.Sprintf("c%d", i), ox+10, -10, graph.TechWiFi),
			d:  b.AddNode(fmt.Sprintf("d%d", i), ox+20, 0, graph.TechWiFi),
		}
		quads[i] = q
		cap := 30 + 6*float64(i%3)
		pairs[i].ab, _ = b.AddDuplex(q.a, q.bb, graph.TechWiFi, cap)
		pairs[i].bd, _ = b.AddDuplex(q.bb, q.d, graph.TechWiFi, cap)
		pairs[i].ac, _ = b.AddDuplex(q.a, q.c, graph.TechWiFi, cap-6)
		pairs[i].cd, _ = b.AddDuplex(q.c, q.d, graph.TechWiFi, cap-6)
	}
	net := b.Build()
	flows := make([]clusterFlow, k)
	for i := range flows {
		flows[i] = clusterFlow{
			src: quads[i].a,
			dst: quads[i].d,
			routes: []graph.Path{
				{pairs[i].ab, pairs[i].bd},
				{pairs[i].ac, pairs[i].cd},
			},
		}
	}
	return net, flows
}

// shardedFingerprint runs the cluster workload under cfg (capacity
// estimation on), in the given number of equal Run calls, and folds the
// full observable trajectory — delivered bytes, exact congestion-control
// rates, forwarding counters — into a string.
func shardedFingerprint(t *testing.T, cfg Config, chunks int, seconds float64) string {
	t.Helper()
	net, cflows := clusterNet(4)
	cfg.Estimation = true
	em := NewEmulation(net, cfg, 77)
	var flows []*Flow
	for _, cf := range cflows {
		fl, err := em.AddFlow(FlowSpec{Src: cf.src, Dst: cf.dst, Routes: cf.routes, Kind: TrafficSaturated}, 0)
		if err != nil {
			t.Fatal(err)
		}
		flows = append(flows, fl)
	}
	for i := 1; i <= chunks; i++ {
		em.Run(seconds * float64(i) / float64(chunks))
		for d := 0; d < em.NumDomains(); d++ {
			if now := em.Domain(d).Engine.Now(); now != em.Now() {
				t.Fatalf("after Run %d/%d domain %d stands at %v, domain 0 at %v", i, chunks, d, now, em.Now())
			}
		}
	}
	out := ""
	for i, fl := range flows {
		s := em.Agent(fl.Dst).SinkFor(fl.Src, fl.ID)
		out += fmt.Sprintf("flow%d bytes=%d rates=%v\n", i, s.TotalBytes, fl.Rates())
	}
	for n, a := range em.Agents {
		if a.Forwarded+a.Consumed > 0 {
			out += fmt.Sprintf("node%d fwd=%d consumed=%d\n", n, a.Forwarded, a.Consumed)
		}
	}
	return out
}

// TestShardedDeterminism is the contract at the node layer: the same
// seed yields a bit-identical trajectory on a rerun, because the domain
// decomposition and the per-domain seed splits depend only on the
// topology. A flight recorder only observes, so attaching one changes
// nothing, and where the caller places its Run barriers is not part of
// the trajectory either.
func TestShardedDeterminism(t *testing.T) {
	seconds := 12.0
	if testing.Short() {
		seconds = 4.0
	}
	ref := shardedFingerprint(t, Config{}, 1, seconds)
	if rerun := shardedFingerprint(t, Config{}, 1, seconds); rerun != ref {
		t.Fatalf("rerun diverged:\n--- first\n%s--- rerun\n%s", ref, rerun)
	}
	for _, size := range []int{64, 512} {
		if got := shardedFingerprint(t, Config{Recorder: size}, 1, seconds); got != ref {
			t.Fatalf("recorder=%d diverged:\n--- off\n%s--- on\n%s", size, ref, got)
		}
	}
	if chunked := shardedFingerprint(t, Config{}, 3, seconds); chunked != ref {
		t.Fatalf("three Run calls diverged from one:\n--- one\n%s--- three\n%s", ref, chunked)
	}
}

// TestShardedSingleDomainFallsBack: a topology that does not decompose
// is the one-domain instance of the same engine and keeps the caller's
// seed, so a connected network reproduces the trajectory recorded from
// commit 66d524b's single-engine construction (figure1, seed 21, 6 s).
// The degenerate rows — no links at all, an
// isolated node beside a connected component — must build and run as one
// domain too.
func TestShardedSingleDomainFallsBack(t *testing.T) {
	const figure1Pin = "bytes=11433000 rates=[9.992873045454463 5.3326916359319885]"
	noLinks := func() *graph.Network {
		b := graph.NewBuilder(nil)
		b.AddNode("a", 0, 0, graph.TechWiFi)
		b.AddNode("b", 1, 0, graph.TechWiFi)
		return b.Build()
	}
	isolated := func() *graph.Network {
		b := graph.NewBuilder(nil)
		a := b.AddNode("a", 0, 0, graph.TechWiFi)
		c := b.AddNode("c", 1, 0, graph.TechWiFi)
		b.AddNode("alone", 500, 0, graph.TechPLC)
		b.AddDuplex(a, c, graph.TechWiFi, 30)
		return b.Build()
	}
	for _, tc := range []struct {
		name string
		net  func() *graph.Network
	}{
		{"no-links", noLinks},
		{"isolated-node", isolated},
	} {
		net := tc.net()
		em := NewEmulation(net, Config{Estimation: true}, 21)
		if em.NumDomains() != 1 {
			t.Fatalf("%s: domains=%d, want 1", tc.name, em.NumDomains())
		}
		em.Run(2)
		for n := 0; n < net.NumNodes(); n++ {
			if em.Agent(graph.NodeID(n)) == nil {
				t.Fatalf("%s: node %d has no agent", tc.name, n)
			}
		}
		if em.Now() != 2 || em.EventsFired() == 0 {
			t.Fatalf("%s: now=%v events=%d after Run(2)", tc.name, em.Now(), em.EventsFired())
		}
	}
	net, a, c, routes := figure1()
	em := NewEmulation(net, Config{Estimation: true}, 21)
	if em.NumDomains() != 1 {
		t.Fatalf("NumDomains = %d, want 1", em.NumDomains())
	}
	fl, err := em.AddFlow(FlowSpec{Src: a, Dst: c, Routes: routes, Kind: TrafficSaturated}, 0)
	if err != nil {
		t.Fatal(err)
	}
	em.Run(6)
	s := em.Agent(c).SinkFor(a, fl.ID)
	got := fmt.Sprintf("bytes=%d rates=%v", s.TotalBytes, fl.Rates())
	if runtime.GOARCH == "amd64" && got != figure1Pin {
		t.Fatalf("trajectory %q, pinned %q", got, figure1Pin)
	}
}

// TestShardedDispatch pins the dispatcher surface: domain lookups,
// capacity mutation routing (with the top-level mirror), and the merged
// agent view.
func TestShardedDispatch(t *testing.T) {
	net, cflows := clusterNet(3)
	em := NewEmulation(net, Config{Estimation: true}, 5)
	if em.NumDomains() != 3 {
		t.Fatalf("domains=%d, want 3", em.NumDomains())
	}
	// Node/link ownership is cluster-contiguous by construction.
	for i, cf := range cflows {
		if em.NodeDomain(cf.src) != i || em.NodeDomain(cf.dst) != i {
			t.Fatalf("cluster %d endpoints mapped to domains %d/%d", i, em.NodeDomain(cf.src), em.NodeDomain(cf.dst))
		}
		for _, l := range cf.routes[0] {
			if em.LinkDomain(l) != i {
				t.Fatalf("cluster %d link %d mapped to domain %d", i, l, em.LinkDomain(l))
			}
		}
	}
	// A capacity change lands in the owning domain's clone, mirrors into
	// the top-level network, and leaves other domains untouched.
	l := cflows[1].routes[0][0]
	em.SetLinkCapacity(l, 0)
	if em.Net.Link(l).Capacity != 0 {
		t.Fatal("top-level capacity not mirrored")
	}
	if em.Domain(1).Net.Link(l).Capacity != 0 {
		t.Fatal("owning domain's clone not mutated")
	}
	if em.Domain(0).Net.Link(l).Capacity == 0 {
		t.Fatal("foreign domain's clone mutated")
	}
	// The merged agent view serves every node, owned by its domain.
	for n := 0; n < net.NumNodes(); n++ {
		a := em.Agent(graph.NodeID(n))
		if a == nil {
			t.Fatalf("merged agent view has no agent for node %d", n)
		}
		if em.Domain(em.NodeDomain(graph.NodeID(n))).Agents[n] != a {
			t.Fatalf("node %d agent not owned by its domain", n)
		}
	}
}

// TestAllocsShardedRunSlot extends the zero-alloc steady-state guard to
// several domains: a warm multi-domain emulation runs a full report slot
// without a single heap allocation — each domain's pools are its own, and
// the loop over domains in Run is allocation-free.
func TestAllocsShardedRunSlot(t *testing.T) {
	net, cflows := clusterNet(2)
	em := NewEmulation(net, Config{Estimation: true}, 21)
	var flows []*Flow
	for _, cf := range cflows {
		fl, err := em.AddFlow(FlowSpec{Src: cf.src, Dst: cf.dst, Routes: cf.routes, Kind: TrafficSaturated}, 0)
		if err != nil {
			t.Fatal(err)
		}
		flows = append(flows, fl)
	}
	em.Run(5) // warm: pools, rings, report tables, reverse-path caches
	for _, fl := range flows {
		fl.Stop()
	}
	em.Run(5.05) // drain in-flight frames

	// Pin the cached reverse paths, as in TestAllocsEmulationReportSlot.
	pinReversePaths(em)

	slots := 0
	if avg := testing.AllocsPerRun(10, func() {
		slots++
		em.Run(5.05 + 0.1*float64(slots))
	}); avg != 0 {
		t.Errorf("sharded steady-state report slot allocates %v per 100 ms, want 0", avg)
	}
}

// twoClusters builds a two-domain emulation with one saturated flow per
// cluster — the setting in which operations that reached for a top-level
// engine used to panic.
func twoClusters(t *testing.T) (*Emulation, []clusterFlow) {
	t.Helper()
	net, cflows := clusterNet(2)
	em := NewEmulation(net, Config{Estimation: true}, 5)
	for _, cf := range cflows {
		if _, err := em.AddFlow(FlowSpec{Src: cf.src, Dst: cf.dst, Routes: cf.routes, Kind: TrafficSaturated}, 0); err != nil {
			t.Fatal(err)
		}
	}
	return em, cflows
}

// TestMultiDomainEstimatedNetwork: the assembled routing view takes every
// link's estimate from the domain that owns it.
func TestMultiDomainEstimatedNetwork(t *testing.T) {
	em, cflows := twoClusters(t)
	em.Run(5)
	// Warmed-up estimators sit near (never exactly on) the capacity, in
	// both clusters.
	est := em.EstimatedNetwork()
	for _, cf := range cflows {
		for _, l := range cf.routes[0] {
			got, c := est.Link(l).Capacity, em.Net.Link(l).Capacity
			if got != em.LinkEstimate(l) {
				t.Fatalf("link %d: view %v != owner's estimate %v", l, got, em.LinkEstimate(l))
			}
			if got == c || got < 0.8*c || got > 1.2*c {
				t.Fatalf("link %d: estimate %v, want a noisy reading of %v", l, got, c)
			}
		}
	}
	// A failed link reads zero once its owner's estimator times out.
	dead := cflows[1].routes[0][0]
	em.SetLinkCapacity(dead, 0)
	em.Run(8)
	if got := em.EstimatedNetwork().Link(dead).Capacity; got != 0 {
		t.Fatalf("failed link estimated at %v, want 0", got)
	}
}

// TestMultiDomainExternalSource: an external transmitter runs on the
// engine and MAC of its link's domain, and only there.
func TestMultiDomainExternalSource(t *testing.T) {
	em, cflows := twoClusters(t)
	ext := cflows[1].routes[1][0]
	src := em.AddExternalSource(ext, 2)
	em.Run(5)
	src.Stop()
	// 2 Mbps of 1500-byte frames for 5 s is ~830 frames.
	if got := em.Domain(1).MAC.Stats(ext).DeliveredPkts; got < 500 {
		t.Fatalf("external source delivered %d frames on its link, want ~830", got)
	}
	if got := em.Domain(0).MAC.Stats(ext).DeliveredPkts; got != 0 {
		t.Fatalf("foreign domain's MAC delivered %d frames for link %d", got, ext)
	}
}
