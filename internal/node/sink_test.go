package node

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"repro/internal/graph"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/wire"
)

// sinkRoute scripts one route of a sink test: the one-way delay of its
// packets, the send window [from, to) in which it carries traffic (to = 0:
// until the end), and a stall window whose packets arrive 1.5 s late —
// longer than routeStaleAfter, so the route goes stale meanwhile.
type sinkRoute struct {
	delay      float64
	from, to   float64
	stallStart float64
	stallEnd   float64
}

// sinkScript generates the arrivals of one flow: n packets sent every
// 0.5 ms on a random route active at send time, each dropped with
// probability drop, duplicated (on a random active route) with
// probability dup, and jittered by up to jitter seconds.
type sinkScript struct {
	name                string
	cfg                 Config
	seed                int64
	n                   int
	routes              []sinkRoute
	jitter, drop, dup   float64
	farAhead            bool // one packet 70 000 sequence numbers ahead
	wantGrow, wantLoss  bool
	wantHolds, wantDups bool
}

type sinkArrival struct {
	at, sentAt, qr float64
	route          uint8
	seq            uint32
	payloadLen     uint16
}

const sinkScriptGap = 0.0005

func (sc sinkScript) arrivals() (out []sinkArrival, end float64) {
	rng := rand.New(rand.NewSource(sc.seed))
	active := func(t float64) []int {
		var rs []int
		for i, r := range sc.routes {
			if t >= r.from && (r.to == 0 || t < r.to) {
				rs = append(rs, i)
			}
		}
		return rs
	}
	send := func(seq uint32, sentAt float64, r int) {
		rt := sc.routes[r]
		at := sentAt + rt.delay + sc.jitter*rng.Float64()
		if sentAt >= rt.stallStart && sentAt < rt.stallEnd {
			at += 1.5
		}
		out = append(out, sinkArrival{
			at: at, sentAt: sentAt, qr: rng.Float64(), route: uint8(r), seq: seq,
			payloadLen: uint16(200 + rng.Intn(1300)),
		})
	}
	for i := 0; i < sc.n; i++ {
		sentAt := float64(i) * sinkScriptGap
		rs := active(sentAt)
		if len(rs) == 0 || rng.Float64() < sc.drop {
			continue
		}
		send(uint32(i), sentAt, rs[rng.Intn(len(rs))])
		if rng.Float64() < sc.dup {
			send(uint32(i), sentAt, rs[rng.Intn(len(rs))])
		}
	}
	end = float64(sc.n) * sinkScriptGap
	if sc.farAhead {
		// Far ahead of a window the lagging routes still hold open, then
		// one more packet once every other route went stale, which lets
		// the loss rule skip the whole gap.
		send(uint32(sc.n)+70_000, end/2, 0)
		send(uint32(sc.n)+70_001, end+routeStaleAfter+0.5, 0)
		end += routeStaleAfter + 0.5
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out, out[len(out)-1].at + 0.5
}

type sinkDelivery struct {
	seq   uint32
	bytes int
	meta  interface{}
}

// TestSinkMatchesReference drives the ring-buffered Sink and the
// map-buffered refSink with identical frames on one engine — so they see
// the same clock, and delay-equalization holds fire at the same instants —
// and demands, at every 100 ms checkpoint and at the end, the same
// delivery sequence, loss count, byte and packet totals, acknowledgement
// entries, and rate series and mean rates to the bit at bins 0.2, 0.5
// and 1.0 (each read twice, so the second comes from the memo).
func TestSinkMatchesReference(t *testing.T) {
	two := []sinkRoute{{delay: 0.002}, {delay: 0.011}}
	scripts := []sinkScript{
		{name: "shuffled windows", seed: 1, n: 6000, jitter: 0.004, wantGrow: true,
			routes: []sinkRoute{{delay: 0.002}, {delay: 0.06}, {delay: 0.03}}},
		{name: "gaps", seed: 2, n: 6000, routes: two, jitter: 0.003, drop: 0.05, wantLoss: true},
		{name: "duplicates", seed: 3, n: 6000, routes: two, jitter: 0.006, dup: 0.1, drop: 0.01, wantDups: true},
		{name: "stale route", seed: 4, n: 8000, jitter: 0.002, drop: 0.01, wantLoss: true, wantGrow: true,
			routes: []sinkRoute{{delay: 0.003}, {delay: 0.008, stallStart: 1, stallEnd: 1.2}}},
		{name: "route growth", seed: 5, n: 8000, jitter: 0.003, drop: 0.02, wantLoss: true,
			routes: []sinkRoute{{delay: 0.002}, {delay: 0.006, to: 2.5}, {delay: 0.02, from: 1}, {delay: 0.004, from: 3}}},
		{name: "delay-equalized holds", seed: 6, n: 6000, jitter: 0.004, drop: 0.02,
			cfg: Config{DelayEqualize: true}, routes: two, wantHolds: true, wantLoss: true},
		{name: "far ahead", seed: 7, n: 4000, routes: two, jitter: 0.002, farAhead: true, wantGrow: true, wantLoss: true},
	}
	for _, sc := range scripts {
		t.Run(sc.name, func(t *testing.T) {
			net, u, v, _ := oneLink(10)
			em := NewEmulation(net, sc.cfg, 1)
			d := em.Domain(0)
			a := d.Agents[v]
			live, ref := newSink(a, u, 1), newRefSink(a, u, 1)
			var gotLive, gotRef []sinkDelivery
			live.OnDeliver = func(seq uint32, b int, meta interface{}) { gotLive = append(gotLive, sinkDelivery{seq, b, meta}) }
			ref.OnDeliver = func(seq uint32, b int, meta interface{}) { gotRef = append(gotRef, sinkDelivery{seq, b, meta}) }

			arrivals, end := sc.arrivals()
			frame := func(ar *sinkArrival) *dataPkt {
				p := d.pkts.get()
				p.frame.Src, p.frame.Dst, p.frame.FlowID = u, v, 1
				p.frame.RouteIdx = ar.route
				p.frame.SentAt = ar.sentAt
				p.frame.PayloadLen = ar.payloadLen
				p.frame.Header.Seq = ar.seq
				p.frame.Header.QR = ar.qr
				p.meta = [2]uint32{ar.seq, uint32(ar.route)}
				return p
			}
			seen := map[uint32]int{}
			for i := range arrivals {
				ar := &arrivals[i]
				seen[ar.seq]++
				d.Engine.At(ar.at, func() {
					live.onData(frame(ar))
					ref.onData(frame(ar))
				})
			}

			check := func(when string) {
				t.Helper()
				if !reflect.DeepEqual(gotLive, gotRef) {
					t.Fatalf("%s: deliveries differ: %d live vs %d reference", when, len(gotLive), len(gotRef))
				}
				if live.Lost != ref.Lost || live.TotalBytes != ref.TotalBytes ||
					live.TotalPackets != ref.TotalPackets || live.nextSeq != ref.nextSeq {
					t.Fatalf("%s: lost/bytes/packets/next %d/%d/%d/%d, reference %d/%d/%d/%d", when,
						live.Lost, live.TotalBytes, live.TotalPackets, live.nextSeq,
						ref.Lost, ref.TotalBytes, ref.TotalPackets, ref.nextSeq)
				}
				if la, ra := appendRouteAcks(nil, live.routes), appendRouteAcks(nil, ref.routes); !reflect.DeepEqual(la, ra) {
					t.Fatalf("%s: acks %+v, reference %+v", when, la, ra)
				}
				for _, bin := range []float64{0.2, 0.5, 1.0} {
					for pass := 0; pass < 2; pass++ {
						lt, lr := live.RateSeries(bin)
						rt, rr := ref.RateSeries(bin)
						if !sameBits(lt, rt) || !sameBits(lr, rr) {
							t.Fatalf("%s: RateSeries(%g) pass %d differs from the reference", when, bin, pass)
						}
					}
				}
				now := d.Engine.Now()
				for _, w := range [][2]float64{{0, now}, {0.3, 1.7}, {now - 1, now}, {1, 1}, {now / 2, now + 3}} {
					for pass := 0; pass < 2; pass++ {
						if l, r := live.MeanRate(w[0], w[1]), ref.MeanRate(w[0], w[1]); math.Float64bits(l) != math.Float64bits(r) {
							t.Fatalf("%s: MeanRate%v pass %d = %v, reference %v", when, w, pass, l, r)
						}
					}
				}
			}
			for tick := 0.1; tick < end; tick += 0.1 {
				em.Run(tick)
				check("t=" + strconv.FormatFloat(tick, 'f', 1, 64))
			}
			em.Run(end)
			check("end")

			if len(gotLive) == 0 {
				t.Fatal("nothing delivered")
			}
			if sc.wantGrow && len(live.ring) == sinkRingInit {
				t.Error("the reorder ring never grew")
			}
			if sc.farAhead && len(live.ring) < 70_000 {
				t.Errorf("ring holds %d slots, want ≥ 70 000 after the far-ahead packet", len(live.ring))
			}
			if sc.wantLoss && live.Lost == 0 {
				t.Error("the loss rule never skipped a gap")
			}
			if sc.wantHolds && len(d.holds) == 0 {
				t.Error("delay equalization held no packet")
			}
			if sc.wantDups {
				dups := 0
				for _, c := range seen {
					if c > 1 {
						dups++
					}
				}
				if dups == 0 {
					t.Error("no duplicate arrived")
				}
			}
			for i, e := range live.ring {
				if e.present {
					t.Fatalf("slot %d still occupied after the final flush", i)
				}
			}
		})
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestAgentLookupsMatchReference holds the agents' next-hop scan to the
// interface map it replaced on every 16-bit interface ID (on the
// testbed topology and on parallel links to one interface), the flow-ID
// sink table to the struct-keyed map through a scripted sequence of
// creations and lookups, and the flow-ID source table to the source map.
func TestAgentLookupsMatchReference(t *testing.T) {
	inst := topology.Testbed(stats.NewRand(20), topology.Config{})
	b := graph.NewBuilder(nil)
	x := b.AddNode("x", 0, 0, graph.TechPLC, graph.TechWiFi)
	y := b.AddNode("y", 1, 0, graph.TechPLC, graph.TechWiFi)
	b.AddLink(x, y, graph.TechPLC, 10)
	b.AddLink(x, y, graph.TechWiFi, 20)
	b.AddLink(x, y, graph.TechPLC, 30) // parallel to the first: last wins
	b.AddLink(y, x, graph.TechWiFi, 20)
	for _, net := range []*graph.Network{inst.Build(topology.ViewHybrid).Network, b.Build()} {
		em := NewEmulation(net, Config{}, 1)
		for _, ag := range em.Agents {
			want := refIfaceOut(ag.em, ag.id)
			if len(ag.ifaceOut) != len(want) {
				t.Fatalf("agent %d: %d next-hop entries, reference map has %d", ag.id, len(ag.ifaceOut), len(want))
			}
			for id := 0; id <= math.MaxUint16; id++ {
				got, ok := ag.nextHop(wire.InterfaceID(id))
				ref, refOK := want[wire.InterfaceID(id)]
				if ok != refOK || got != ref {
					t.Fatalf("agent %d, interface %d: next hop (%d, %v), reference (%d, %v)", ag.id, id, got, ok, ref, refOK)
				}
			}
		}
	}

	// Sinks: several sources into one destination, created out of flow-ID
	// order, with repeated lookups and peeks at absent flows.
	net := inst.Build(topology.ViewHybrid).Network
	live, refEm := NewEmulation(net, Config{}, 2), NewEmulation(net, Config{}, 2)
	const dst = 5
	la := live.Agents[dst]
	ref := &refSinkTable{a: refEm.Agents[dst], sinks: map[sinkKey]*Sink{}}
	script := []struct {
		src    graph.NodeID
		flowID uint16
		create bool
	}{
		{3, 4, false}, {3, 4, true}, {3, 4, true}, {7, 1, true}, {7, 2, false}, {0, 9, true},
		{7, 1, false}, {11, 3, true}, {3, 4, false}, {11, 3, true}, {0, 9, false}, {2, 40, false},
	}
	for i, op := range script {
		var got, want *Sink
		if op.create {
			got, want = la.SinkFor(op.src, op.flowID), ref.sinkFor(op.src, op.flowID)
		} else {
			got, want = la.PeekSink(op.src, op.flowID), ref.PeekSink(op.src, op.flowID)
		}
		if (got == nil) != (want == nil) || got != nil && (got.src != want.src || got.flowID != want.flowID) {
			t.Fatalf("op %d %+v: live %v, reference %v", i, op, got, want)
		}
		if lp, rp := live.Domain(0).Engine.Pending(), refEm.Domain(0).Engine.Pending(); lp != rp {
			t.Fatalf("op %d: %d pending events, reference %d (ack tick scheduling differs)", i, lp, rp)
		}
	}
	ls, rs := la.Sinks(), ref.Sinks()
	if len(ls) != len(rs) {
		t.Fatalf("%d sinks, reference %d", len(ls), len(rs))
	}
	for i := range ls {
		if ls[i].src != rs[i].src || ls[i].flowID != rs[i].flowID {
			t.Fatalf("Sinks()[%d] = (%d, %d), reference (%d, %d)", i, ls[i].src, ls[i].flowID, rs[i].src, rs[i].flowID)
		}
	}

	// Sources: flows registered out of ID order, then onAck's lookup at
	// every ID up to past the table, from the agent and from another node.
	const src = 3
	sa := live.Agents[src]
	refSrc := &refSourceTable{id: src, source: map[uint16]*Flow{}}
	for _, id := range []uint16{5, 2, 9} {
		f := &Flow{ID: id, Src: src}
		sa.addSource(f)
		refSrc.source[id] = f
	}
	for _, from := range []graph.NodeID{src, 4} {
		for id := uint16(0); id <= 12; id++ {
			if got, want := sa.sourceFlow(from, id), refSrc.lookup(from, id); got != want {
				t.Fatalf("ack (%d, %d): live flow %p, reference %p", from, id, got, want)
			}
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("registering flow ID 2 twice did not panic")
			}
		}()
		sa.addSource(&Flow{ID: 2, Src: src})
	}()

	// A flow ID names one source: a lookup of flow 4 from another source
	// misses instead of returning flow 4's sink, and creating it panics.
	if s := la.PeekSink(8, 4); s != nil {
		t.Errorf("PeekSink(8, 4) returned the sink of (%d, %d)", s.src, s.flowID)
	}
	defer func() {
		if recover() == nil {
			t.Error("SinkFor under a second source for one flow ID did not panic")
		}
	}()
	la.SinkFor(8, 4)
}
