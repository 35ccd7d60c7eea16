package mac

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/stats"
)

// macEvent is one Deliver or Drop callback as the upper layer sees it.
type macEvent struct {
	at     float64
	link   graph.LinkID
	drop   bool
	reason DropReason
	bits   float64
}

// scripted wraps one MAC implementation (live or reference) with its own
// engine, network clone and RNG stream, behind the calls the script
// needs.
type scripted struct {
	eng     sim.Engine
	net     *graph.Network
	rng     *rand.Rand
	send    func(graph.LinkID, float64, interface{}) bool
	changed func(graph.LinkID)
	setLoss func(graph.LinkID, float64)
	stats   func(graph.LinkID) LinkStats
	busy    func(graph.LinkID) bool
	check   func() error

	trace     []macEvent
	onDeliver func()
}

func (s *scripted) deliver(l graph.LinkID, pkt Packet) {
	s.trace = append(s.trace, macEvent{at: s.eng.Now(), link: l, bits: pkt.Bits})
	s.onDeliver()
}

func (s *scripted) drop(l graph.LinkID, pkt Packet, reason DropReason) {
	s.trace = append(s.trace, macEvent{at: s.eng.Now(), link: l, drop: true, reason: reason, bits: pkt.Bits})
}

func newScriptedLive(net *graph.Network, seed int64, opts Options) *scripted {
	s := &scripted{net: net.Clone()}
	m := New(&s.eng, s.net, rng(seed), opts)
	s.rng = m.Rand()
	m.Deliver, m.Drop = s.deliver, s.drop
	s.send, s.changed, s.setLoss = m.Send, m.LinkChanged, m.SetLossProb
	s.stats, s.busy, s.check = m.Stats, m.Busy, m.CheckConsistency
	return s
}

func newScriptedReference(net *graph.Network, seed int64, opts Options) *scripted {
	s := &scripted{net: net.Clone(), rng: rng(seed)}
	m := newReference(&s.eng, s.net, s.rng, opts)
	m.Deliver, m.Drop = s.deliver, s.drop
	s.send, s.changed = m.Send, m.LinkChanged
	s.setLoss = func(l graph.LinkID, p float64) { m.lossProb[l] = p }
	s.stats = func(l graph.LinkID) LinkStats { return m.stats[l] }
	s.busy = func(l graph.LinkID) bool { return m.transmitting[l] }
	s.check = func() error { return nil }
	return s
}

// coverage counts the situations the script is there to create.
type coverage struct {
	killsInFlight, revivals, silentChanges int
}

// runScript drives s for `duration` virtual seconds from a script RNG of
// its own: bursts of sends that overflow the short queues, deliveries
// that trigger further sends (a relay), links killed — idle and
// mid-flight — and revived through LinkChanged, capacities changed and
// zeroed behind the MAC's back, and loss probabilities moved. Every
// decision depends only on the script stream and on callback order, so
// two equivalent MACs see the same script.
func runScript(t *testing.T, s *scripted, scriptSeed int64, duration float64) coverage {
	t.Helper()
	var cov coverage
	sr := rng(scriptSeed)
	nl := s.net.NumLinks()
	orig := make([]float64, nl)
	for l := range orig {
		orig[l] = s.net.Link(graph.LinkID(l)).Capacity
	}
	pick := func() graph.LinkID { return graph.LinkID(sr.Intn(nl)) }
	frame := func() float64 { return 4000 * float64(1+sr.Intn(3)) }
	s.onDeliver = func() {
		if sr.Float64() < 0.3 {
			s.send(pick(), frame(), nil)
		}
	}
	ticks := 0
	s.eng.Every(0.002, func() {
		for k := sr.Intn(6); k > 0; k-- {
			l := pick()
			for b := 1 + sr.Intn(4); b > 0; b-- {
				s.send(l, frame(), nil)
			}
		}
		l := pick()
		switch r := sr.Float64(); {
		case r < 0.04:
			if s.busy(l) {
				cov.killsInFlight++
			}
			s.net.Link(l).Capacity = 0
			s.changed(l)
		case r < 0.10:
			if s.net.Link(l).Capacity == 0 {
				cov.revivals++
			}
			s.net.Link(l).Capacity = orig[l] * (0.5 + sr.Float64())
			s.changed(l)
		case r < 0.13:
			cov.silentChanges++
			s.net.Link(l).Capacity = orig[l] * (0.5 + sr.Float64())
		case r < 0.15:
			cov.silentChanges++
			s.net.Link(l).Capacity = 0
		case r < 0.18:
			s.setLoss(l, 0.5*sr.Float64())
		}
		if ticks++; ticks%16 == 0 {
			if err := s.check(); err != nil {
				t.Fatalf("t=%v: %v", s.eng.Now(), err)
			}
		}
	})
	s.eng.Run(duration)
	if err := s.check(); err != nil {
		t.Fatalf("end of run: %v", err)
	}
	return cov
}

// singleDomainNet: every same-technology pair interferes — two cells.
func singleDomainNet() *graph.Network {
	b := graph.NewBuilder(nil)
	var ids []graph.NodeID
	for i := 0; i < 8; i++ {
		ids = append(ids, b.AddNode(fmt.Sprint("n", i), float64(i), 0, graph.TechWiFi, graph.TechPLC))
	}
	for i, u := range ids {
		for j, v := range ids {
			if i < j {
				b.AddDuplex(u, v, graph.TechWiFi, 20+float64(i+j))
				if j < 5 {
					b.AddDuplex(u, v, graph.TechPLC, 10+float64(j))
				}
			}
		}
	}
	return b.Build()
}

// rangeNet: carrier sensing with a radius well below the field size, so
// most interference rows are distinct (cells ≈ links), plus one PLC
// single-domain island (one more cell with many members).
func rangeNet() *graph.Network {
	pos := rng(11)
	b := graph.NewBuilder(graph.RangeBased{SenseRadius: map[graph.Tech]float64{graph.TechWiFi: 12}})
	const nodes = 16
	var ids [nodes]graph.NodeID
	var xs, ys [nodes]float64
	for i := range ids {
		xs[i], ys[i] = 100*pos.Float64(), 100*pos.Float64()
		ids[i] = b.AddNode(fmt.Sprint("n", i), xs[i], ys[i], graph.TechWiFi, graph.TechPLC)
	}
	for i := range ids {
		for j := i + 1; j < nodes; j++ {
			if math.Hypot(xs[i]-xs[j], ys[i]-ys[j]) <= 40 {
				b.AddDuplex(ids[i], ids[j], graph.TechWiFi, 15+float64(i))
			}
		}
	}
	for i := 0; i < 4; i++ {
		b.AddDuplex(ids[i], ids[i+1], graph.TechPLC, 12)
	}
	return b.Build()
}

// disjointNet: three far-apart clusters, each its own interference
// domain, with a second technology in one of them.
func disjointNet() *graph.Network {
	b := graph.NewBuilder(graph.RangeBased{SenseRadius: map[graph.Tech]float64{graph.TechWiFi: 50, graph.TechPLC: 50}})
	for c := 0; c < 3; c++ {
		var ids []graph.NodeID
		for i := 0; i < 4; i++ {
			ids = append(ids, b.AddNode(fmt.Sprint("c", c, "n", i), 1000*float64(c)+float64(i), 0, graph.TechWiFi, graph.TechPLC))
		}
		for i, u := range ids {
			for j, v := range ids {
				if i < j {
					b.AddDuplex(u, v, graph.TechWiFi, 25)
					if c == 1 {
						b.AddDuplex(u, v, graph.TechPLC, 9)
					}
				}
			}
		}
	}
	return b.Build()
}

var equivalenceNets = []struct {
	name string
	net  func() *graph.Network
}{
	{"single-domain-per-tech", singleDomainNet},
	{"range-based", rangeNet},
	{"disjoint-domains", disjointNet},
}

// TestMatchesReferenceMAC is the exact-equivalence property of the
// contender-flag / cell-count / fused shuffle-and-pick kernels: driven by
// the same seeds and the same script, the live MAC and the retained
// reference produce the same (time, link, deliver | drop reason, bits)
// callback sequence, the same per-link statistics, and leave their RNG
// streams at the same point (the live one read through MAC.Rand, the
// continuation of the stream New was handed). The live MAC's consistency
// check stays silent throughout.
func TestMatchesReferenceMAC(t *testing.T) {
	for _, tc := range equivalenceNets {
		for _, seed := range []int64{1, 2, 3} {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				net := tc.net()
				loss := make([]float64, net.NumLinks())
				lr := rng(seed + 100)
				for l := range loss {
					if lr.Float64() < 0.25 {
						loss[l] = 0.3 * lr.Float64()
					}
				}
				opts := Options{QueueLimit: 6, LossProb: loss}
				live := newScriptedLive(net, seed, opts)
				ref := newScriptedReference(net, seed, opts)
				cov := runScript(t, live, seed+1000, 8)
				runScript(t, ref, seed+1000, 8)

				if len(live.trace) != len(ref.trace) {
					t.Fatalf("live MAC made %d callbacks, reference %d", len(live.trace), len(ref.trace))
				}
				for i := range live.trace {
					if live.trace[i] != ref.trace[i] {
						t.Fatalf("callback %d diverged: live %+v, reference %+v", i, live.trace[i], ref.trace[i])
					}
				}
				var total LinkStats
				for l := 0; l < net.NumLinks(); l++ {
					id := graph.LinkID(l)
					ls := live.stats(id)
					if ls != ref.stats(id) {
						t.Fatalf("link %d stats diverged: live %+v, reference %+v", l, ls, ref.stats(id))
					}
					total.DeliveredPkts += ls.DeliveredPkts
					for r := range ls.Dropped {
						total.Dropped[r] += ls.Dropped[r]
					}
				}
				if a, b := live.rng.Int63(), ref.rng.Int63(); a != b {
					t.Fatalf("RNG streams ended at different points: next draw %d vs %d", a, b)
				}

				// The script must actually have gone where the kernels differ.
				if total.DeliveredPkts < 2000 {
					t.Errorf("only %d frames delivered", total.DeliveredPkts)
				}
				for r, n := range total.Dropped {
					if n == 0 {
						t.Errorf("no %v drop in the whole run", DropReason(r))
					}
				}
				if cov.killsInFlight == 0 || cov.revivals == 0 || cov.silentChanges == 0 {
					t.Errorf("script coverage too thin: %+v", cov)
				}
			})
		}
	}
}

// TestInterferenceCells checks the cell construction against its
// definition: two links share a cell exactly when their interference
// rows are identical, and rowCells lists each cell of the row once.
func TestInterferenceCells(t *testing.T) {
	wantCells := map[string]int{"single-domain-per-tech": 2, "disjoint-domains": 4}
	for _, tc := range equivalenceNets {
		net := tc.net()
		cellOf, rowCells := interferenceCells(net)
		if want, ok := wantCells[tc.name]; ok && len(rowCells) != want {
			t.Errorf("%s: %d cells, want %d", tc.name, len(rowCells), want)
		}
		if tc.name == "range-based" && len(rowCells) < net.NumLinks()/3 {
			t.Errorf("range-based: only %d cells over %d links — not the many-distinct-rows case", len(rowCells), net.NumLinks())
		}
		for a := 0; a < net.NumLinks(); a++ {
			rowA := net.Interference(graph.LinkID(a))
			for b := 0; b < net.NumLinks(); b++ {
				same := slices.Equal(rowA, net.Interference(graph.LinkID(b)))
				if same != (cellOf[a] == cellOf[b]) {
					t.Fatalf("%s: links %d and %d: identical rows %v, cells %d and %d", tc.name, a, b, same, cellOf[a], cellOf[b])
				}
			}
			var want []int32
			for _, i := range rowA {
				if !slices.Contains(want, cellOf[i]) {
					want = append(want, cellOf[i])
				}
			}
			if got := rowCells[cellOf[a]]; !slices.Equal(got, want) {
				t.Fatalf("%s: link %d: rowCells %v, want %v", tc.name, a, got, want)
			}
		}
	}
}

// scriptedSource replays a real source, except that the draws whose
// index is listed in zeroAt return 0 — which the Lemire draw rejects for
// every bound that is not a power of two.
type scriptedSource struct {
	src    rand.Source64
	zeroAt map[int]bool
	calls  int
}

func (s *scriptedSource) Uint64() uint64 {
	v := s.src.Uint64()
	if s.zeroAt[s.calls] {
		v = 0
	}
	s.calls++
	return v
}

func (s *scriptedSource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

func (s *scriptedSource) Seed(seed int64) { s.src.Seed(seed) }

func mathRandSource(seed int64) rand.Source64 { return rand.NewSource(seed).(rand.Source64) }

// shuffleInput is a row of n links with ids 3i+1.
func shuffleInput(n int) []graph.LinkID {
	order := make([]graph.LinkID, n)
	for i := range order {
		order[i] = graph.LinkID(3*i + 1)
	}
	return order
}

// contenders is a contender table covering shuffleInput(n)'s ids, with
// the given ones flagged.
func contenders(n int, ids ...graph.LinkID) []bool {
	flags := make([]bool, 3*n+1)
	for _, id := range ids {
		flags[id] = true
	}
	return flags
}

// kernelPicks runs the live kernel over row with the given flags and
// stream, and returns its picks first to last, as complete offers them.
func kernelPicks(src *stats.Source, row []graph.LinkID, contender []bool) []graph.LinkID {
	m := &MAC{src: src, contender: contender}
	picks := slices.Clone(m.shuffledContenders(row))
	slices.Reverse(picks)
	return picks
}

// TestShuffleLinksMatchesRandShuffle pins the oracle's draw sequence to
// math/rand's: for every length the MAC can meet, shuffleLinks yields
// the permutation rng.Shuffle yields and consumes the same number of
// values.
func TestShuffleLinksMatchesRandShuffle(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 99, 1 << 40} {
		a, b := rng(seed), rng(seed) // streams run on across the lengths
		for n := 0; n <= 512; n++ {
			got, want := shuffleInput(n), shuffleInput(n)
			shuffleLinks(a, got)
			b.Shuffle(n, func(i, j int) { want[i], want[j] = want[j], want[i] })
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d n %d: permutation differs from rand.Shuffle", seed, n)
			}
			if x, y := a.Int63(), b.Int63(); x != y {
				t.Fatalf("seed %d n %d: streams diverged after the shuffle", seed, n)
			}
		}
	}
}

// TestShuffledContendersMatchesReference: for every row length the MAC
// can meet and for no, one, all and a random third of the links
// contending, the fused kernel offers the medium to the links the
// shuffle-then-scan oracle offered it to, in the same order, and leaves
// the stream where the oracle left math/rand's.
func TestShuffledContendersMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 99, 1 << 40} {
		twin, ref := stats.Continue(mathRandSource(seed)), rand.New(mathRandSource(seed))
		pick := rng(seed + 7)
		for n := 0; n <= 512; n++ {
			row := shuffleInput(n)
			var ids []graph.LinkID
			switch n % 4 {
			case 1:
				ids = row[pick.Intn(n):][:1]
			case 2:
				ids = row
			case 3:
				for _, id := range row {
					if pick.Intn(3) == 0 {
						ids = append(ids, id)
					}
				}
			}
			flags := contenders(n, ids...)
			got, want := kernelPicks(twin, row, flags), referencePicks(ref, row, flags)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d n %d (%d contending): kernel offers %v, oracle %v", seed, n, len(ids), got, want)
			}
			if x, y := twin.Uint64(), ref.Uint64(); x != y {
				t.Fatalf("seed %d n %d: streams diverged after the shuffle", seed, n)
			}
		}
	}
}

// TestShuffleLinksRejectionLoop forces the `low < thresh` rejection
// at chosen steps of the kernel. By chance it fires a handful of times
// per million draws — too rarely for the trajectory tests to notice a
// slip there. The twin continues a scripted source, so its first 607
// outputs are the scripted values, zeros included; every case draws
// fewer than that. With every link contending, the picks are the whole
// permutation.
func TestShuffleLinksRejectionLoop(t *testing.T) {
	for _, tc := range []struct {
		n      int
		zeroAt []int
		extra  int // redraws the zeros must cause
	}{
		{n: 3, zeroAt: []int{0}, extra: 1},           // first draw (bound 3) rejected once
		{n: 7, zeroAt: []int{0, 1, 2}, extra: 3},     // rejected three times in a row
		{n: 174, zeroAt: []int{0, 50, 51}, extra: 3}, // testbed row length
		{n: 174, zeroAt: []int{172, 173}, extra: 0},  // draw 172 has bound 2: zero is accepted, 173 never drawn
		{n: 512, zeroAt: []int{5, 100, 101, 102, 400, 510}, extra: 6},
		{n: 65, zeroAt: []int{0}, extra: 1}, // bound 65; the next, 64, is a power of two
		{n: 64, zeroAt: []int{0}, extra: 0}, // bound 64: zero is accepted
	} {
		zero := map[int]bool{}
		for _, i := range tc.zeroAt {
			zero[i] = true
		}
		twin := stats.Continue(&scriptedSource{src: mathRandSource(5), zeroAt: zero})
		srcB := &scriptedSource{src: mathRandSource(5), zeroAt: zero}
		row := shuffleInput(tc.n)
		got := kernelPicks(twin, row, contenders(tc.n, row...))
		want := shuffleInput(tc.n)
		rand.New(srcB).Shuffle(tc.n, func(i, j int) { want[i], want[j] = want[j], want[i] })
		if !slices.Equal(got, want) {
			t.Errorf("n %d zeroAt %v: permutation differs from rand.Shuffle", tc.n, tc.zeroAt)
		}
		if want := tc.n - 1 + tc.extra; srcB.calls != want {
			t.Errorf("n %d zeroAt %v: rand.Shuffle consumed %d draws, the case was built for %d — the rejection loop did not run as scripted",
				tc.n, tc.zeroAt, srcB.calls, want)
		}
		if next, want := twin.Uint64(), srcB.Uint64(); next != want {
			t.Errorf("n %d zeroAt %v: the kernel consumed a different number of draws than rand.Shuffle", tc.n, tc.zeroAt)
		}
	}
}

// TestEarlyStartBlocksLaterContender: three same-medium links form one
// cell. While the first is on the air the other two queue behind it; at
// its completion both contend, the one the shuffle places first starts
// and its cellBusy count turns the other away — which stays a flagged
// contender. Which one wins is read off the oracle from the stream as it
// stood at the hand-off, and over the seeds both must win sometimes.
func TestEarlyStartBlocksLaterContender(t *testing.T) {
	b := graph.NewBuilder(nil)
	var links [3]graph.LinkID
	for i := range links {
		u := b.AddNode(fmt.Sprint("s", i), float64(i), 0, graph.TechWiFi)
		v := b.AddNode(fmt.Sprint("r", i), float64(i), 1, graph.TechWiFi)
		links[i] = b.AddLink(u, v, graph.TechWiFi, 10)
	}
	net := b.Build()
	first, a, c := links[0], links[1], links[2]
	wins := map[graph.LinkID]int{}
	for seed := int64(1); seed <= 40; seed++ {
		var e sim.Engine
		m := New(&e, net, rng(seed), Options{})
		var atHandOff stats.Source
		var flags []bool
		m.Deliver = func(graph.LinkID, Packet) { atHandOff, flags = *m.src, slices.Clone(m.contender) }
		m.Send(first, 12000, nil) // 1.2 ms on the air
		m.Send(a, 12000, nil)
		m.Send(c, 12000, nil)
		if !m.Busy(first) || !m.contender[a] || !m.contender[c] {
			t.Fatal("setup: the first link must be on the air with the other two contending")
		}
		e.Run(0.0018) // past the first completion, before the next
		if flags == nil {
			t.Fatal("the first frame was not delivered")
		}
		oracle := rand.New(&atHandOff)
		order := referencePicks(oracle, net.Interference(first), flags)
		if !slices.Equal(order, []graph.LinkID{a, c}) && !slices.Equal(order, []graph.LinkID{c, a}) {
			t.Fatalf("seed %d: the oracle offers %v, want both contenders", seed, order)
		}
		winner, blocked := order[0], order[1]
		if !m.Busy(winner) || m.Busy(blocked) || !m.contender[blocked] || m.contender[winner] {
			t.Fatalf("seed %d: %d should have started and blocked %d: busy %v/%v, contender %v/%v",
				seed, winner, blocked, m.Busy(winner), m.Busy(blocked), m.contender[winner], m.contender[blocked])
		}
		if err := m.CheckConsistency(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if x, y := m.src.Uint64(), oracle.Uint64(); x != y {
			t.Fatalf("seed %d: streams diverged at the hand-off", seed)
		}
		wins[winner]++
	}
	if wins[a] == 0 || wins[c] == 0 {
		t.Errorf("one contender always won (%v): the test never saw an early start block the other order", wins)
	}
}
