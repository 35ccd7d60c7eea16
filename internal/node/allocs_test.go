package node

import (
	"testing"
)

// pinReversePaths pins every sink's cached ack return path so the
// once-per-second routing.SinglePath refresh (which legitimately
// allocates) stays outside measured slots.
func pinReversePaths(em *Emulation) {
	for _, ag := range em.Agents {
		for _, s := range ag.Sinks() {
			if s.reverse != nil {
				s.reverseAt = 1e18
			}
		}
	}
}

// TestAllocsEmulationReportSlot guards the emulation's control-plane
// fast path: once warm, a full 100 ms report slot — per-agent price
// ticks with γ updates and broadcasts, probe-mode estimation, sink
// acknowledgement generation and the ack's hop-by-hop trip back through
// the MAC — performs zero heap allocations. CI runs the Allocs guards as
// a regression gate (`go test -run Allocs ./...`).
//
// Traffic is stopped before measuring: the data plane's only remaining
// allocation is the seriesLog's one chunk per 4096 logged packets, which
// would show up here as noise while being exactly the amortized cost the
// chunk design intends.
func TestAllocsEmulationReportSlot(t *testing.T) {
	net, a, c, routes := figure1()
	em := NewEmulation(net, Config{Estimation: true}, 21)
	fl, err := em.AddFlow(FlowSpec{Src: a, Dst: c, Routes: routes, Kind: TrafficSaturated}, 0)
	if err != nil {
		t.Fatal(err)
	}
	em.Run(5) // warm: pools, rings, report tables, reverse-path caches
	fl.Stop()
	em.Run(5.05) // drain in-flight frames

	pinReversePaths(em)

	now := em.Now()
	slots := 0
	if avg := testing.AllocsPerRun(10, func() {
		slots++
		em.Run(now + 0.1*float64(slots))
	}); avg != 0 {
		t.Errorf("steady-state report slot allocates %v per 100 ms, want 0", avg)
	}
}

// TestAllocsEmulationInstrumented is the same guard with the full
// observability layer attached: a 256-record flight recorder per domain
// hooked into the engine's timer dispatch and the MAC's tx/deliver/drop
// paths. Recording is one ring-slot write per event — the instrumented
// steady state must stay at zero heap allocations too, which is the
// issue's "zero-overhead" claim made executable.
func TestAllocsEmulationInstrumented(t *testing.T) {
	net, a, c, routes := figure1()
	em := NewEmulation(net, Config{Estimation: true, Recorder: 256}, 21)
	fl, err := em.AddFlow(FlowSpec{Src: a, Dst: c, Routes: routes, Kind: TrafficSaturated}, 0)
	if err != nil {
		t.Fatal(err)
	}
	em.Run(5) // warm: pools, rings, report tables, reverse-path caches
	fl.Stop()
	em.Run(5.05) // drain in-flight frames

	pinReversePaths(em)
	if em.Domain(0).Engine.Recorder() == nil {
		t.Fatal("recorder not attached")
	}

	now := em.Now()
	slots := 0
	if avg := testing.AllocsPerRun(10, func() {
		slots++
		em.Run(now + 0.1*float64(slots))
	}); avg != 0 {
		t.Errorf("instrumented steady-state report slot allocates %v per 100 ms, want 0", avg)
	}
	if len(em.Domain(0).Engine.Recorder().Tail(1)) == 0 {
		t.Error("recorder saw no events during the measured slots")
	}
}

// TestAllocsEmulationDataPlane guards the per-frame path that the guards
// above stop before measuring: a saturated flow over the two Figure 1
// routes keeps running through the measured second, so every frame
// crosses the relay's next-hop scan, the destination's flow-ID sink
// lookup and the reorder ring (the routes' delays differ, so frames
// arrive out of order), and with equalization on also the pooled holds.
// The only allocations allowed are the rate logs' chunks — one per 4096
// points a log appends, so at most ⌈points/4096⌉ per log — and the bound
// is the exact number of chunks the logs added. The warm-up runs long
// enough for the reorder ring to reach its steady size (growth is
// amortized like the chunks, but it is not what this guard measures).
func TestAllocsEmulationDataPlane(t *testing.T) {
	for _, eq := range []bool{false, true} {
		net, a, c, routes := figure1()
		em := NewEmulation(net, Config{Estimation: true, DelayEqualize: eq}, 21)
		fl, err := em.AddFlow(FlowSpec{Src: a, Dst: c, Routes: routes, Kind: TrafficSaturated}, 0)
		if err != nil {
			t.Fatal(err)
		}
		em.Run(20) // warm: pools, rings, report tables, reverse-path caches
		pinReversePaths(em)
		sink := em.Agent(c).PeekSink(a, fl.ID)
		logs := append([]*seriesLog{sink.log}, fl.routeLogs...)
		chunks0, chunks := make([]int, len(logs)), make([]int, len(logs))
		var delivered0, lost0 int
		now, step := em.Now(), 0
		avg := testing.AllocsPerRun(1, func() {
			for i, l := range logs {
				chunks0[i] = len(l.chunks)
			}
			delivered0, lost0 = sink.TotalPackets, sink.Lost
			step++
			em.Run(now + float64(step))
			for i, l := range logs {
				chunks[i] = len(l.chunks)
			}
		})
		allowed := 0
		for i := range logs {
			allowed += chunks[i] - chunks0[i]
		}
		if sink.TotalPackets-delivered0 < 500 {
			t.Fatalf("equalize=%v: %d packets delivered in the measured second, want a saturated flow", eq, sink.TotalPackets-delivered0)
		}
		if int(avg) > allowed {
			t.Errorf("equalize=%v: the data plane allocates %v per emulated second (%d delivered, %d lost), want ≤ %d (the rate-log chunks added)",
				eq, avg, sink.TotalPackets-delivered0, sink.Lost-lost0, allowed)
		}
		if !eq && !reorders(em, sink) {
			t.Error("no frame ever waited in the reorder ring: the guard does not cover reordering")
		}
	}
}

// reorders samples the sink's ring every millisecond for half an emulated
// second and reports whether a frame ever waited in it.
func reorders(em *Emulation, s *Sink) bool {
	for t0 := em.Now(); em.Now() < t0+0.5; {
		em.Run(em.Now() + 0.001)
		for _, e := range s.ring {
			if e.present {
				return true
			}
		}
	}
	return false
}
