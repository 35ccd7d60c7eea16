package node

import (
	"testing"
)

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

	// Pin every sink's cached reverse path so the once-per-second
	// routing.SinglePath refresh (which legitimately allocates) stays
	// outside the measured slots.
	for _, ag := range em.Agents {
		for _, s := range ag.sinks {
			if s.reverse != nil {
				s.reverseAt = 1e18
			}
		}
	}

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

	for _, ag := range em.Agents {
		for _, s := range ag.sinks {
			if s.reverse != nil {
				s.reverseAt = 1e18
			}
		}
	}
	if em.DomainRecorder(0) == nil {
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
	if em.DomainRecorder(0).Total() == 0 {
		t.Error("recorder saw no events during the measured slots")
	}
}
