package linkest

// Observe before the gain memo, kept verbatim (renamed) as an executable
// specification: TestObserveGainMemo drives it and the live Observe on twin
// estimators and demands the same estimate bits after every step. Same
// pattern as the reference_test.go oracles in mac, node, routing,
// congestion and optimal.

import (
	"math"
	"math/rand"
	"testing"
)

// refObserve is Observe computing exp(−dt/window) on every call.
func refObserve(e *Estimator, sample, now float64) {
	if sample < 0 {
		sample = 0
	}
	if !e.haveSample {
		e.estimate = sample
		e.haveSample = true
		e.lastSample = now
		return
	}
	dt := now - e.lastSample
	if dt <= 0 {
		dt = 1e-6
	}
	window := trafficWindow
	if e.mode == ModeProbe {
		window = probeWindow
	}
	a := 1 - math.Exp(-dt/window)
	e.estimate += a * (sample - e.estimate)
	e.lastSample = now
}

// TestObserveGainMemo holds the memoised gain to the per-call exp through
// a scripted sequence — a repeated dt, a mode switch that changes the
// window at the same dt, the dt ≤ 0 clamp (a repeated and a backwards
// timestamp), Reset between samples — and then a long random walk over
// the same moves, and requires the script to hit the memo and to miss it
// where the window changes.
func TestObserveGainMemo(t *testing.T) {
	const tick = 1.0 / 1024 // exact, so consecutive differences repeat bit for bit
	type step struct {
		mode   Mode
		reset  bool
		sample float64
		now    float64
		hit    int // 1: must reuse the memo, -1: must recompute, 0: either
	}
	script := []step{
		{mode: ModeProbe, sample: 50, now: 1},                     // first sample: no gain
		{mode: ModeProbe, sample: 52, now: 1 + tick, hit: -1},     // first gain
		{mode: ModeProbe, sample: 47, now: 1 + 2*tick, hit: 1},    // repeated dt
		{mode: ModeProbe, sample: 49, now: 1 + 3*tick, hit: 1},    // again
		{mode: ModeTraffic, sample: 30, now: 1 + 4*tick, hit: -1}, // same dt, traffic window
		{mode: ModeTraffic, sample: 31, now: 1 + 5*tick, hit: 1},  // traffic, repeated
		{mode: ModeProbe, sample: 33, now: 1 + 6*tick, hit: -1},   // back to the probe window
		{mode: ModeProbe, sample: 34, now: 1 + 6*tick, hit: -1},   // dt = 0 → 1e-6
		{mode: ModeProbe, sample: 35, now: 1 + 6*tick, hit: 1},    // clamped again
		{mode: ModeProbe, sample: 36, now: 1 + 5*tick, hit: 1},    // backwards: clamped
		{mode: ModeProbe, reset: true, sample: 20, now: 2},        // reset: first sample again
		{mode: ModeProbe, sample: 21, now: 2 + 1e-6, hit: 0},      // 2+1e-6−2 need not be 1e-6
		{mode: ModeProbe, reset: true, sample: -3, now: 3},        // clamped sample after reset
		{mode: ModeProbe, sample: 22, now: 3 + tick, hit: -1},     // memo held the previous dt
		{mode: ModeProbe, reset: true, sample: 25, now: 4},        // reset again
		{mode: ModeProbe, sample: 26, now: 4 + tick, hit: 1},      // memo survives Reset
		{mode: ModeTraffic, sample: 27, now: 4 + 2*tick, hit: -1}, // window changes at the same dt
	}
	rng := rand.New(rand.NewSource(7))
	now := 5.0
	for i := 0; i < 4000; i++ {
		s := step{mode: Mode(rng.Intn(2)), reset: rng.Intn(50) == 0, sample: 100 * rng.Float64()}
		switch rng.Intn(5) {
		case 0:
			now += tick
		case 1:
			now += 2 * tick
		case 2: // same timestamp: the clamp
		case 3:
			now -= tick
		default:
			now += rng.Float64()
		}
		s.now = now
		script = append(script, s)
	}

	live, ref := New(), New()
	hits := 0
	for i, s := range script {
		live.SetMode(s.mode)
		ref.SetMode(s.mode)
		if s.reset {
			live.Reset()
			ref.Reset()
		}
		before := [2]float64{live.gainDt, live.gainWindow}
		live.Observe(s.sample, s.now)
		refObserve(ref, s.sample, s.now)
		hit := live.haveSample && before == [2]float64{live.gainDt, live.gainWindow} && !s.reset && i > 0
		if hit {
			hits++
		}
		if s.hit == 1 && !hit || s.hit == -1 && hit {
			t.Errorf("step %d %+v: memo hit %v", i, s, hit)
		}
		if g, w := live.Estimate(), ref.Estimate(); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("step %d %+v: estimate %v (%#x), reference %v (%#x)",
				i, s, g, math.Float64bits(g), w, math.Float64bits(w))
		}
		if live.lastSample != ref.lastSample || live.haveSample != ref.haveSample {
			t.Fatalf("step %d: sample clock (%v, %v), reference (%v, %v)",
				i, live.lastSample, live.haveSample, ref.lastSample, ref.haveSample)
		}
	}
	if hits < len(script)/10 {
		t.Errorf("%d memo hits over %d steps: the script does not exercise the memo", hits, len(script))
	}
}
