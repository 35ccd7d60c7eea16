package linkest

import (
	"math"
	"math/rand"
	"testing"
)

func TestEstimatorConvergesInTrafficMode(t *testing.T) {
	e := New()
	e.SetMode(ModeTraffic)
	rng := rand.New(rand.NewSource(1))
	// High-rate samples every 1 ms of a 50 Mbps link.
	now := 0.0
	for i := 0; i < 2000; i++ {
		now += 0.001
		e.Observe(e.Sample(50, rng), now)
	}
	if got := e.Estimate(); math.Abs(got-50) > 1 {
		t.Errorf("traffic estimate = %v, want ~50", got)
	}
}

func TestTrafficModeReactsWithin100ms(t *testing.T) {
	e := New()
	e.SetMode(ModeTraffic)
	rng := rand.New(rand.NewSource(2))
	now := 0.0
	for i := 0; i < 1000; i++ {
		now += 0.001
		e.Observe(e.Sample(80, rng), now)
	}
	// Capacity collapses to 20; within ~300 ms the estimate must be close.
	for i := 0; i < 300; i++ {
		now += 0.001
		e.Observe(e.Sample(20, rng), now)
	}
	if got := e.Estimate(); math.Abs(got-20) > 5 {
		t.Errorf("estimate after capacity drop = %v, want ~20", got)
	}
}

func TestProbeModeSlowerButConverges(t *testing.T) {
	e := New()
	e.SetMode(ModeProbe)
	rng := rand.New(rand.NewSource(3))
	now := 0.0
	// Probes every 250 ms for 20 s.
	for i := 0; i < 80; i++ {
		now += ProbeInterval
		e.Observe(e.Sample(40, rng), now)
	}
	if got := e.Estimate(); math.Abs(got-40) > 4 {
		t.Errorf("probe estimate = %v, want ~40 ± noise", got)
	}
}

func TestProbeModeNoisierThanTraffic(t *testing.T) {
	// Empirical spread of samples should be wider in probe mode.
	rng := rand.New(rand.NewSource(4))
	probe := New()
	probe.SetMode(ModeProbe)
	traffic := New()
	traffic.SetMode(ModeTraffic)
	var probeVar, trafficVar float64
	n := 3000
	for i := 0; i < n; i++ {
		p := probe.Sample(100, rng) - 100
		q := traffic.Sample(100, rng) - 100
		probeVar += p * p
		trafficVar += q * q
	}
	if probeVar <= trafficVar*4 {
		t.Errorf("probe variance %v should dwarf traffic variance %v", probeVar/float64(n), trafficVar/float64(n))
	}
}

func TestFirstSampleInitializes(t *testing.T) {
	e := New()
	if e.Estimate() != 0 {
		t.Error("estimate before samples should be 0")
	}
	e.Observe(33, 1)
	if e.Estimate() != 33 {
		t.Errorf("estimate = %v, want 33 (first sample)", e.Estimate())
	}
}

func TestFailureDetection(t *testing.T) {
	e := New()
	e.Observe(50, 1)
	if e.Failed(1.5) {
		t.Error("failed too early")
	}
	if !e.Failed(2.5) {
		t.Error("failure not detected after timeout")
	}
	// No samples ever: not failed (nothing to fail).
	f := New()
	if f.Failed(100) {
		t.Error("virgin estimator cannot fail")
	}
}

func TestReset(t *testing.T) {
	e := New()
	e.Observe(50, 1)
	e.Reset()
	if e.Estimate() != 0 {
		t.Error("reset did not clear estimate")
	}
	if e.Failed(100) {
		t.Error("reset estimator cannot be failed")
	}
}

func TestNegativeSampleClamped(t *testing.T) {
	e := New()
	e.Observe(-5, 1)
	if e.Estimate() != 0 {
		t.Errorf("negative sample should clamp to 0, got %v", e.Estimate())
	}
}

func TestModeSwitching(t *testing.T) {
	e := New()
	if e.Mode() != ModeProbe {
		t.Error("default mode should be probe")
	}
	e.SetMode(ModeTraffic)
	if e.Mode() != ModeTraffic {
		t.Error("mode switch failed")
	}
}
