// Package linkest models the link-capacity estimation of §6.1. On the real
// testbed, capacities are read from modulation information in frame
// headers — the MCS index for 802.11n and the bit-loading estimate (BLE)
// for HomePlug AV PLC. Two regimes exist:
//
//   - probe mode: when a link carries no flow, ~1 kB/s probes give a
//     precise-but-not-perfect estimate that reacts to capacity changes in
//     a few seconds;
//   - traffic mode: when a flow is active, per-frame readings at high rate
//     make the estimate extremely precise and reactive within ~100 ms —
//     the precision the congestion controller needs, since an
//     overestimated capacity yields congestion.
//
// The estimator consumes per-sample noisy capacity readings and maintains
// an EWMA whose gain depends on the sampling rate, reproducing both
// regimes with one mechanism. It also detects link failures when samples
// stop arriving.
package linkest

import (
	"math"
	"math/rand"
)

// Mode identifies the estimation regime.
type Mode int

// Modes.
const (
	// ModeProbe: low-rate probing, no active flow.
	ModeProbe Mode = iota
	// ModeTraffic: high-rate data-driven estimation.
	ModeTraffic
)

// ProbeInterval is the probing period in seconds when no traffic flows
// (≈ 1 kB/s of 256 B probes).
const ProbeInterval = 0.25

// The sampling constants: the EWMA time constant of each mode in seconds
// (the paper's "order of hundred of milliseconds" in traffic mode, "a few
// seconds" in probe mode), the relative standard deviation of a sample in
// each mode, and the silence after which a link is declared failed.
const (
	trafficWindow  float64 = 0.1
	probeWindow    float64 = 2.0
	probeNoise     float64 = 0.08
	trafficNoise   float64 = 0.01
	failureTimeout float64 = 1.0
)

// Estimator tracks one link's capacity.
type Estimator struct {
	estimate   float64
	haveSample bool
	lastSample float64 // virtual time of the last sample
	mode       Mode

	// gain memoises Observe's EWMA gain 1 − exp(−dt/window) for the last
	// (gainDt, gainWindow) pair: a pure function of its two operands, so a
	// repeated pair — back-to-back frames at one airtime — reuses the
	// bits exp would return again. The zero pair never matches: dt is
	// clamped positive and both windows are positive.
	gain, gainDt, gainWindow float64
}

// New returns an estimator with no sample yet, in probe mode.
func New() *Estimator {
	return &Estimator{}
}

// Mode returns the current regime.
func (e *Estimator) Mode() Mode { return e.mode }

// SetMode switches between probe and traffic regimes (driven by whether a
// flow is active on the link).
func (e *Estimator) SetMode(m Mode) { e.mode = m }

// Observe feeds a capacity reading (Mbps) taken at virtual time now.
// Sample arrival density determines the effective reaction time via the
// per-sample EWMA gain a = 1 − exp(−dt/window).
func (e *Estimator) Observe(sample, now float64) {
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
	if dt != e.gainDt || window != e.gainWindow {
		e.gain, e.gainDt, e.gainWindow = 1-math.Exp(-dt/window), dt, window
	}
	e.estimate += e.gain * (sample - e.estimate)
	e.lastSample = now
}

// Estimate returns the current capacity estimate in Mbps (0 before any
// sample).
func (e *Estimator) Estimate() float64 {
	if !e.haveSample {
		return 0
	}
	return e.estimate
}

// Failed reports whether the link should be considered down at time now:
// samples stopped arriving for longer than the failure timeout.
func (e *Estimator) Failed(now float64) bool {
	return e.haveSample && now-e.lastSample > failureTimeout
}

// Reset clears the estimator (e.g. after a detected failure recovers).
func (e *Estimator) Reset() {
	e.estimate = 0
	e.haveSample = false
	e.lastSample = 0
}

// Sample draws a noisy capacity reading from the true capacity for the
// current mode, using the supplied RNG. It stands in for the MCS/BLE
// decoding of real frames.
func (e *Estimator) Sample(trueCapacity float64, rng *rand.Rand) float64 {
	noise := trafficNoise
	if e.mode == ModeProbe {
		noise = probeNoise
	}
	return trueCapacity * math.Exp(rng.NormFloat64()*noise)
}
