package congestion

// AlphaTuner implements the step-size heuristic of §6.1: α starts at a
// base value (0.02 in the paper), is multiplied by 2 when the flow uses a
// single path or its longest route has two hops, by 4 when the longest
// route has one hop, and is divided by 2 whenever 6 or more non-decreasing
// oscillations of the flow rate are observed.
type AlphaTuner struct {
	// MinAlpha floors the division (default 1e-4).
	MinAlpha float64

	alpha float64

	// Oscillation tracking.
	last      float64
	lastDelta float64
	lastAmp   float64
	nondec    int
	started   bool
}

// NewAlphaTuner returns a tuner initialized per the paper's heuristic for
// a flow whose longest route has longestHops hops and which uses
// numRoutes routes.
func NewAlphaTuner(base float64, numRoutes, longestHops int) *AlphaTuner {
	if base <= 0 {
		base = 0.02
	}
	t := &AlphaTuner{MinAlpha: 1e-4}
	a := base
	switch {
	case longestHops <= 1:
		a *= 4
	case numRoutes == 1 || longestHops == 2:
		a *= 2
	}
	t.alpha = a
	return t
}

// Alpha returns the current step size.
func (t *AlphaTuner) Alpha() float64 { return t.alpha }

// Observe feeds the current flow rate; it detects oscillations whose
// amplitude does not decrease and halves α after 6 of them in a row.
// It returns true when α changed.
func (t *AlphaTuner) Observe(rate float64) bool {
	if !t.started {
		t.started = true
		t.last = rate
		return false
	}
	delta := rate - t.last
	changed := false
	// A sign change in the rate increments marks a turning point; the
	// amplitude of the half-oscillation is |delta from the previous
	// extremum|, approximated by the last increment magnitude.
	if t.lastDelta != 0 && delta*t.lastDelta < 0 {
		amp := abs(t.lastDelta)
		if t.lastAmp > 0 && amp >= t.lastAmp {
			t.nondec++
			if t.nondec >= 6 {
				t.alpha /= 2
				if t.alpha < t.MinAlpha {
					t.alpha = t.MinAlpha
				}
				t.nondec = 0
				changed = true
			}
		} else {
			t.nondec = 0
		}
		t.lastAmp = amp
	}
	if delta != 0 {
		t.lastDelta = delta
	}
	t.last = rate
	return changed
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
