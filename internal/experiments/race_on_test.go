//go:build race

package experiments

// raceEnabled reports whether the race detector is compiled in; its
// sync.Pool drops a random quarter of what is put back, so the recycling
// guard only runs in the dedicated non-race CI step.
const raceEnabled = true
