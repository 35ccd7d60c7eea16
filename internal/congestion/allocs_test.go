package congestion

import (
	"math/rand"
	"testing"
)

// TestAllocsControllerBatch guards the SoA batch core: once a pooled
// controller has been sized by one Reset+RunAppend, re-solving the same
// problem — Reset (which rebuilds the cells), stepping, and appending a
// full trajectory into a reused buffer — performs zero heap allocations.
// CI runs the Allocs guards as a regression gate
// (`go test -run Allocs ./...`).
func TestAllocsControllerBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	gnet, routes := randomScenario(rng)
	for gnet == nil {
		gnet, routes = randomScenario(rng)
	}
	var ctrl Controller
	if err := ctrl.Reset(gnet, routes, Options{}); err != nil {
		t.Fatal(err)
	}
	traj := ctrl.RunAppend(50, nil) // size the trajectory buffer

	if avg := testing.AllocsPerRun(100, func() {
		if err := ctrl.Reset(gnet, routes, Options{}); err != nil {
			t.Fatal(err)
		}
		traj = ctrl.RunAppend(50, traj[:0])
	}); avg != 0 {
		t.Errorf("warm Reset+RunAppend allocates %v per evaluation, want 0", avg)
	}

	if avg := testing.AllocsPerRun(200, func() {
		ctrl.Step()
	}); avg != 0 {
		t.Errorf("Step allocates %v per slot, want 0", avg)
	}
}
