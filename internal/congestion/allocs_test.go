package congestion

import (
	"math/rand"
	"testing"
)

// TestAllocsControllerBatch guards the SoA batch core: once a pooled
// controller has been sized by one Reset+SetExternalLoad+RunAppend,
// re-solving the same problem — Reset, loading the external traffic (which
// splits cells), stepping, and appending a full trajectory into a reused
// buffer — performs zero heap allocations. CI runs the Allocs guards as a
// regression gate (`go test -run Allocs ./...`).
func TestAllocsControllerBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	gnet, routes := randomScenario(rng)
	for gnet == nil {
		gnet, routes = randomScenario(rng)
	}
	ext := randomLoad(rng, gnet.NumLinks(), 4)
	var ctrl Controller
	if err := ctrl.Reset(gnet, routes, Options{}); err != nil {
		t.Fatal(err)
	}
	ctrl.SetExternalLoad(ext)       // size the cell scratch
	traj := ctrl.RunAppend(50, nil) // size the trajectory buffer

	if avg := testing.AllocsPerRun(100, func() {
		if err := ctrl.Reset(gnet, routes, Options{}); err != nil {
			t.Fatal(err)
		}
		traj = ctrl.RunAppend(25, traj[:0])
		ctrl.SetExternalLoad(ext)
		traj = ctrl.RunAppend(25, traj)
	}); avg != 0 {
		t.Errorf("warm Reset+RunAppend+SetExternalLoad allocates %v per evaluation, want 0", avg)
	}

	if avg := testing.AllocsPerRun(200, func() {
		ctrl.Step()
	}); avg != 0 {
		t.Errorf("Step allocates %v per slot, want 0", avg)
	}
}
