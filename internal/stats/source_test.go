package stats

import (
	"math"
	"math/rand"
	"testing"
)

func mathRandSource(seed int64) rand.Source64 { return rand.NewSource(seed).(rand.Source64) }

var twinSeeds = []int64{0, 1, -1, 1 << 40, math.MinInt64, math.MaxInt32}

// TestSourceMatchesMathRand: a twin continuing a fresh math/rand source
// reproduces its next 10⁶ values — the 607 Continue drew and every value
// the recurrence produces after them — and its Int63 clears the same bit.
func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range twinSeeds {
		ref := mathRandSource(seed)
		twin := Continue(mathRandSource(seed))
		for i := 0; i < 1_000_000; i++ {
			if i%3 == 0 {
				if got, want := twin.Int63(), ref.Int63(); got != want {
					t.Fatalf("seed %d draw %d: Int63 %d, math/rand %d", seed, i, got, want)
				}
				continue
			}
			if got, want := twin.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: Uint64 %#x, math/rand %#x", seed, i, got, want)
			}
		}
	}
}

// mixedDraws consumes the stream through n *rand.Rand methods picked by
// position, so the stream ends at an arbitrary point.
func mixedDraws(r *rand.Rand, n int) {
	for i := 0; i < n; i++ {
		switch i % 6 {
		case 0:
			r.Float64()
		case 1:
			r.NormFloat64()
		case 2:
			r.Intn(i + 1)
		case 3:
			r.ExpFloat64()
		case 4:
			r.Int63n(1<<62 + int64(i))
		case 5:
			r.Uint32()
		}
	}
}

// sameRand compares n values of every drawing method two *rand.Rand
// hand out, interleaved.
func sameRand(t *testing.T, what string, got, want *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if a, b := got.Float64(), want.Float64(); a != b {
			t.Fatalf("%s: Float64 %d: %v vs %v", what, i, a, b)
		}
		if a, b := got.NormFloat64(), want.NormFloat64(); a != b {
			t.Fatalf("%s: NormFloat64 %d: %v vs %v", what, i, a, b)
		}
		if a, b := got.Intn(174), want.Intn(174); a != b {
			t.Fatalf("%s: Intn %d: %v vs %v", what, i, a, b)
		}
		if a, b := got.Uint64(), want.Uint64(); a != b {
			t.Fatalf("%s: Uint64 %d: %v vs %v", what, i, a, b)
		}
	}
	pa, pb := got.Perm(300), want.Perm(300)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("%s: Perm differs at %d", what, i)
		}
	}
}

// TestSourceContinuesAfterMixedDraws: Continue picks a stream up at any
// point, here after a mix of the draws the emulation makes, and
// rand.New(twin) then hands out what the original would have.
func TestSourceContinuesAfterMixedDraws(t *testing.T) {
	for _, seed := range twinSeeds {
		for _, skip := range []int{0, 1, 606, 607, 608, 5000} {
			r, ref := rand.New(mathRandSource(seed)), rand.New(mathRandSource(seed))
			mixedDraws(r, skip)
			mixedDraws(ref, skip)
			sameRand(t, "after mixed draws", rand.New(Continue(r)), ref, 2000)
		}
	}
}

// TestSourceSeed: Seed restarts the twin — directly or through the
// *rand.Rand over it — on the stream rand.NewSource(seed) starts.
func TestSourceSeed(t *testing.T) {
	twin := Continue(mathRandSource(7))
	mixedDraws(rand.New(twin), 1000)
	for _, seed := range twinSeeds {
		twin.Seed(seed)
		sameRand(t, "Source.Seed", rand.New(twin), rand.New(mathRandSource(seed)), 1000)

		r := rand.New(twin)
		r.Seed(seed + 1)
		sameRand(t, "Rand.Seed", r, rand.New(mathRandSource(seed+1)), 1000)
	}
}

// FuzzSourceContinuesMathRand: from any seed and any point of the stream
// (skip mixed draws in), the twin agrees with math/rand across the 607
// values Continue drew and well past them, where only the recurrence
// speaks. The corpus under testdata/fuzz covers the seeds the emulation
// uses and the stream's edges.
func FuzzSourceContinuesMathRand(f *testing.F) {
	for _, seed := range twinSeeds {
		f.Add(seed, uint16(0))
		f.Add(seed, uint16(607))
	}
	f.Fuzz(func(t *testing.T, seed int64, skip uint16) {
		r, ref := rand.New(mathRandSource(seed)), rand.New(mathRandSource(seed))
		mixedDraws(r, int(skip))
		mixedDraws(ref, int(skip))
		twin := Continue(r)
		for i := 0; i < 3*srcLen; i++ {
			if got, want := twin.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d skip %d draw %d: %#x, math/rand %#x", seed, skip, i, got, want)
			}
		}
		sameRand(t, "fuzz", rand.New(twin), ref, 50)
	})
}
