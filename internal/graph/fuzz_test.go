package graph_test

import (
	"math/rand"
	"testing"
)

// FuzzBuildMatchesReference holds Build's interference rows to the
// pairwise reference loop (reference_test.go) on small random networks:
// node positions, interface sets and links are drawn from seed, with
// nodes%80 nodes (so sensed-node sets may span two words), links%150 links
// and bit k of unbounded lifting the sensing radius of the k-th
// technology.
func FuzzBuildMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(10), uint16(40), uint8(0))
	f.Add(int64(2), uint8(3), uint16(5), uint8(15))
	f.Add(int64(3), uint8(70), uint16(140), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nodes uint8, links uint16, unbounded uint8) {
		checkBuild(t, "fuzz", randomNetwork(rand.New(rand.NewSource(seed)), int(nodes%80), int(links%150), unbounded))
	})
}
