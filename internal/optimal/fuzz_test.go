package optimal

import (
	"math"
	"testing"

	"repro/internal/congestion"
)

// fuzzReader reads a fuzz input front to back; past its end every byte is 0.
type fuzzReader []byte

func (b *fuzzReader) byte() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// float reads 8 bytes, big-endian, as a float64; one outside [0, 10⁶] reads
// as 0.
func (b *fuzzReader) float() float64 {
	var u uint64
	for i := 0; i < 8; i++ {
		u = u<<8 | uint64(b.byte())
	}
	if v := math.Float64frombits(u); v >= 0 && v <= 1e6 {
		return v
	}
	return 0
}

// fuzzProblem decodes a problem of 1–8 routes, 1–3 flows and 0–3 rows and
// its options. A header gives the route, flow and row counts and the step
// (0.05, 0.25 or 0.5) in a byte each and the iteration count (1–3000) in
// two. Then come per route its flow (a byte) and its cap (0 for none), per
// flow its utility (a byte: proportional fairness by default, with a
// weight, an α-fair one, or w·log x) and that utility's parameter, and per
// row its bound and one coefficient per route (0 for no entry).
func fuzzProblem(data []byte) (Problem, SolveOptions) {
	b := fuzzReader(data)
	n, flows, rows := 1+int(b.byte())%8, 1+int(b.byte())%3, int(b.byte())%4
	opts := SolveOptions{Step: []float64{0.05, 0.25, 0.5}[b.byte()%3]}
	opts.Iters = 1 + (int(b.byte())<<8|int(b.byte()))%3000
	p := Problem{NumRoutes: n, Flows: make([][]int, flows), RateCap: make([]float64, n)}
	for r := 0; r < n; r++ {
		f := int(b.byte()) % flows
		p.Flows[f] = append(p.Flows[f], r)
		p.RateCap[r] = b.float()
	}
	for f := 0; f < flows; f++ {
		kind, w := b.byte()%4, b.float()
		p.Utilities = append(p.Utilities, []congestion.Utility{
			nil, weightedLog(w), alphaFair(w), scaledLog(w),
		}[kind])
	}
	for c := 0; c < rows; c++ {
		con := Constraint{Coef: map[int]float64{}, Bound: b.float()}
		for r := 0; r < n; r++ {
			if v := b.float(); v > 0 {
				con.Coef[r] = v
			}
		}
		p.Constraints = append(p.Constraints, con)
	}
	return p, opts
}

// FuzzSolveMatchesReference holds Solve to referenceSolve, bit for bit, on
// small problems built from the fuzz input. The seed corpus in
// testdata/fuzz/FuzzSolveMatchesReference holds the transition-built
// problems of park_test.go and equivalence_test.go in this encoding.
func FuzzSolveMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, opts := fuzzProblem(data)
		checkAgainstReference(t, p, opts)
	})
}
