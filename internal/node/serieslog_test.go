package node

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// logPoint is one (time, bits) point of a seriesLog.
type logPoint struct{ t, bits float64 }

// logPoints returns a log's points in insertion order.
func logPoints(s *seriesLog) []logPoint {
	out := make([]logPoint, 0, s.n)
	for i := 0; i < s.n; i++ {
		c := s.chunks[i/seriesChunkPoints]
		out = append(out, logPoint{c.times[i%seriesChunkPoints], c.bits[i%seriesChunkPoints]})
	}
	return out
}

// TestSentSeriesUnionIsExact: SentRateSeries bins the union of a flow's
// route logs and retired logs. With whole-bit values that union must bin
// exactly like one log holding every point in chronological order.
func TestSentSeriesUnionIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for trial := 0; trial < 40; trial++ {
		nLogs := 1 + rng.Intn(6)
		logs := make([]*seriesLog, nLogs)
		for i := range logs {
			logs[i] = &seriesLog{}
		}
		one := &seriesLog{}
		now := 0.0
		for i, n := 0, rng.Intn(3*seriesChunkPoints); i < n; i++ {
			now += rng.ExpFloat64() * 2e-3
			// A data frame's on-air size: a whole number of bits, up to
			// a jumbo frame's.
			bits := float64(8 * (1 + rng.Intn(9000)))
			logs[rng.Intn(nLogs)].add(now, bits)
			one.add(now, bits)
		}
		retired := rng.Intn(nLogs)
		f := &Flow{retired: logs[:retired], routeLogs: logs[retired:]}
		for _, bin := range []float64{0.01, 0.1, 0.37, 1, 2.5, now / 100} {
			wantTs, wantRates := one.series(bin)
			gotTs, gotRates := f.SentRateSeries(bin)
			if !sameBits(gotTs, wantTs) || !sameBits(gotRates, wantRates) {
				t.Fatalf("trial %d (%d logs, %d retired, %d points), bin %g: union binning differs from one log",
					trial, nLogs, retired, one.n, bin)
			}
		}
	}
}

// TestLoggedValuesAreWholeBits checks the precondition of the union's
// exactness on a real run: over a Figure-1 emulation with two reroutes,
// every value the source and the sink log is a whole number of bits, and
// the sent series equals the binning of all sent points merged in time
// order.
func TestLoggedValuesAreWholeBits(t *testing.T) {
	net, a, c, routes := figure1()
	em := NewEmulation(net, Config{Estimation: true}, 40)
	fl, err := em.AddFlow(FlowSpec{Src: a, Dst: c, Routes: routes, Kind: TrafficSaturated}, 0)
	if err != nil {
		t.Fatal(err)
	}
	em.Run(5)
	if err := fl.installRoutes(fl.em.estimatedNetwork(), routes[1:]); err != nil {
		t.Fatal(err)
	}
	em.Run(10)
	if err := fl.installRoutes(fl.em.estimatedNetwork(), routes); err != nil {
		t.Fatal(err)
	}
	em.Run(15)
	if len(fl.retired) != 3 {
		t.Fatalf("%d retired logs after two reroutes, want 3", len(fl.retired))
	}

	sent := append(append([]*seriesLog(nil), fl.retired...), fl.routeLogs...)
	var all []logPoint
	for _, l := range append(sent, em.Agent(c).PeekSink(a, fl.ID).log) {
		for _, p := range logPoints(l) {
			if p.bits != math.Trunc(p.bits) || p.bits <= 0 {
				t.Fatalf("logged %v bits at t=%g, want a positive whole number", p.bits, p.t)
			}
		}
	}
	for _, l := range sent {
		all = append(all, logPoints(l)...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].t < all[j].t })
	one := &seriesLog{}
	for _, p := range all {
		one.add(p.t, p.bits)
	}
	for _, bin := range []float64{0.1, 0.5, 1} {
		wantTs, wantRates := one.series(bin)
		gotTs, gotRates := fl.SentRateSeries(bin)
		if !sameBits(gotTs, wantTs) || !sameBits(gotRates, wantRates) {
			t.Fatalf("bin %g: sent series differs from the merged log's", bin)
		}
	}
}
