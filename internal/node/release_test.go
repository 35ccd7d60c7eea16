package node

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
)

// freshLog builds a log holding points in newly allocated chunks, never
// the pool's.
func freshLog(points []logPoint) *seriesLog {
	s := &seriesLog{}
	for i, p := range points {
		if i%seriesChunkPoints == 0 {
			s.chunks = append(s.chunks, new(seriesChunk))
		}
		c := s.chunks[len(s.chunks)-1]
		c.times[i%seriesChunkPoints] = p.t
		c.bits[i%seriesChunkPoints] = p.bits
		s.n++
	}
	return s
}

// TestPooledChunksReadLikeFresh: a log whose chunks come back from the
// pool full of another run's values — here NaN, huge times and random
// garbage in every slot — bins exactly like a log on fresh chunks. Reads
// stop at n, so no stale slot beyond it reaches a series.
func TestPooledChunksReadLikeFresh(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // keep the poisoned chunks pooled
	runtime.GC()
	runtime.GC() // two cycles empty the pool, so only poisoned chunks are in it
	rng := rand.New(rand.NewSource(52))
	poisoned := map[*seriesChunk]bool{}
	for k := 0; k < 16; k++ {
		c := new(seriesChunk)
		for i := range c.times {
			switch rng.Intn(3) {
			case 0:
				c.times[i], c.bits[i] = math.NaN(), math.NaN()
			case 1:
				c.times[i], c.bits[i] = 1e300, -1e300
			default:
				c.times[i], c.bits[i] = rng.NormFloat64()*1e6, rng.NormFloat64()*1e9
			}
		}
		poisoned[c] = true
		chunkPool.Put(c)
	}
	var points []logPoint
	now := 0.0
	for i, n := 0, 2*seriesChunkPoints+1234; i < n; i++ {
		now += rng.ExpFloat64() * 2e-3
		points = append(points, logPoint{now, float64(8 * (1 + rng.Intn(1500)))})
	}
	reused := &seriesLog{}
	for _, p := range points {
		reused.add(p.t, p.bits)
	}
	used := 0
	for _, c := range reused.chunks {
		if poisoned[c] {
			used++
		}
	}
	if used == 0 {
		t.Fatal("no poisoned chunk came back from the pool")
	}
	fresh := freshLog(points)
	for _, bin := range []float64{0.01, 0.1, 0.5, 1, now / 7} {
		wantTs, wantRates := fresh.series(bin)
		gotTs, gotRates := reused.series(bin)
		if !sameBits(gotTs, wantTs) || !sameBits(gotRates, wantRates) {
			t.Fatalf("bin %g: %d poisoned chunks change the series", bin, used)
		}
		f := &Flow{retired: []*seriesLog{reused}, routeLogs: []*seriesLog{}}
		gotTs, gotRates = f.SentRateSeries(bin)
		if !sameBits(gotTs, wantTs) || !sameBits(gotRates, wantRates) {
			t.Fatalf("bin %g: %d poisoned chunks change the union binning", bin, used)
		}
	}
}

// TestReturnedRingIsCleared: the ring grow replaces, and the ring a
// release hands back, go to their pools all-absent and holding no meta,
// while grow re-seats the live window intact; a ring taken from a pool
// is as empty as a fresh one.
func TestReturnedRingIsCleared(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s := &Sink{ring: getRing(sinkRingInit), log: &seriesLog{}, nextSeq: 1000}
	for k := uint32(0); k < sinkRingInit; k += 3 {
		seq := s.nextSeq + k
		s.ring[seq&(sinkRingInit-1)] = bufEntry{payloadLen: uint16(seq), present: true, meta: &seq}
	}
	old := s.ring
	s.grow(5 * sinkRingInit)
	for i, e := range old {
		if e != (bufEntry{}) {
			t.Fatalf("replaced ring slot %d holds %+v after grow", i, e)
		}
	}
	if len(s.ring) != 8*sinkRingInit {
		t.Fatalf("grown ring has %d slots, want %d", len(s.ring), 8*sinkRingInit)
	}
	mask := uint32(len(s.ring) - 1)
	for k := uint32(0); k < uint32(len(s.ring)); k++ {
		seq := s.nextSeq + k
		e := s.ring[seq&mask]
		if want := k < sinkRingInit && k%3 == 0; e.present != want {
			t.Fatalf("seq %d: present %v after grow, want %v", seq, e.present, want)
		}
		if e.present && (e.payloadLen != uint16(seq) || *e.meta.(*uint32) != seq) {
			t.Fatalf("seq %d re-seated as %+v", seq, e)
		}
	}
	grown := s.ring
	s.release()
	for i, e := range grown {
		if e != (bufEntry{}) {
			t.Fatalf("released ring slot %d holds %+v", i, e)
		}
	}
	for _, n := range []int{sinkRingInit, 8 * sinkRingInit} {
		r := getRing(n)
		if len(r) != n {
			t.Fatalf("getRing(%d) has %d slots", n, len(r))
		}
		for i, e := range r {
			if e != (bufEntry{}) {
				t.Fatalf("pooled ring of %d: slot %d holds %+v", n, i, e)
			}
		}
	}
}

// releasedFlow runs the Figure 1 network with a rerouted saturated flow
// long enough to fill several chunks, then releases the emulation.
func releasedFlow(t *testing.T) (*Emulation, *Flow, *Sink) {
	t.Helper()
	net, a, c, routes := figure1()
	em := NewEmulation(net, Config{Estimation: true}, 52)
	fl, err := em.AddFlow(FlowSpec{Src: a, Dst: c, Routes: routes, Kind: TrafficSaturated}, 0)
	if err != nil {
		t.Fatal(err)
	}
	em.Run(3)
	if err := fl.installRoutes(fl.em.estimatedNetwork(), routes[1:]); err != nil {
		t.Fatal(err)
	}
	em.Run(6)
	sink := em.Agent(c).PeekSink(a, fl.ID)
	if sink == nil || len(sink.log.chunks) < 2 || len(fl.retired) == 0 {
		t.Fatal("the run filled too little to release")
	}
	em.Release()
	return em, fl, sink
}

// TestReleaseTwiceIsNoOp: a second Release hands nothing back again. A
// chunk put twice would come out of the pool twice, shared by two logs.
func TestReleaseTwiceIsNoOp(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	em, _, sink := releasedFlow(t)
	em.Release()
	seen := map[*seriesChunk]bool{}
	for i := 0; i < 64; i++ {
		c := chunkPool.Get().(*seriesChunk)
		if seen[c] {
			t.Fatalf("chunk %p came out of the pool twice", c)
		}
		seen[c] = true
	}
	if sink.TotalBytes == 0 || sink.TotalPackets == 0 {
		t.Error("Release cleared the sink's counters")
	}
}

// TestReadersPanicAfterRelease: each rate reader, and Run, panics on a
// released emulation instead of reading memory the pools handed on.
func TestReadersPanicAfterRelease(t *testing.T) {
	em, fl, sink := releasedFlow(t)
	for name, read := range map[string]func(){
		"RateSeries":      func() { sink.RateSeries(0.5) },
		"MeanRate":        func() { sink.MeanRate(0, 6) },
		"SentRateSeries":  func() { fl.SentRateSeries(0.5) },
		"RouteRateSeries": func() { fl.RouteRateSeries(0, 0.5) },
		"Run":             func() { em.Run(7) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Release did not panic", name)
				}
			}()
			read()
		}()
	}
}
