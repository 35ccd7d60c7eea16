package node

// seriesLog accumulates (time, bits) points for rate series. Points are
// stored in fixed-size chunks instead of one doubling slice: a run that
// logs millions of packets allocates one 64 KB chunk per 4096 points and
// never copies old data (the doubling slice used to re-copy the whole
// log ~20 times over a long run, which dominated the emulation's byte
// churn). The chunk directory grows by append as chunks fill, so a log
// costs memory in proportion to what it holds, never to how long a run
// is declared to last.
//
// The log is append-only, so its point count is its version: memo keeps
// the last binning per bin width together with the count it was taken
// at, and a read at an unchanged count returns it instead of re-binning
// the whole log.
type seriesLog struct {
	chunks []*seriesChunk
	n      int // total points
	memo   []seriesMemo
}

const seriesChunkPoints = 4096

type seriesChunk struct {
	times [seriesChunkPoints]float64
	bits  [seriesChunkPoints]float64
}

// seriesMemo is one binning of the log's first n points.
type seriesMemo struct {
	bin       float64
	n         int
	ts, rates []float64
}

func (s *seriesLog) add(t, b float64) {
	i := s.n % seriesChunkPoints
	if i == 0 {
		s.chunks = append(s.chunks, &seriesChunk{})
	}
	c := s.chunks[len(s.chunks)-1]
	c.times[i] = t
	c.bits[i] = b
	s.n++
}

// series bins the log into rates: returns bin midpoints (s) and rates
// (Mbps), as slices the caller owns.
func (s *seriesLog) series(bin float64) ([]float64, []float64) {
	ts, rates := s.binned(bin)
	if ts == nil {
		return nil, nil
	}
	return append([]float64(nil), ts...), append([]float64(nil), rates...)
}

// binned is series without the copy: the returned slices are the memo's
// and must not be modified.
func (s *seriesLog) binned(bin float64) ([]float64, []float64) {
	if s.n == 0 || bin <= 0 {
		return nil, nil
	}
	var m *seriesMemo
	for i := range s.memo {
		if s.memo[i].bin == bin {
			m = &s.memo[i]
			break
		}
	}
	if m == nil {
		s.memo = append(s.memo, seriesMemo{bin: bin})
		m = &s.memo[len(s.memo)-1]
	} else if m.n == s.n {
		return m.ts, m.rates
	}
	m.n = s.n
	m.ts, m.rates = rebin([]*seriesLog{s}, bin)
	return m.ts, m.rates
}

// rebin bins the union of logs into rates over [0, last point]: bin
// midpoints (s) and rates (Mbps), or nil for no points. Every value the
// emulation logs is a whole number of bits and every bin sum stays far
// below 2^53, so the float sums are exact and the union bins the same,
// bit for bit, as one log holding all its points in any order would.
func rebin(logs []*seriesLog, bin float64) ([]float64, []float64) {
	end, points := 0.0, 0
	for _, s := range logs {
		if s.n > 0 {
			end = max(end, s.chunks[(s.n-1)/seriesChunkPoints].times[(s.n-1)%seriesChunkPoints])
			points += s.n
		}
	}
	if points == 0 || bin <= 0 {
		return nil, nil
	}
	n := int(end/bin) + 1
	sums := make([]float64, n)
	for _, s := range logs {
		for ci, c := range s.chunks {
			limit := min(seriesChunkPoints, s.n-ci*seriesChunkPoints)
			for i := 0; i < limit; i++ {
				idx := min(int(c.times[i]/bin), n-1)
				sums[idx] += c.bits[i]
			}
		}
	}
	ts := make([]float64, n)
	rates := make([]float64, n)
	for i := range sums {
		ts[i] = (float64(i) + 0.5) * bin
		rates[i] = sums[i] / bin / 1e6
	}
	return ts, rates
}
