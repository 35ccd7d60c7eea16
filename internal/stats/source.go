package stats

import "math/rand"

// The recurrence of math/rand's default generator (the source
// rand.NewSource returns): x_n = x_{n−607} + x_{n−273} mod 2⁶⁴.
const (
	srcLen = 607
	srcTap = 273
)

// Source is a bit-exact twin of the generator behind rand.NewSource: the
// same additive lagged-Fibonacci recurrence, as a concrete type. A hot
// loop holding a *Source inlines its draw instead of calling through the
// rand.Source interface, and rand.New(twin) hands every *rand.Rand
// method the values it would have drawn from the stream the twin
// continues.
//
// vec holds 607 consecutive values of the stream, of which the first
// pos have been handed out. Those 607 values are all the recurrence
// needs, so when they run out refill replaces them, in place, by the
// next 607. A Source is built by Continue; its zero value is not usable.
type Source struct {
	pos int
	vec [srcLen]uint64
}

// Continue returns a twin of s positioned where s is: its outputs are the
// values s would produce next, forever. It draws the next 607 values of
// s, which become the twin's next 607 outputs and, being a full window of
// the recurrence, determine every value after them. This works at any
// point of s's stream — a fresh seed or after any mix of draws — and
// needs no copy of math/rand's seeding table. s is consumed: draw from
// the twin from here on.
//
// s must run math/rand's default generator (a rand.NewSource, or a
// *rand.Rand over one); for any other source only the first 607 outputs
// agree.
func Continue(s rand.Source64) *Source {
	t := &Source{}
	for k := range t.vec {
		t.vec[k] = s.Uint64()
	}
	return t
}

// Uint64 returns the next value of the stream.
func (s *Source) Uint64() uint64 {
	if s.pos == srcLen {
		s.refill()
	}
	x := s.vec[s.pos]
	s.pos++
	return x
}

// refill advances vec from x_m…x_{m+606} to x_{m+607}…x_{m+1213}:
// x_{m+607+i} = x_{m+i} + x_{m+334+i}, where x_{m+334+i} is still the old
// vec[334+i] for i < 273 and the just-written vec[i−273] after. It stays
// out of line so that Uint64 inlines.
//
//go:noinline
func (s *Source) refill() {
	v := &s.vec
	for i := 0; i < srcTap; i++ {
		v[i] += v[i+srcLen-srcTap]
	}
	for i := srcTap; i < srcLen; i++ {
		v[i] += v[i-srcTap]
	}
	s.pos = 0
}

// Int63 returns the next value with its top bit cleared, as math/rand's
// source does.
func (s *Source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// Seed restarts s on the stream rand.NewSource(seed) produces.
func (s *Source) Seed(seed int64) {
	*s = *Continue(rand.NewSource(seed).(rand.Source64))
}
