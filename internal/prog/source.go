package prog

import "math/rand"

// source is the one random stream a Gen draws from: a copy of
// math/rand's additive lagged Fibonacci generator that continues
// rand.NewSource(seed)'s stream exactly, so that every value
// generation draws is what it drew through math/rand, but without an
// interface call per draw. Its outputs obey the generator's own
// recurrence,
//
//	y[n] = y[n-607] + y[n-273] (mod 2^64),
//
// so Seed takes rand.NewSource(seed)'s first 607 outputs, runs the
// recurrence backwards to the 607 values before them, and from then on
// Uint64 hands out y[0], y[1], … by running it forwards. A Gen's R is a
// rand.Rand over the same source: a draw through R and a folded draw
// below (intn8 … intn256) advance one state.
type source struct {
	// vec holds the last srcLen outputs, y[k] in slot k mod srcLen; feed
	// is the slot of y[n-607], where the next output y[n] goes, and tap
	// the slot of y[n-273].
	vec       [srcLen]int64
	feed, tap int
}

// The recurrence's lags, as in math/rand.
const (
	srcLen = 607
	srcTap = 273
)

func newSource(seed int64) *source {
	s := new(source)
	s.Seed(seed)
	return s
}

// Seed implements rand.Source: s continues rand.NewSource(seed).
func (s *source) Seed(seed int64) {
	r := rand.NewSource(seed).(rand.Source64)
	var y [srcLen]int64
	for i := range y {
		y[i] = int64(r.Uint64())
	}
	s.start(&y)
}

// start makes y the next srcLen outputs of s. The recurrence solved
// for its oldest term, y[m] = y[m+607] - y[m+334], gives the srcLen
// outputs before y[0], newest first; the forward recurrence then
// reproduces y and continues it.
func (s *source) start(y *[srcLen]int64) {
	for m := -1; m >= -srcLen; m-- {
		later := y[m+srcLen]
		var tap int64
		if i := m + srcLen - srcTap; i >= 0 {
			tap = y[i]
		} else {
			tap = s.vec[i+srcLen] // y[i], already solved: i > m
		}
		s.vec[m+srcLen] = later - tap
	}
	s.feed, s.tap = 0, srcLen-srcTap
}

// Uint64 implements rand.Source64.
func (s *source) Uint64() uint64 {
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	if s.feed++; s.feed == srcLen {
		s.feed = 0
	}
	if s.tap++; s.tap == srcLen {
		s.tap = 0
	}
	return uint64(x)
}

// Int63 implements rand.Source.
func (s *source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// The folded draws. Each returns what rand.New(s).Intn(n) returns for
// its constant n and consumes the same source outputs: Intn takes
// Int31n's path for these n, which masks Int31 for a power of two and
// otherwise redraws Int31 above the same rejection threshold and
// reduces it modulo n. With n a constant, the threshold is folded and
// the modulo is a multiply, where Rand.Intn divides twice per draw.

// int31 is Rand.Int31: bits 32–62 of the next output.
func (s *source) int31() uint32 { return uint32(s.Uint64() << 1 >> 33) }

func (s *source) intn8() int   { return int(s.int31() & 7) }
func (s *source) intn32() int  { return int(s.int31() & 31) }
func (s *source) intn256() int { return int(s.int31() & 255) }

func (s *source) intn10() int {
	for {
		if v := s.int31(); v <= 1<<31-1-(1<<31)%10 {
			return int(v % 10)
		}
	}
}

func (s *source) intn33() int {
	for {
		if v := s.int31(); v <= 1<<31-1-(1<<31)%33 {
			return int(v % 33)
		}
	}
}
