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

// intValueSwitch is a non-ranged int's value as a chain of folded draws:
// intn10 picks the case, and cases 2, 5 and 6–9 draw their payload from
// the outputs after it. intValue takes the same draws without the
// switch; this is its fallback when a draw would be rejected.
func (s *source) intValueSwitch() uint64 {
	switch s.intn10() {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return uint64(s.intn8())
	case 3:
		return 0xffffffff
	case 4:
		return 0xffffffffffffffff
	case 5:
		return 1 << uint(s.intn32())
	default:
		return s.Uint64() >> uint(s.intn33())
	}
}

// intCase is one case of intValueSwitch, as intValue applies it. The
// value is konst, or'd with each payload form whose mask is all ones;
// keep1 and keep2 are all ones when the case consumes the output after
// the first and the one after that, and adv counts the outputs consumed.
type intCase struct {
	konst, small, bit, shifted uint64
	keep1, keep2               uint64
	adv                        int
}

// intCases is intValueSwitch's switch as a table, indexed by its intn10.
var intCases = [10]intCase{
	{adv: 1},
	{konst: 1, adv: 1},
	{small: ^uint64(0), keep1: ^uint64(0), adv: 2},
	{konst: 0xffffffff, adv: 1},
	{konst: ^uint64(0), adv: 1},
	{bit: ^uint64(0), keep1: ^uint64(0), adv: 2},
	{shifted: ^uint64(0), keep1: ^uint64(0), keep2: ^uint64(0), adv: 3},
	{shifted: ^uint64(0), keep1: ^uint64(0), keep2: ^uint64(0), adv: 3},
	{shifted: ^uint64(0), keep1: ^uint64(0), keep2: ^uint64(0), adv: 3},
	{shifted: ^uint64(0), keep1: ^uint64(0), keep2: ^uint64(0), adv: 3},
}

// intValue returns what intValueSwitch returns and consumes the same
// outputs, without a branch on the drawn case. It computes the next
// three outputs y0, y1, y2 up front: each is the sum of a feed and a tap
// slot, and the taps sit 334 slots ahead of the feeds, so writing one
// output cannot change another's inputs. The case int31(y0)%10 indexes
// intCases, whose masks select the value from the payload forms
// int31(y1)&7, 1<<(int31(y1)&31) and y1>>(int31(y2)%33), and write back
// only the outputs the case consumes; an output it does not consume is
// written back as the feed value it replaces. When int31(y0) or int31(y2)
// lies above its draw's rejection threshold (probability 10 in 2^31),
// intValueSwitch redraws instead.
func (s *source) intValue() uint64 {
	f0, t0 := s.feed, s.tap
	f1, t1 := wrap(f0+1), wrap(t0+1)
	f2, t2 := wrap(f0+2), wrap(t0+2)
	a0, a1, a2 := s.vec[f0], s.vec[f1], s.vec[f2]
	b0, b1, b2 := s.vec[t0], s.vec[t1], s.vec[t2]
	y0, y1, y2 := a0+b0, a1+b1, a2+b2
	r0 := uint32(uint64(y0) << 1 >> 33)
	r1 := uint32(uint64(y1) << 1 >> 33)
	r2 := uint32(uint64(y2) << 1 >> 33)
	if r0 > 1<<31-1-(1<<31)%10 || r2 > 1<<31-1-(1<<31)%33 {
		return s.intValueSwitch()
	}
	c := &intCases[r0%10]
	v := c.konst | c.small&uint64(r1&7) | c.bit&(1<<(r1&31)) | c.shifted&(uint64(y1)>>(r2%33))
	s.vec[f0] = y0
	s.vec[f1] = a1 + b1&int64(c.keep1)
	s.vec[f2] = a2 + b2&int64(c.keep2)
	s.feed, s.tap = wrap(f0+c.adv), wrap(t0+c.adv)
	return v
}

// wrap reduces a ring slot in [0, 2*srcLen) to [0, srcLen).
func wrap(i int) int {
	if i >= srcLen {
		i -= srcLen
	}
	return i
}
