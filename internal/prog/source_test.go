package prog

import (
	"math/rand"
	"testing"
)

// TestSourceMatchesMathRand: source continues rand.NewSource's stream
// exactly — far past the 607 outputs it takes from it, across seeds
// that exercise Seed's reduction (zero, negative, above 2^31) — and a
// rand.Rand over it draws what one over math/rand's own source draws.
func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, 7, -5, 1 << 40} {
		want := rand.NewSource(seed).(rand.Source64)
		got := newSource(seed)
		for i := 0; i < 5_000_000; i++ {
			if a, b := got.Uint64(), want.Uint64(); a != b {
				t.Fatalf("seed %d: output %d is %#x, math/rand says %#x", seed, i, a, b)
			}
		}
		r, ref := rand.New(newSource(seed)), rand.New(rand.NewSource(seed))
		for i := 0; i < 100_000; i++ {
			var a, b float64
			switch i % 4 {
			case 0:
				a, b = float64(r.Intn(1+i%1000)), float64(ref.Intn(1+i%1000))
			case 1:
				a, b = float64(r.Int63n(int64(i)*7919+3)), float64(ref.Int63n(int64(i)*7919+3))
			case 2:
				a, b = r.Float64(), ref.Float64()
			case 3:
				a, b = float64(r.Uint64()>>11), float64(ref.Uint64()>>11)
			}
			if a != b {
				t.Fatalf("seed %d: mixed draw %d is %v, math/rand says %v", seed, i, a, b)
			}
		}
	}
}

// replay is a rand.Source64 that hands out a fixed list of outputs.
type replay struct {
	y []int64
	i int
}

func (r *replay) Uint64() uint64 { v := r.y[r.i]; r.i++; return uint64(v) }
func (r *replay) Int63() int64   { return int64(r.Uint64() & (1<<63 - 1)) }
func (r *replay) Seed(int64)     {}

// TestFoldedDrawsMatchIntn: each folded draw returns what Rand.Intn
// returns for its n and consumes as many outputs, including when it has
// to redraw. The outputs are chosen so that Int31 lands above each
// rejection threshold, on it, and on ordinary values; the source is set
// up to emit exactly them (source.start), and a replay of the same list
// behind a rand.Rand is the reference.
func TestFoldedDrawsMatchIntn(t *testing.T) {
	const top = 1<<31 - 1
	int31s := []uint32{
		top, top - 1, top - 2, top - 7, top - 8, top - 9, // around n=10's threshold, top-8
		0, 1, 9, 10, 32, 33, 255, 256, 12345, 1 << 30,
		top, top - 1, top - 2, // around n=33's threshold, top-2
		top, top, top, 5, // a long redraw
	}
	var y [srcLen]int64
	for i := range y {
		v := int31s[i%len(int31s)]
		y[i] = int64(v)<<32 | int64(i*2654435761)&0xffffffff // low bits do not matter
		if i%2 == 1 {
			y[i] = int64(uint64(y[i]) | 1<<63) // nor does the top bit
		}
	}
	draws := []struct {
		n    int
		draw func(*source) int
	}{
		{8, (*source).intn8},
		{10, (*source).intn10},
		{32, (*source).intn32},
		{33, (*source).intn33},
		{256, (*source).intn256},
	}
	for _, d := range draws {
		var s source
		s.start(&y)
		ref := &replay{y: y[:]}
		r := rand.New(ref)
		redraws := 0
		for k := 0; ref.i < srcLen-8; k++ {
			before := ref.i
			if got, want := d.draw(&s), r.Intn(d.n); got != want {
				t.Fatalf("Intn(%d) draw %d = %d, rand.Intn says %d", d.n, k, got, want)
			}
			redraws += ref.i - before - 1
			if a, b := s.Uint64(), uint64(y[ref.i]); a != b {
				t.Fatalf("Intn(%d) draw %d consumed a different number of outputs", d.n, k)
			}
			ref.i++
		}
		if (d.n == 10 || d.n == 33) && redraws == 0 {
			t.Fatalf("Intn(%d): the redraw path never ran", d.n)
		}
	}
}
