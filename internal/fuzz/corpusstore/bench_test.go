package corpusstore

import (
	"testing"

	"kernelgpt/internal/fuzz/seedpool"
	"kernelgpt/internal/prog"
)

// BenchmarkStoreSave prices a flush of a default-capacity corpus: into
// an empty directory, again unchanged through the same handle (every
// checkpoint of a saturated campaign), and with one entry swapped for a
// new program (a hub merge that admits one seed). It times a
// filesystem, so it is history in BENCH_fuzz.json, not a gate row.
func BenchmarkStoreSave(b *testing.B) {
	f := targetFor(b, "dm")
	// Through Merge, as every product caller's seeds are.
	seeds := Merge(0, genSeeds(b, f, seedpool.DefaultCapacity))
	warm := func(b *testing.B) *Store {
		st, err := Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		if err := st.Save(seeds, 0); err != nil {
			b.Fatal(err)
		}
		return st
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			st, err := Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := st.Save(seeds, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unchanged", func(b *testing.B) {
		st := warm(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := st.Save(seeds, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("one-new", func(b *testing.B) {
		st := warm(b)
		g := prog.NewGen(f, 99)
		next := append([]seedpool.SeedState(nil), seeds...)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p := g.Generate(4).Detach()
			next[0] = seedpool.SeedState{Prog: p, Text: p.Serialize(), Prio: 1}
			b.StartTimer()
			if err := st.Save(next, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}
