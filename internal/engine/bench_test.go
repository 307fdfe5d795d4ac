package engine

import (
	"runtime"
	"sync"
	"testing"

	"kernelgpt/internal/corpus"
	"kernelgpt/internal/llm"
)

// raceEnabled reports a race-detector build, whose allocations are
// not the product's.
var raceEnabled bool

// fullCorpus is the full-scale corpus, built once for the tests that
// need it.
var fullCorpus = sync.OnceValue(func() *corpus.Corpus { return corpus.Build(corpus.Config{Scale: 1}) })

// TestSuiteAllocsPerHandler is the allocation budget of the path the
// kernelgpt command and the specgen_full benchmark take: one Suite
// pass per simulated model (seed 1) over the full-scale corpus, on
// one worker, through the completion cache. It reads bytes and
// allocations per generated handler over the passes, the GC and
// pooled-buffer refills they cause included. The budgets are 5% above
// the measured 120.4 KB and 1081; the same passes made 166.2 KB and
// 1714 while every prompt copied its constant parts and the formatters
// went through fmt, and 231.5 KB and 2098 before the sim read its
// prompts in place.
func TestSuiteAllocsPerHandler(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	c := fullCorpus()
	var before, after runtime.MemStats
	handlers := 0
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, model := range llm.ModelNames() {
		drivers, sockets, _, err := New(c, WithClient(llm.NewSim(model, 1)), WithCache(4096)).Suite(ctx)
		if err != nil {
			t.Fatal(err)
		}
		handlers += len(drivers) + len(sockets)
	}
	runtime.ReadMemStats(&after)
	kb := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(handlers)
	allocs := float64(after.Mallocs-before.Mallocs) / float64(handlers)
	t.Logf("%d handlers: %.1f KB and %.0f allocations per handler", handlers, kb, allocs)
	const kbBudget, allocsBudget = 126.4, 1135
	if kb > kbBudget || allocs > allocsBudget {
		t.Fatalf("%.1f KB and %.0f allocations per handler, budget %v KB and %v", kb, allocs, kbBudget, allocsBudget)
	}
}

// BenchmarkEngineSuite is the generation pipeline end to end: one op
// is one full Suite pass per simulated model over the test corpus on
// one worker, with a fresh engine and sim per pass and no completion
// cache, so every prompt is built, read and answered.
func BenchmarkEngineSuite(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, model := range llm.ModelNames() {
			if _, _, _, err := New(testCorpus, WithClient(llm.NewSim(model, 1))).Suite(ctx); err != nil {
				b.Fatal(err)
			}
		}
	}
}
