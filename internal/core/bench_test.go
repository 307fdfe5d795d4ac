package core

import (
	"testing"

	"kernelgpt/internal/llm"
)

// TestGenerateForAllocs is the generation pipeline's allocation
// budget: one GenerateFor of the dm driver under gpt-4 seed 1 (every
// completion builds a prompt, and the sim indexes and analyses
// it). The budget is 5% above the measured 1004; the same call made
// 6492 allocations before the generation side stopped re-reading,
// 1812 before the sim read its prompt in place, and 1415 before the
// prompts shared their constant parts and the formatters and parsers
// wrote and read in place.
func TestGenerateForAllocs(t *testing.T) {
	h := testCorpus.Handler("dm")
	g := New(llm.NewSim("gpt-4", 1), testCorpus, DefaultOptions())
	if res := g.GenerateFor(ctx, h); !res.Valid {
		t.Fatal("dm did not generate a valid spec")
	}
	const budget = 1054
	if got := testing.AllocsPerRun(20, func() { g.GenerateFor(ctx, h) }); got > budget {
		t.Fatalf("GenerateFor(dm) made %.0f allocations, budget %d", got, budget)
	}
}

// BenchmarkGenerateFor: one op generates the dm driver's spec 16
// times under gpt-4 seed 1.
func BenchmarkGenerateFor(b *testing.B) {
	h := testCorpus.Handler("dm")
	g := New(llm.NewSim("gpt-4", 1), testCorpus, DefaultOptions())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for r := 0; r < 16; r++ {
			g.GenerateFor(ctx, h)
		}
	}
}
