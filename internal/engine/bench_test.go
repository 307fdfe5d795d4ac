package engine

import (
	"testing"

	"kernelgpt/internal/llm"
)

// BenchmarkEngineSuite is the generation pipeline end to end: one op
// is one full Suite pass per simulated model over the test corpus on
// one worker, with a fresh engine and sim per pass and no completion
// cache, so every prompt is built, read and answered.
func BenchmarkEngineSuite(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, model := range llm.ModelNames() {
			if _, _, _, err := New(testCorpus, WithModel(model, 1)).Suite(ctx); err != nil {
				b.Fatal(err)
			}
		}
	}
}
