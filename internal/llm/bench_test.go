package llm_test

import (
	"context"
	"testing"

	"kernelgpt/internal/core"
	"kernelgpt/internal/corpus"
	"kernelgpt/internal/llm"
)

// recorder keeps the first request of each purpose that passes
// through it.
type recorder struct {
	llm.Client
	first map[string]llm.Request
}

func (r *recorder) Complete(ctx context.Context, req llm.Request) (llm.Response, error) {
	if _, ok := r.first[req.Purpose]; !ok {
		r.first[req.Purpose] = req
	}
	return r.Client.Complete(ctx, req)
}

// BenchmarkSimComplete: one op is 256 completions of a real pipeline
// prompt of the given purpose (the first one generating the test
// corpus's drivers under gpt-4 seed 1 sends).
func BenchmarkSimComplete(b *testing.B) {
	ctx := context.Background()
	rec := &recorder{Client: llm.NewSim("gpt-4", 1), first: map[string]llm.Request{}}
	g := core.New(rec, testCorpus, core.DefaultOptions())
	for _, h := range testCorpus.Incomplete(corpus.KindDriver) {
		g.GenerateFor(ctx, h)
	}
	for _, purpose := range []string{"identifier", "type", "dependency", "repair"} {
		req, ok := rec.first[purpose]
		if !ok {
			b.Fatalf("the pipeline never sent a %s prompt", purpose)
		}
		b.Run(purpose, func(b *testing.B) {
			m := llm.NewSim("gpt-4", 1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for r := 0; r < 256; r++ {
					if _, err := m.Complete(ctx, req); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
