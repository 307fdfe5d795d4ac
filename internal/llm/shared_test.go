package llm_test

import (
	"context"
	"sync"
	"testing"

	"kernelgpt/internal/corpus"
	"kernelgpt/internal/llm"
)

var testCorpus = corpus.Build(corpus.TestConfig())

// TestSharedIndexIsReadOnly: the corpus-wide Index is shared by every
// engine worker, and its memoised BodyInfos with it. Eight goroutines
// analyse every corpus function through Info, walk the call lists the
// way the sim and the baseline do, and complete one prompt each on one
// shared sim; -race fails if any reader writes.
func TestSharedIndexIsReadOnly(t *testing.T) {
	ix := testCorpus.Index
	src := ix.Files()[testCorpus.Handler("dm").SourcePath()]
	prompt := []llm.Message{{Role: "user", Content: llm.SecInstruction + "\nGenerate the identifier values.\n" + llm.SecSource + "\n" + src + "\n"}}
	m := llm.NewSim("gpt-4", 1)
	const workers = 8
	replies := make([]string, workers)
	calls := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, fn := range ix.Functions {
				info := fn.Info()
				for _, c := range info.Calls {
					calls[w] += len(c.Args)
				}
				for _, c := range info.Delegations {
					calls[w] += len(c.Args)
				}
			}
			resp, err := m.Complete(context.Background(), llm.Request{Messages: prompt})
			if err != nil {
				t.Error(err)
			}
			replies[w] = resp.Text
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if replies[w] != replies[0] || calls[w] != calls[0] {
			t.Fatalf("goroutine %d read something different", w)
		}
	}
	if replies[0] == "" || calls[0] == 0 {
		t.Fatal("nothing was analysed")
	}
}
